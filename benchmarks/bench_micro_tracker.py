"""Micro-benchmarks of the component-tracking core (the former hot path).

The union-find rewrite targets heal-round cost of
O(participants · α + #actual-ID-changers) instead of O(component size);
this file measures it directly as **ns per deletion+heal round** at
n ∈ {1k, 4k, 16k} for the fast path (dash, sdash) and the BFS slow path
(graph-heal, whose cyclic G′ takes the traversal branch every round, and
therefore stays O(affected region) by design — it is measured over a
bounded deletion prefix).

Every measurement is persisted to ``results/BENCH_core.json`` (plus the
usual text table under ``results/``), so the perf trajectory of the core
is tracked from this PR onward. The two acceptance workloads —
``campaign_dash_pa4000_m3`` (full kill, target ≥5× over the pre-rewrite
seed's ~2.1s) and ``campaign_dash_pa50000_m3`` (target <60s; FULL mode
only) — are recorded here too.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import FULL, RESULTS_DIR
from repro.adversary.classic import RandomAttack
from repro.core.registry import make_healer
from repro.graph.generators import preferential_attachment
from repro.sim.engine import run_campaign
from repro.utils.tables import format_table
from repro.utils.timing import Timer

#: (healer, n, max_deletions or None for full kill); 16k is FULL-only.
QUICK_WORKLOADS = [
    ("dash", 1_000, None),
    ("dash", 4_000, None),
    ("sdash", 1_000, None),
    ("sdash", 4_000, None),
    ("graph-heal", 1_000, 300),
    ("graph-heal", 4_000, 300),
]
FULL_WORKLOADS = [
    ("dash", 16_000, None),
    ("sdash", 16_000, None),
    ("graph-heal", 16_000, 300),
]


def _measure(
    healer_name: str,
    n: int,
    max_deletions: int | None,
    *,
    keep_network: bool = False,
):
    g = preferential_attachment(n, 3, seed=1)
    healer = make_healer(healer_name)
    with Timer() as t:
        res = run_campaign(
            g,
            healer,
            RandomAttack(seed=2),
            id_seed=0,
            max_deletions=max_deletions,
            keep_network=keep_network,
        )
    return t.elapsed, res.deletions


def test_heal_round_cost(bench_recorder):
    """ns/op per heal round across healer × n; persists table + JSON."""
    workloads = QUICK_WORKLOADS + (FULL_WORKLOADS if FULL else [])
    rows = []
    for healer_name, n, max_deletions in workloads:
        seconds, rounds = _measure(healer_name, n, max_deletions)
        entry = bench_recorder.record(
            f"heal_round_{healer_name}_n{n}",
            seconds=seconds,
            rounds=rounds,
            healer=healer_name,
            n=n,
            topology="preferential-attachment-m3",
            adversary="random",
        )
        rows.append(
            [healer_name, n, rounds, entry["ns_per_round"], seconds]
        )
        assert rounds > 0

    table = format_table(
        ["healer", "n", "rounds", "ns/round", "total s"],
        rows,
        title="component-tracker micro: heal-round cost",
    )
    print()
    print(table)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "micro_tracker.txt").write_text(table + "\n")


def test_campaign_dash_pa4000(bench_recorder):
    """Acceptance workload: full-kill DASH on PA n=4000 (m=3), measured
    **like-for-like against the preserved seed tracker** (the verbatim
    pre-rewrite implementation in ``tests/core/_seed_tracker.py``,
    swapped in exactly as the differential tests do) interleaved in the
    same process — so the recorded speedup is a real ratio, robust to
    shared-runner load. Measured ~8× at n=4k; the assert (and the CI
    perf gate reading the recorded ``speedup_vs_seed_tracker``) demands
    ≥2×, generous slack that still catches any slide back toward the
    O(component-size) seed.
    """
    import repro.core.network as network_module

    from tests.core._seed_tracker import ComponentTracker as SeedTracker

    union_find_tracker = network_module.ComponentTracker

    def run() -> float:
        # A kept network keeps the campaign on the generic loop: the
        # fused kernel runs its own union-find and builds no tracker,
        # so it would time neither side.
        seconds, rounds = _measure("dash", 4_000, None, keep_network=True)
        assert rounds == 4_000
        return seconds

    indexed = seed = float("inf")
    try:
        for _ in range(2):  # interleaved: both sides see the same conditions
            network_module.ComponentTracker = SeedTracker
            seed = min(seed, run())
            network_module.ComponentTracker = union_find_tracker
            indexed = min(indexed, run())
    finally:
        network_module.ComponentTracker = union_find_tracker
    speedup = seed / indexed
    bench_recorder.record(
        "campaign_dash_pa4000_m3",
        seconds=indexed,
        rounds=4_000,
        healer="dash",
        n=4_000,
        topology="preferential-attachment-m3",
        adversary="random",
        seed_tracker_seconds=round(seed, 6),
        speedup_vs_seed_tracker=round(speedup, 2),
        seed_baseline_seconds=2.1,
    )
    assert speedup > 2.0, (
        f"n=4000 campaign only {speedup:.2f}x over the preserved seed "
        "tracker (measured ~8x at rewrite time) — the union-find fast "
        "path has regressed toward O(component size)"
    )


@pytest.mark.skipif(not FULL, reason="REPRO_BENCH_FULL=1 only")
def test_campaign_dash_pa50000(bench_recorder):
    """Acceptance workload: full-kill DASH on PA n=50,000 under 60s."""
    seconds, rounds = _measure("dash", 50_000, None)
    bench_recorder.record(
        "campaign_dash_pa50000_m3",
        seconds=seconds,
        rounds=rounds,
        healer="dash",
        n=50_000,
        topology="preferential-attachment-m3",
        adversary="random",
        budget_seconds=60,
    )
    assert rounds == 50_000
    assert seconds < 60, f"n=50,000 campaign took {seconds:.1f}s (budget 60s)"
