"""Naive-healer campaign benchmarks (the unsafe quotient merge).

PR 1 made component-safe healing O(α), PR 2 indexed the attack side,
PR 3 generalized the quotient merge to waves — but the paper's baseline
comparison class (GraphHeal, DeltaOrderedGraphHeal, NoHeal;
``component_safe=False``) still paid an honest BFS over the affected
region every round, the last quadratic path in the codebase. Saia &
Trehan's own experiments lean on exactly these baselines (Figures 8–10),
so baseline sweeps should scale like DASH sweeps. The tracker routes
naive rounds through the unsafe quotient merge (falling back to the BFS
only when a plan leaves shattered pieces unrepresented — never, for the
registered naive healers), so a full-kill GraphHeal campaign performs
zero traversals.

This file measures full-kill **random-attack GraphHeal campaigns**
(preferential attachment m=3) per n against the preserved eager path
(the reference tracker in ``tests/core/_eager_tracker.py``, which
settles every non-component-safe round by the BFS) — interleaved in the
same process, so recorded speedups are real ratios — plus one row per
remaining naive healer.

Acceptance workloads:

* ``campaign_graphheal_pa4000_m3`` — n=4,000 full kill, fast vs. eager
  interleaved best-of-3; the in-test assert demands ≥2× (measured ~15×
  at rewrite time) and the CI perf gate enforces the same floor on the
  recorded JSON.
* ``naive_graph-heal_pa100000_m3`` — n=100,000 full kill under 60 s
  single-process (FULL mode only).

Every measurement persists to ``results/BENCH_core.json``
(merge-on-write) plus a text table under ``results/``.
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
from tests.core._eager_tracker import eager_tracker

#: (n, also measure the eager path); 16k is FULL-only.
QUICK_WORKLOADS = [(500, True), (1_000, True), (2_000, True), (4_000, True)]
FULL_WORKLOADS = [(16_000, True)]


def _run_naive_campaign(
    n: int, *, healer: str = "graph-heal", fast: bool, seed: int = 2
) -> tuple[float, "object"]:
    """One full-kill random-attack naive campaign, on the eager reference
    tracker unless ``fast``; graph gen excluded."""
    g = preferential_attachment(n, 3, seed=1)
    adversary = RandomAttack(seed=seed)
    with eager_tracker(not fast), Timer() as t:
        res = run_campaign(
            g,
            make_healer(healer),
            adversary,
            id_seed=0,
            keep_network=True,
        )
    assert res.final_alive == 0
    assert res.deletions == n
    tracker = res.network.tracker
    if fast:
        # The whole point: every naive round is one quotient merge.
        assert tracker.fast_rounds == n
        assert tracker.slow_rounds == 0
    else:
        assert tracker.slow_rounds == n
    return t.elapsed, res


def test_naive_campaign_cost(bench_recorder):
    """Full-kill GraphHeal campaign wall time per n, fast vs. eager;
    persists table + JSON (the ROADMAP scaling table's source)."""
    workloads = QUICK_WORKLOADS + (FULL_WORKLOADS if FULL else [])
    rows = []
    for n, measure_slow in workloads:
        fast_s, res = _run_naive_campaign(n, fast=True)
        extra = {"fast_rounds": res.network.tracker.fast_rounds}
        slow_s = None
        if measure_slow:
            slow_s, _ = _run_naive_campaign(n, fast=False)
            extra["eager_seconds"] = round(slow_s, 6)
            extra["speedup_vs_eager"] = round(slow_s / fast_s, 2)
        bench_recorder.record(
            f"naive_graph-heal_pa{n}_m3",
            seconds=fast_s,
            rounds=n,
            adversary="random",
            healer="graph-heal",
            n=n,
            topology="preferential-attachment-m3",
            **extra,
        )
        rows.append(
            [
                n,
                round(fast_s, 3),
                round(slow_s, 3) if slow_s is not None else "—",
                extra.get("speedup_vs_eager", "—"),
            ]
        )

    table = format_table(
        ["n", "fast s", "eager s", "speedup"],
        rows,
        title=(
            "naive campaigns: full-kill cost "
            "(GraphHeal, PA m=3, random attack)"
        ),
    )
    print()
    print(table)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "naive_healers.txt").write_text(table + "\n")


def test_campaign_graphheal_pa4000(bench_recorder):
    """Acceptance workload: full-kill GraphHeal campaign on PA n=4000
    (m=3), the quotient merge vs. the preserved eager path **interleaved in the
    same process** (best-of-3), so the recorded speedup is a real
    like-for-like ratio. Measured ~15× at rewrite time; the assert
    demands ≥2× — generous slack for shared CI runners while still
    catching any slide back toward the per-round-BFS regime. The CI perf
    gate (benchmarks/check_perf_gate.py) enforces the same floor on the
    JSON this records.
    """
    fast = slow = float("inf")
    for rep in range(3):  # interleaved: both sides see the same conditions
        slow_s, _ = _run_naive_campaign(4_000, fast=False)
        fast_s, _ = _run_naive_campaign(4_000, fast=True)
        slow = min(slow, slow_s)
        fast = min(fast, fast_s)
    speedup = slow / fast
    bench_recorder.record(
        "campaign_graphheal_pa4000_m3",
        seconds=fast,
        rounds=4_000,
        adversary="random",
        healer="graph-heal",
        n=4_000,
        topology="preferential-attachment-m3",
        eager_seconds=round(slow, 6),
        speedup_vs_eager=round(speedup, 2),
    )
    print(
        f"\ngraph-heal pa4000 acceptance: eager {slow:.3f}s vs fast "
        f"{fast:.3f}s ({speedup:.2f}x)"
    )
    assert speedup > 2.0, (
        f"n=4000 GraphHeal campaign only {speedup:.2f}x over the eager "
        "path (measured ~15x at rewrite time) — the unsafe quotient path "
        "has regressed toward per-round BFS"
    )


@pytest.mark.parametrize(
    "healer", ["graph-heal-delta", "none"], ids=["delta-ordered", "no-heal"]
)
def test_other_naive_healers(bench_recorder, healer):
    """The remaining baselines ride the same path; one quick row each."""
    n = 2_000
    fast_s, res = _run_naive_campaign(n, healer=healer, fast=True)
    bench_recorder.record(
        f"naive_{healer}_pa{n}_m3",
        seconds=fast_s,
        rounds=n,
        adversary="random",
        healer=healer,
        n=n,
        topology="preferential-attachment-m3",
        fast_rounds=res.network.tracker.fast_rounds,
    )
    print(f"\n{healer} pa{n}: {fast_s:.3f}s")


@pytest.mark.skipif(not FULL, reason="REPRO_BENCH_FULL=1 only")
def test_campaign_graphheal_pa100000(bench_recorder):
    """Acceptance workload: n=100,000 GraphHeal full kill under 60s —
    baseline sweeps at n=10⁵ now cost what DASH sweeps cost."""
    seconds, res = _run_naive_campaign(100_000, fast=True)
    bench_recorder.record(
        "naive_graph-heal_pa100000_m3",
        seconds=seconds,
        rounds=100_000,
        adversary="random",
        healer="graph-heal",
        n=100_000,
        topology="preferential-attachment-m3",
        budget_seconds=60,
        fast_rounds=res.network.tracker.fast_rounds,
    )
    assert seconds < 60, (
        f"n=100,000 GraphHeal campaign took {seconds:.1f}s (budget 60s)"
    )
