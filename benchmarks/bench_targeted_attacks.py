"""Targeted-adversary campaign benchmarks (the former O(n²) attack side).

PR 1 made the healing core O(α) per round; the targeted adversaries
(max-node, NMS, min-degree, max-δ-neighbor) then dominated full-kill
campaigns with their per-round O(n) victim scans. This file measures the
indexed rewrite — the degree- and δ-bucket indexes on
:class:`~repro.core.network.SelfHealingNetwork`, and the incremental
sorted-neighbor cache in the sampling attacks — as
**full-kill campaign wall time** per adversary × n, against the recorded
pre-rewrite scan baselines (same machine, commit c16ab12: the
``seed_baseline_seconds`` extras). Those frozen constants make the
per-row ``speedup_vs_seed`` figures sensitive to ambient machine load;
the like-for-like number is ``campaign_nms_pa4000_m3`` below, which
re-measures the preserved scan adversary interleaved with the indexed
one in the same process.

Acceptance workloads:

* ``attack_neighbor-of-max_pa4000_m3`` — the paper's Figure 8/9 NMS
  strategy, full kill at n=4,000; ≥5× over the scanning seed (measured
  5.1× at rewrite time; the in-test assert only guards against sliding
  back toward seed-level cost, since shared CI runners are too noisy for
  a hard multiple).
* ``attack_neighbor-of-max_pa100000_m3`` — n=100,000 full kill in under
  60 s single-process (FULL mode only), the ROADMAP's "unlock n≥10⁵
  targeted-attack sweeps" claim made executable.
* ``campaign_connectivity_nms_pa4000_m3`` — the same n=4,000 NMS full
  kill observed by ``default_metrics()`` with and without a connectivity
  check every round; the perf gate caps the ratio at 1.5×.

Every measurement persists to ``results/BENCH_core.json`` (merge-on-write)
plus a text table under ``results/``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import FULL, RESULTS_DIR
from repro.adversary.classic import (
    MaxDeltaNeighborAttack,
    MaxNodeAttack,
    MinDegreeAttack,
    NeighborOfMaxAttack,
)
from repro.core.registry import make_healer
from repro.graph.generators import preferential_attachment
from repro.sim.engine import run_campaign
from repro.sim.metrics import ConnectivityMetric, default_metrics
from repro.utils.tables import format_table
from repro.utils.timing import Timer

ADVERSARIES = {
    "max-node": lambda: MaxNodeAttack(),
    "neighbor-of-max": lambda: NeighborOfMaxAttack(seed=2),
    "min-degree": lambda: MinDegreeAttack(),
    "neighbor-of-max-delta": lambda: MaxDeltaNeighborAttack(seed=2),
}

#: pre-rewrite scan-adversary wall times (s), full-kill DASH campaigns on
#: preferential attachment m=3, measured on the recording machine at the
#: commit before this rewrite — the "seed" column of the ROADMAP table.
SEED_BASELINE_S = {
    ("max-node", 1_000): 0.135,
    ("max-node", 4_000): 1.358,
    ("neighbor-of-max", 500): 0.048,
    ("neighbor-of-max", 1_000): 0.129,
    ("neighbor-of-max", 2_000): 0.437,
    ("neighbor-of-max", 4_000): 1.493,
    ("min-degree", 1_000): 0.108,
    ("min-degree", 4_000): 1.287,
    ("neighbor-of-max-delta", 1_000): 0.174,
    ("neighbor-of-max-delta", 4_000): 2.235,
}

QUICK_WORKLOADS = [
    ("max-node", 1_000),
    ("max-node", 4_000),
    ("neighbor-of-max", 500),
    ("neighbor-of-max", 1_000),
    ("neighbor-of-max", 2_000),
    ("neighbor-of-max", 4_000),
    ("min-degree", 4_000),
    ("neighbor-of-max-delta", 4_000),
]
FULL_WORKLOADS = [
    ("max-node", 16_000),
    ("neighbor-of-max", 16_000),
    ("min-degree", 16_000),
    ("neighbor-of-max-delta", 16_000),
]


def _measure(
    adversary_name: str, n: int, repeats: int = 1
) -> tuple[float, int]:
    """Best-of-``repeats`` full-kill campaign wall time (graph generation
    excluded). Best-of-N is the standard way to strip scheduler noise
    from a deterministic workload."""
    best = float("inf")
    rounds = 0
    for _ in range(repeats):
        g = preferential_attachment(n, 3, seed=1)
        healer = make_healer("dash")
        adversary = ADVERSARIES[adversary_name]()
        with Timer() as t:
            res = run_campaign(g, healer, adversary, id_seed=0)
        assert res.final_alive == 0
        best = min(best, t.elapsed)
        rounds = res.deletions
    return best, rounds


def test_targeted_campaign_cost(bench_recorder):
    """Full-kill campaign wall time per adversary × n; persists table+JSON."""
    workloads = QUICK_WORKLOADS + (FULL_WORKLOADS if FULL else [])
    rows = []
    for adversary_name, n in workloads:
        seconds, rounds = _measure(adversary_name, n)
        extra = {}
        baseline = SEED_BASELINE_S.get((adversary_name, n))
        if baseline is not None:
            extra["seed_baseline_seconds"] = baseline
            extra["speedup_vs_seed"] = round(baseline / seconds, 2)
        bench_recorder.record(
            f"attack_{adversary_name}_pa{n}_m3",
            seconds=seconds,
            rounds=rounds,
            adversary=adversary_name,
            healer="dash",
            n=n,
            topology="preferential-attachment-m3",
            **extra,
        )
        rows.append(
            [
                adversary_name,
                n,
                round(seconds, 3),
                baseline if baseline is not None else "—",
                extra.get("speedup_vs_seed", "—"),
            ]
        )
        assert rounds == n

    table = format_table(
        ["adversary", "n", "indexed s", "seed scan s", "speedup"],
        rows,
        title="targeted adversaries: full-kill campaign cost (DASH, PA m=3)",
    )
    print()
    print(table)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "targeted_attacks.txt").write_text(table + "\n")


def test_campaign_nms_pa4000(bench_recorder):
    """Acceptance workload: full-kill NMS on PA n=4000 (m=3), measured
    **like-for-like against the preserved scan adversary** on the same
    machine in the same process (interleaved best-of-3), so the recorded
    speedup is a real ratio, not a comparison against a constant taken
    under different load. Measured 5.2× at rewrite time; the assert
    demands ≥2.5× — generous slack for shared CI runners while still
    catching any slide back toward the O(n²) scanning seed.
    """
    from tests.adversary._scan_adversaries import ScanNeighborOfMaxAttack

    def run(adversary) -> float:
        g = preferential_attachment(4_000, 3, seed=1)
        with Timer() as t:
            res = run_campaign(g, make_healer("dash"), adversary, id_seed=0)
        assert res.deletions == 4_000
        return t.elapsed

    indexed = scan = float("inf")
    for _ in range(3):  # interleaved: both sides see the same conditions
        scan = min(scan, run(ScanNeighborOfMaxAttack(seed=2)))
        indexed = min(indexed, run(NeighborOfMaxAttack(seed=2)))
    speedup = scan / indexed
    bench_recorder.record(
        "campaign_nms_pa4000_m3",
        seconds=indexed,
        rounds=4_000,
        adversary="neighbor-of-max",
        healer="dash",
        n=4_000,
        topology="preferential-attachment-m3",
        scan_seconds=round(scan, 6),
        speedup_vs_scan=round(speedup, 2),
        seed_baseline_seconds=SEED_BASELINE_S[("neighbor-of-max", 4_000)],
    )
    print(
        f"\nNMS pa4000 acceptance: scan {scan:.3f}s vs indexed "
        f"{indexed:.3f}s ({speedup:.2f}x)"
    )
    assert speedup > 2.5, (
        f"n=4000 NMS campaign only {speedup:.2f}x over the scanning "
        "adversary (measured 5.2x at rewrite time) — the degree-bucket "
        "index has regressed toward O(n²)"
    )


def test_observed_campaign_connectivity_cost(bench_recorder):
    """Ceiling workload: what the connectivity check adds to an observed
    campaign. Full-kill DASH × NMS on PA n=4000 (m=3) under
    ``default_metrics()``, with and without ``ConnectivityMetric()``
    checking every round, interleaved best-of-3. The check costs one
    BFS per campaign while every heal passes its local certificate; a
    BFS every round made the observed campaign 14.4× slower.
    ``check_perf_gate.py`` caps the ratio at 1.5×.
    """

    def run(observed: bool) -> float:
        g = preferential_attachment(4_000, 3, seed=1)
        metrics = default_metrics()
        if observed:
            metrics.append(ConnectivityMetric())
        with Timer() as t:
            res = run_campaign(
                g,
                make_healer("dash"),
                NeighborOfMaxAttack(seed=2),
                id_seed=0,
                metrics=metrics,
            )
        assert res.deletions == 4_000
        assert not observed or res["always_connected"] == 1.0
        return t.elapsed

    plain = observed = float("inf")
    for _ in range(3):  # interleaved: both sides see the same conditions
        plain = min(plain, run(False))
        observed = min(observed, run(True))
    ratio = observed / plain
    bench_recorder.record(
        "campaign_connectivity_nms_pa4000_m3",
        seconds=observed,
        rounds=4_000,
        adversary="neighbor-of-max",
        healer="dash",
        n=4_000,
        topology="preferential-attachment-m3",
        unobserved_seconds=round(plain, 6),
        ratio_vs_unobserved=round(ratio, 3),
    )
    print(
        f"\nNMS pa4000 connectivity check: {plain:.3f}s without vs "
        f"{observed:.3f}s with ({ratio:.2f}x)"
    )


@pytest.mark.skipif(not FULL, reason="REPRO_BENCH_FULL=1 only")
def test_campaign_nms_pa100000(bench_recorder):
    """Acceptance workload: full-kill NMS on PA n=100,000 under 60s."""
    seconds, rounds = _measure("neighbor-of-max", 100_000)
    bench_recorder.record(
        "attack_neighbor-of-max_pa100000_m3",
        seconds=seconds,
        rounds=rounds,
        adversary="neighbor-of-max",
        healer="dash",
        n=100_000,
        topology="preferential-attachment-m3",
        budget_seconds=60,
    )
    assert rounds == 100_000
    assert seconds < 60, (
        f"n=100,000 NMS campaign took {seconds:.1f}s (budget 60s)"
    )
