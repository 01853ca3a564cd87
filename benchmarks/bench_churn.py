"""Churn-campaign benchmarks (PR 9's mixed insertion/deletion rounds).

A steady-state churn campaign holds the population near n: joins arrive
at ``rate`` per round, session lifetimes average ``n / rate`` rounds, so
deaths balance arrivals and the graph neither drains nor explodes —
every op is a real heal on an n-scale graph. The workload exercises the
whole churn stack: ``ChurnAdversary`` schedule generation, mixed-round
dispatch in the engine, ``insert_and_heal``'s δ-neutral baseline
bookkeeping, and the tracker's insertion quotient merge.

Acceptance workloads:

* ``campaign_churn_pa4000_m3`` — n=4,000 steady-state churn under
  Forgiving Graph vs. a pure-deletion full kill of the **same graph,
  same healer, interleaved in the same process** (best-of-3), normalized
  per-op. The recorded ratio is a real like-for-like comparison (measured
  ~1.0× at introduction — an insertion heals for what a deletion heals);
  the in-test assert and the CI perf gate both demand ≤ 3×, so mixed
  rounds can never silently grow a super-deletion cost.
* ``churn_forgiving-graph_pa100000_m3`` — n=100,000 steady-state churn
  (~200k ops) under 90 s single-process (FULL mode only; measured ~14 s
  at introduction).
* ``campaign_churn_array_pa16000_m3`` — n=16,000 session-expiry drain
  (churn with arrivals shut off) under DASH on the **slot store vs a
  reference copy of the same graph (the dict-of-sets graph in
  ``tests/graph/_reference_graph.py``), interleaved in the same
  process** (best-of-3). Delete-only churn rounds fuse on the slot
  store; the in-test assert and the CI perf gate both demand ≥ 2×
  (measured ~5× at introduction).
* ``churn_dash_array_pa1000000_m3`` — n=1,000,000 steady-state churn on
  the slot store (~330k mixed ops over n/24 rounds) under 300 s
  (FULL mode only) — the million-node fast-path substrate running a
  real insert-and-delete workload on grown slot maps.
* ``campaign_setup_churn_array_pa50000_m3`` — the set-up a steady-state
  churn campaign pays before its first op at n=50,000 on the slot
  store: ``SelfHealingNetwork(...)`` plus ``ChurnAdversary.reset``,
  divided by the time to generate the same graph (**interleaved**,
  best-of-3). Init needs IDs, initial degrees and an edgeless G′, so
  set-up must stay a fraction of generation; the CI perf gate demands
  ≤ 0.35× (an empty set per G′ slot, an eager δ index and a
  dict-of-lists expiry schedule read 0.77× here).

Every measurement persists to ``results/BENCH_core.json``
(merge-on-write) plus a text table under ``results/``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import FULL, RESULTS_DIR
from repro.adversary.classic import RandomAttack
from repro.churn.adversaries import ChurnAdversary
from repro.core.network import SelfHealingNetwork
from repro.core.registry import make_healer
from repro.graph.generators import preferential_attachment
from repro.sim.engine import run_campaign
from repro.utils.tables import format_table
from repro.utils.timing import Timer
from tests.graph._reference_graph import reference_copy

#: quick sizes (CI); 100k is FULL-only
QUICK_SIZES = [4_000, 16_000]

#: expected joins per round; lifetimes are scaled to n/rate so the
#: population stays pinned near n (steady state)
RATE = 4.0


def _run_churn_campaign(
    n: int,
    *,
    healer: str = "forgiving-graph",
    seed: int = 2,
    rounds: int | None = None,
) -> tuple[float, int, "object"]:
    """One steady-state churn campaign; graph generation excluded.
    Returns (seconds, total ops, result)."""
    g = preferential_attachment(n, 3, seed=1)
    adversary = ChurnAdversary(
        rate=RATE,
        lifetime="exp",
        mean=n / RATE,
        rounds=n // 4 if rounds is None else rounds,
        seed=seed,
    )
    with Timer() as t:
        res = run_campaign(
            g, make_healer(healer), adversary, id_seed=0, keep_network=True
        )
    ops = res.deletions + res.insertions
    assert res.insertions > 0 and res.deletions > 0
    assert res.network.tracker.insert_rounds == res.insertions
    return t.elapsed, ops, res


def _run_deletion_campaign(
    n: int, *, healer: str = "forgiving-graph", seed: int = 2
) -> tuple[float, int]:
    """The like-for-like control: the same healer on the same graph,
    every op a deletion (a full kill — n ops). The ratio normalizes
    per-op, so the two sides need not run the same op *count*.
    Returns (seconds, ops)."""
    g = preferential_attachment(n, 3, seed=1)
    with Timer() as t:
        res = run_campaign(
            g, make_healer(healer), RandomAttack(seed=seed), id_seed=0
        )
    assert res.deletions == n
    return t.elapsed, res.deletions


def test_churn_campaign_cost(bench_recorder):
    """Steady-state churn wall time per n under both churn healers;
    persists table + JSON (the ROADMAP churn table's throughput source).
    """
    rows = []
    for n in QUICK_SIZES:
        for healer in ("forgiving-graph", "forgiving-tree"):
            seconds, ops, res = _run_churn_campaign(n, healer=healer)
            bench_recorder.record(
                f"churn_{healer}_pa{n}_m3",
                seconds=seconds,
                rounds=n // 4,
                adversary="churn",
                healer=healer,
                n=n,
                topology="preferential-attachment-m3",
                ops=ops,
                insertions=res.insertions,
                deletions=res.deletions,
                ops_per_sec=round(ops / seconds, 2),
                peak_delta=res.peak_delta,
            )
            rows.append(
                [n, healer, ops, round(seconds, 3), round(ops / seconds)]
            )

    table = format_table(
        ["n", "healer", "ops", "seconds", "ops/s"],
        rows,
        title=(
            "steady-state churn campaigns "
            "(PA m=3, rate=4/round, mean lifetime n/4)"
        ),
    )
    print()
    print(table)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "churn_campaigns.txt").write_text(table + "\n")


def test_campaign_churn_pa4000(bench_recorder):
    """Acceptance workload: steady-state churn on PA n=4000 (m=3) under
    Forgiving Graph vs. a pure-deletion full kill of the same graph
    with the same healer, **interleaved in the same process**
    (best-of-3), normalized per-op. Measured ~1.0× at introduction; the
    assert and the CI perf gate allow ≤ 3× — generous slack for shared
    runners while still catching any slide toward a super-deletion
    insertion cost."""
    n = 4_000
    churn_s = delete_s = float("inf")
    churn_ops = delete_ops = None
    for _ in range(3):  # interleaved: both sides see the same conditions
        cs, cops, _ = _run_churn_campaign(n)
        ds, dops = _run_deletion_campaign(n)
        churn_s, churn_ops = min(churn_s, cs), cops
        delete_s, delete_ops = min(delete_s, ds), dops
    ratio = (churn_s / churn_ops) / (delete_s / delete_ops)
    bench_recorder.record(
        "campaign_churn_pa4000_m3",
        seconds=churn_s,
        rounds=n // 4,
        adversary="churn",
        healer="forgiving-graph",
        n=n,
        topology="preferential-attachment-m3",
        ops=churn_ops,
        delete_only_seconds=round(delete_s, 6),
        per_op_ratio_vs_delete=round(ratio, 2),
    )
    print(
        f"\nchurn pa4000 acceptance: churn {churn_s:.3f}s "
        f"({churn_ops} ops) vs delete-only {delete_s:.3f}s "
        f"({delete_ops} ops) — per-op ratio {ratio:.2f}x"
    )
    assert ratio <= 3.0, (
        f"churn ops cost {ratio:.2f}x a pure deletion (measured ~1.0x at "
        "introduction) — insertion rounds have grown a super-deletion "
        "cost somewhere in the mixed-round path"
    )


def _run_drain_campaign(n: int, *, reference: bool, seed: int = 2) -> float:
    """Session-expiry drain: the churn model with arrivals shut off
    (rate=0), so every initial node's lifetime expires and the campaign
    runs to extinction through the mixed-round dispatch. Delete-only
    churn rounds are exactly what the fused kernel accelerates on the
    slot store; ``reference`` runs a reference copy of the graph on the
    generic loop. Generation and copy excluded; returns seconds."""
    g = preferential_attachment(n, 3, seed=1)
    if reference:
        g = reference_copy(g)
    adversary = ChurnAdversary(
        rate=0.0, lifetime="exp", mean=n / 4, rounds=None, seed=seed
    )
    with Timer() as t:
        res = run_campaign(g, make_healer("dash"), adversary, id_seed=0)
    assert res.final_alive == 0 and res.deletions == n
    assert res.insertions == 0
    return t.elapsed


def test_campaign_churn_array_pa16000(bench_recorder):
    """Acceptance workload: the slot-store churn leg. A session-expiry
    drain (DASH, n=16,000) on the slot store vs a reference copy of the
    graph, **interleaved in the same process** (best-of-3). Delete-only
    churn rounds fuse on the slot store, so the recorded like-for-like
    speedup must hold ≥ 2× (measured ~5× at introduction); the CI perf
    gate enforces the same floor."""
    n = 16_000
    array_s = object_s = float("inf")
    for _ in range(3):  # interleaved: both sides see the same conditions
        object_s = min(object_s, _run_drain_campaign(n, reference=True))
        array_s = min(array_s, _run_drain_campaign(n, reference=False))
    speedup = object_s / array_s
    bench_recorder.record(
        "campaign_churn_array_pa16000_m3",
        seconds=array_s,
        rounds=n,
        adversary="churn",
        healer="dash",
        n=n,
        topology="preferential-attachment-m3",
        backend="array",
        object_seconds=round(object_s, 6),
        speedup_vs_object=round(speedup, 2),
    )
    print(
        f"\nchurn array pa16000: slot store {array_s:.3f}s vs reference "
        f"{object_s:.3f}s — {speedup:.2f}x"
    )
    assert speedup >= 2.0, (
        f"slot-store churn drain only {speedup:.2f}x over the reference "
        "(floor 2x) — the fused kernel is no longer engaging on "
        "delete-only churn rounds"
    )


def test_campaign_setup_churn_array_pa50000(bench_recorder):
    """Acceptance workload: churn campaign set-up against generation.
    Network construction plus the adversary's reset, over the time to
    generate the same PA graph, **interleaved in the same process**
    (best-of-3). The CI perf gate caps the ratio at 0.35×."""
    import gc

    n = 50_000
    gen_s = setup_s = float("inf")
    for _ in range(3):  # interleaved: both sides see the same conditions
        # Each timed region starts from a collected heap, so a
        # collection that earlier garbage would trigger does not land
        # in whichever region happens to run it.
        gc.collect()
        with Timer() as t:
            g = preferential_attachment(n, 3, seed=1)
        gen_s = min(gen_s, t.elapsed)
        adversary = ChurnAdversary(
            rate=RATE, lifetime="exp", mean=n / RATE, rounds=500, seed=2
        )
        gc.collect()
        with Timer() as t:
            network = SelfHealingNetwork(g, make_healer("dash"), seed=0)
            adversary.reset(network)
        setup_s = min(setup_s, t.elapsed)
        del g, network, adversary
    ratio = setup_s / gen_s
    bench_recorder.record(
        "campaign_setup_churn_array_pa50000_m3",
        seconds=setup_s,
        rounds=0,
        adversary="churn",
        healer="dash",
        n=n,
        topology="preferential-attachment-m3",
        backend="array",
        generate_seconds=round(gen_s, 6),
        ratio_vs_generate=round(ratio, 3),
    )
    print(
        f"\nchurn set-up pa50000: network + reset {setup_s:.3f}s vs "
        f"generation {gen_s:.3f}s — {ratio:.2f}x"
    )
    assert ratio <= 0.35, (
        f"churn set-up costs {ratio:.2f}x graph generation (ceiling "
        "0.35x) — Init or the adversary's reset builds more than the "
        "campaign has touched"
    )


@pytest.mark.skipif(not FULL, reason="REPRO_BENCH_FULL=1 only")
def test_campaign_churn_pa100000(bench_recorder):
    """Acceptance workload: n=100,000 steady-state churn (~200k mixed
    ops) under 90 s — churn campaigns scale like deletion campaigns."""
    seconds, ops, res = _run_churn_campaign(100_000)
    bench_recorder.record(
        "churn_forgiving-graph_pa100000_m3",
        seconds=seconds,
        rounds=100_000 // 4,
        adversary="churn",
        healer="forgiving-graph",
        n=100_000,
        topology="preferential-attachment-m3",
        ops=ops,
        insertions=res.insertions,
        deletions=res.deletions,
        ops_per_sec=round(ops / seconds, 2),
        budget_seconds=90,
    )
    assert seconds < 90, (
        f"n=100,000 churn campaign took {seconds:.1f}s (budget 90s)"
    )


@pytest.mark.skipif(not FULL, reason="REPRO_BENCH_FULL=1 only")
def test_campaign_churn_array_pa1000000(bench_recorder):
    """Acceptance workload: n=1,000,000 steady-state churn on the slot
    store under DASH, inside a 300 s budget — the scale the fail-fast
    guard used to wall off from churn entirely. ``_run_churn_campaign``
    keeps the network (``keep_network=True``) to read its tracker, so
    this runs the honest generic engine end to end on grown slot maps
    (~330k mixed ops over n/24 rounds), not the fused kernel."""
    n = 1_000_000
    seconds, ops, res = _run_churn_campaign(
        n, healer="dash", rounds=n // 24
    )
    bench_recorder.record(
        "churn_dash_array_pa1000000_m3",
        seconds=seconds,
        rounds=n // 24,
        adversary="churn",
        healer="dash",
        n=n,
        topology="preferential-attachment-m3",
        backend="array",
        ops=ops,
        insertions=res.insertions,
        deletions=res.deletions,
        ops_per_sec=round(ops / seconds, 2),
        budget_seconds=300,
    )
    print(
        f"\nchurn array pa1000000: {seconds:.1f}s, {ops} ops "
        f"({ops / seconds:.0f} ops/s), population "
        f"{res.initial_n}→{res.final_alive}"
    )
    assert seconds < 300, (
        f"n=1,000,000 array churn campaign took {seconds:.1f}s "
        "(budget 300s)"
    )
