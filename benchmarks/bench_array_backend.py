"""Slot-store campaign benchmarks (the n=10⁶ tentpole).

PRs 1–5 took the healing core to O(α) per round, but the *storage* was
still the dict-of-sets graph plus four tracker dicts — boxed keys, hash
probes, and per-node allocation made n=10⁵ the practical sweep ceiling.
The slot store (the one :class:`~repro.graph.graph.Graph`, once the
"array backend") keeps the same interface on flat slot arrays, and the
fused scalar-only kernel (``repro.sim.fastpath``) runs unobserved DASH
× random-attack campaigns without paying for events, member lists, or
index upkeep nobody reads. The dict-of-sets graph survives as the test
reference ``tests/graph/_reference_graph.py``, which the generic loop
runs (the kernel takes only the slot store).

Acceptance workloads:

* ``campaign_dash_array_pa16000_m3`` — n=16,000 full kill, slot store +
  fused kernel vs a reference copy of the same graph on the generic
  loop, **interleaved in the same process** (best-of-3), so the recorded
  speedup is a real like-for-like ratio. Measured ~6.3× at introduction;
  the in-test assert and the CI perf gate both demand ≥5×.
* ``campaign_dash_array_pa1000000_m3`` — n=1,000,000 full kill under
  300 s with peak-RSS memory-per-node recorded (FULL mode only;
  measured ~65 s and ~1.7 KB/node at introduction).

Every measurement persists to ``results/BENCH_core.json``
(merge-on-write).
"""

from __future__ import annotations

import resource

import pytest

from benchmarks.conftest import FULL
from repro.adversary.classic import RandomAttack
from repro.core.registry import make_healer
from repro.graph.generators import preferential_attachment
from repro.sim import fastpath
from repro.sim.engine import run_campaign
from repro.utils.timing import Timer
from tests.graph._reference_graph import reference_copy


def _run_dash_campaign(n: int, *, reference: bool) -> tuple[float, "object"]:
    """One full-kill random-attack DASH campaign on the generated graph,
    or on a reference copy of it; generation and copy excluded."""
    g = preferential_attachment(n, 3, seed=1)
    if reference:
        g = reference_copy(g)
    with Timer() as t:
        res = run_campaign(
            g, make_healer("dash"), RandomAttack(seed=2), id_seed=0
        )
    assert res.final_alive == 0
    assert res.deletions == n
    return t.elapsed, res


def test_campaign_dash_array_pa16000(bench_recorder):
    """Acceptance workload: full-kill DASH on PA n=16,000 (m=3), slot
    store (fused kernel) vs the dict-of-sets reference graph (generic
    loop) interleaved best-of-3. The two sides are byte-identical in
    outcome (asserted here on the scalars; the full differential lives
    in the test suites), so the ratio is pure storage+kernel win."""
    fused_before = fastpath._fused_campaigns
    obj_s = arr_s = float("inf")
    for _ in range(3):  # interleaved: both sides see the same conditions
        o, obj_res = _run_dash_campaign(16_000, reference=True)
        a, arr_res = _run_dash_campaign(16_000, reference=False)
        obj_s = min(obj_s, o)
        arr_s = min(arr_s, a)
        assert (arr_res.deletions, arr_res.final_alive, arr_res.peak_delta) \
            == (obj_res.deletions, obj_res.final_alive, obj_res.peak_delta)
    assert fastpath._fused_campaigns == fused_before + 3
    speedup = obj_s / arr_s
    bench_recorder.record(
        "campaign_dash_array_pa16000_m3",
        seconds=arr_s,
        rounds=16_000,
        adversary="random",
        healer="dash",
        n=16_000,
        topology="preferential-attachment-m3",
        backend="array",
        object_seconds=round(obj_s, 6),
        speedup_vs_object=round(speedup, 2),
    )
    print(
        f"\ndash pa16000 acceptance: reference {obj_s:.3f}s vs slot "
        f"store+fused {arr_s:.3f}s ({speedup:.2f}x)"
    )
    assert speedup > 5.0, (
        f"n=16000 slot-store DASH campaign only {speedup:.2f}x over "
        "the reference graph (measured ~6.3x at introduction) — the slot "
        "store or the fused kernel has regressed"
    )


@pytest.mark.skipif(not FULL, reason="REPRO_BENCH_FULL=1 only")
def test_campaign_dash_array_pa1000000(bench_recorder):
    """Acceptance workload: n=1,000,000 full-kill DASH under 300 s,
    memory-per-node recorded — the scale the dict-of-sets graph could
    not reach (its campaign alone projects to ~2 hours)."""
    n = 1_000_000
    with Timer() as gen_t:
        g = preferential_attachment(n, 3, seed=1)
    with Timer() as t:
        res = run_campaign(
            g, make_healer("dash"), RandomAttack(seed=2), id_seed=0
        )
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert res.final_alive == 0
    assert res.deletions == n
    bench_recorder.record(
        "campaign_dash_array_pa1000000_m3",
        seconds=t.elapsed,
        rounds=n,
        adversary="random",
        healer="dash",
        n=n,
        topology="preferential-attachment-m3",
        backend="array",
        budget_seconds=300,
        gen_seconds=round(gen_t.elapsed, 3),
        peak_delta=res.peak_delta,
        peak_rss_mb=round(peak_rss_kb / 1024, 1),
        bytes_per_node=round(peak_rss_kb * 1024 / n, 1),
    )
    print(
        f"\ndash pa1000000: gen {gen_t.elapsed:.1f}s, campaign "
        f"{t.elapsed:.1f}s, peak rss {peak_rss_kb / 1024:.0f} MB "
        f"({peak_rss_kb * 1024 / n:.0f} B/node), peak δ {res.peak_delta}"
    )
    assert t.elapsed < 300, (
        f"n=1e6 full-kill DASH took {t.elapsed:.0f}s — over the 300s "
        "budget (measured ~65s at introduction)"
    )
