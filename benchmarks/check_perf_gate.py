#!/usr/bin/env python
"""CI perf-regression gate over ``results/BENCH_core.json``.

The quick benchmarks record *like-for-like* speedups — both sides of
each ratio measured interleaved in the same process, so they are robust
to shared-runner load in a way raw wall-clock floors are not. This
script re-checks every recorded ratio against its floor after the quick
bench job and fails the build if any hard-won speedup has slid back:

* tracker (PR 1): interleaved full-kill DASH campaign vs the preserved
  seed tracker — ≥ 2×;
* targeted attacks (PR 2): interleaved NMS campaign vs the preserved
  scan adversary — ≥ 2.5×;
* wave healing (PR 3): interleaved √n-wave campaign vs the preserved
  traversal path — ≥ 2×;
* naive healing (PR 5): interleaved full-kill GraphHeal campaign under
  lazy label invalidation vs the preserved eager BFS path — ≥ 2×;
* slot store (PR 7): interleaved full-kill DASH campaign on the slot
  store (fused scalar kernel) vs a copy of the graph on the dict-of-sets
  reference graph kept in ``tests/graph/_reference_graph.py`` — ≥ 5×;
* slot-store churn (PR 10): interleaved session-expiry churn drain on
  the slot store (delete-only churn rounds fuse) vs the reference graph
  — ≥ 2×;
* crash safety (PR 6): recorder-hook share of a checkpointed √n-wave
  campaign at ``checkpoint_every=256`` (a full snapshot every 256
  rounds) — ≤ 5% overhead (a ceiling, not a floor: this one guards the
  *cost* of running crash-safe);
* campaign service (PR 8): submit→first-streamed-round latency through
  the full service stack (validate, persist, dispatch, spawn a worker
  subprocess, tail the ledger) — ≤ 2 s, another ceiling;
* service status on a long ledger: ``status()`` on a queued job whose
  200,000-round ledger the service has already read once, after one
  more round lands — ≤ 0.02 s (re-parsing the whole ~16 MB ledger on
  every call read 0.30–0.41 s; the job's incremental reader parses
  only the new round);
* observed campaigns: a full-kill DASH × NMS campaign at n=4000 under
  ``default_metrics()`` plus a connectivity check every round, against
  the same campaign without the check — ≤ 1.5× (a BFS every round read
  14.4×; the local certificate leaves one BFS per campaign);
* churn set-up: ``SelfHealingNetwork(...)`` plus ``ChurnAdversary.reset``
  on an n=50,000 array graph, against generating that graph — ≤ 0.35×
  (an empty G′ set per node, an eager δ index and a dict-of-lists
  expiry schedule read 0.77×).

A missing workload is a failure too: the gate must never pass because a
benchmark silently stopped recording.

Usage: ``python benchmarks/check_perf_gate.py [path/to/BENCH_core.json]``
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DEFAULT_JSON = (
    Path(__file__).resolve().parent.parent / "results" / "BENCH_core.json"
)

#: (workload, how to compute the speedup from its entry, floor)
#: Floors are minimums: the measured ratio must stay >= the bound.
GATES = [
    (
        "campaign_dash_pa4000_m3",
        lambda e: e["speedup_vs_seed_tracker"],
        2.0,
        "union-find tracker vs preserved seed tracker (PR 1)",
    ),
    (
        "campaign_nms_pa4000_m3",
        lambda e: e["speedup_vs_scan"],
        2.5,
        "indexed NMS adversary vs preserved scan adversary (PR 2)",
    ),
    (
        "campaign_wave_dash_pa4000_m3",
        lambda e: e["speedup_vs_traversal"],
        2.0,
        "wave quotient fast path vs preserved traversal path (PR 3)",
    ),
    (
        "campaign_graphheal_pa4000_m3",
        lambda e: e["speedup_vs_eager"],
        2.0,
        "lazy-label naive healing vs preserved eager BFS path (PR 5)",
    ),
    (
        "campaign_dash_array_pa16000_m3",
        lambda e: e["speedup_vs_object"],
        5.0,
        "slot store + fused kernel vs the dict-of-sets reference graph "
        "(PR 7)",
    ),
    (
        "campaign_churn_array_pa16000_m3",
        lambda e: e["speedup_vs_object"],
        2.0,
        "slot-store churn drain (fused delete-only rounds) vs the "
        "reference graph (PR 10)",
    ),
]

#: (workload, how to compute the cost from its entry, ceiling, unit)
#: Ceilings are maximums: the measured cost must stay <= the bound.
CEILINGS = [
    (
        "campaign_checkpoint_overhead_pa4096_m3",
        lambda e: e["overhead_pct"],
        5.0,
        "%",
        "crash-safe campaign overhead at checkpoint_every=256 (PR 6)",
    ),
    (
        "service_submit_first_round",
        lambda e: e["seconds"],
        2.0,
        "s",
        "campaign service submit→first-streamed-round latency (PR 8)",
    ),
    (
        "service_status_long_ledger",
        lambda e: e["seconds"],
        0.02,
        "s",
        "campaign service status() on a 200,000-round ledger after its "
        "first read",
    ),
    (
        "campaign_churn_pa4000_m3",
        lambda e: e["per_op_ratio_vs_delete"],
        3.0,
        "x",
        "churn mixed-round per-op cost vs pure deletions (PR 9)",
    ),
    (
        "campaign_connectivity_nms_pa4000_m3",
        lambda e: e["ratio_vs_unobserved"],
        1.5,
        "x",
        "observed campaign with a connectivity check every round vs "
        "without",
    ),
    (
        "campaign_setup_churn_array_pa50000_m3",
        lambda e: e["ratio_vs_generate"],
        0.35,
        "x",
        "churn campaign set-up (network + adversary reset) vs graph "
        "generation",
    ),
]


def main(argv: list[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_JSON
    try:
        workloads = json.loads(path.read_text())["workloads"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"perf gate: cannot read {path}: {exc}", file=sys.stderr)
        return 2

    failures = []
    for name, speedup_of, floor, what in GATES:
        entry = workloads.get(name)
        if entry is None:
            failures.append(
                f"{name}: workload missing from {path.name} ({what})"
            )
            continue
        try:
            speedup = speedup_of(entry)
        except KeyError as exc:
            failures.append(f"{name}: entry lacks {exc} ({what})")
            continue
        status = "ok" if speedup >= floor else "FAIL"
        print(f"{status:4s} {name}: {speedup:.2f}x (floor {floor}x) — {what}")
        if speedup < floor:
            failures.append(
                f"{name}: {speedup:.2f}x below the {floor}x floor ({what})"
            )

    for name, cost_of, ceiling, unit, what in CEILINGS:
        entry = workloads.get(name)
        if entry is None:
            failures.append(
                f"{name}: workload missing from {path.name} ({what})"
            )
            continue
        try:
            cost = cost_of(entry)
        except KeyError as exc:
            failures.append(f"{name}: entry lacks {exc} ({what})")
            continue
        status = "ok" if cost <= ceiling else "FAIL"
        print(
            f"{status:4s} {name}: {cost:.2f}{unit} "
            f"(ceiling {ceiling}{unit}) — {what}"
        )
        if cost > ceiling:
            failures.append(
                f"{name}: {cost:.2f}{unit} above the "
                f"{ceiling}{unit} ceiling ({what})"
            )

    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
