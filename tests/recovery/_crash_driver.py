"""Subprocess driver for the genuine-SIGKILL recovery tests.

Run as a child process (never imported by pytest workers directly):

``python _crash_driver.py straight <healer> <adversary> <n> <seed>``
    Run the campaign uninterrupted, print the canonical result JSON.
``python _crash_driver.py run <healer> <adversary> <n> <seed> <state>``
    Run with checkpointing + ledger under ``<state>``. If
    ``REPRO_CRASH_AT_ROUND`` is set and the state dir's crash latch is
    unset, SIGKILL *this process* after that round completes — a real
    kill: no exception handlers, no atexit, no flushing beyond what the
    recorder already fsync'd. Prints result JSON if it survives.
``python _crash_driver.py resume <state>``
    Resume from the ledger, print the canonical result JSON.

The canonical JSON includes a SHA-256 over the checkpoint-codec
serialization of the full HealEvent stream, so the parent test compares
whole campaigns across process boundaries with one string equality.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from repro.recovery import resume_from_ledger
from repro.recovery.checkpoint import _encode_event
from repro.recovery.faults import crash_once, kill_self
from repro.registry import component_registries

REGISTRIES = component_registries()


class _KillAfterRound:
    """SIGKILL the process inside round ``crash_round + 1`` (rounds are
    counted by distinct event steps, same discipline as CrashAtRound).

    Killing one round *after* the target means round ``crash_round``'s
    ledger record and any due checkpoint are already fsync'd — the crash
    lands mid-round, the hardest spot to recover from.
    """

    checkpoint_exempt = True
    checkpointable = False

    def __init__(self, crash_round: int, state_dir: str) -> None:
        self.crash_round = crash_round
        self.state_dir = state_dir
        self._seen_steps: set[int] = set()

    def on_event(self, network, event) -> None:
        self._seen_steps.add(event.step)
        if len(self._seen_steps) > self.crash_round:
            if crash_once(self.state_dir, f"round{self.crash_round}"):
                kill_self()

    def finalize(self, network) -> dict:
        return {}


def _components(healer_spec: str, adversary_spec: str, n: int, seed: int):
    graph = REGISTRIES["generator"].make(
        f"erdos_renyi:n={n},p=0.08,seed={seed}"
    )
    healer = REGISTRIES["healer"].make(healer_spec)
    adversary = REGISTRIES["adversary"].make(adversary_spec, seed=seed + 1)
    metrics = [
        REGISTRIES["metric"].make("messages"),
        REGISTRIES["metric"].make("components"),
    ]
    return graph, healer, adversary, metrics


def _emit(result) -> None:
    events = result.events or []
    digest = hashlib.sha256(
        json.dumps(
            [_encode_event(e) for e in events], separators=(",", ":")
        ).encode()
    ).hexdigest()
    print(
        json.dumps(
            {
                "initial_n": result.initial_n,
                "deletions": result.deletions,
                "insertions": result.insertions,
                "final_alive": result.final_alive,
                "peak_delta": result.peak_delta,
                "values": result.values,
                "events_sha256": digest,
                "num_events": len(events),
            },
            sort_keys=True,
        )
    )


def main(argv: list[str]) -> int:
    from repro.sim.engine import run_campaign

    mode = argv[0]
    if mode == "resume":
        (state_dir,) = argv[1:]
        _emit(resume_from_ledger(os.path.join(state_dir, "campaign.jsonl")))
        return 0

    healer_spec, adversary_spec, n, seed = (
        argv[1], argv[2], int(argv[3]), int(argv[4])
    )
    graph, healer, adversary, metrics = _components(
        healer_spec, adversary_spec, n, seed
    )
    if mode == "straight":
        result = run_campaign(
            graph, healer, adversary, id_seed=seed, metrics=metrics,
            keep_events=True,
        )
        _emit(result)
        return 0

    assert mode == "run", mode
    state_dir = argv[5]
    crash_at = os.environ.get("REPRO_CRASH_AT_ROUND")
    if crash_at is not None:
        metrics = metrics + [_KillAfterRound(int(crash_at), state_dir)]
    result = run_campaign(
        graph, healer, adversary, id_seed=seed, metrics=metrics,
        keep_events=True,
        checkpoint_every=int(os.environ.get("REPRO_CHECKPOINT_EVERY", "2")),
        checkpoint_dir=os.path.join(state_dir, "checkpoints"),
        ledger=os.path.join(state_dir, "campaign.jsonl"),
    )
    _emit(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
