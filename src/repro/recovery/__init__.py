"""Crash safety: campaign checkpoints, the append-only ledger, faults.

The paper's subject is surviving adversarial node deletions; this
subpackage is about the harness surviving *its own* failures — a worker
SIGKILLed mid-sweep, a machine rebooting halfway through an n=100k
campaign. Three pieces:

* :mod:`~repro.recovery.checkpoint` — versioned JSON snapshots of the
  full campaign state (graph, healing graph, union-find tracker,
  adversary/healer/metric state, RNG streams) written every N rounds by
  :func:`~repro.sim.engine.run_campaign`, plus
  :func:`~repro.recovery.checkpoint.resume_campaign` /
  :func:`~repro.recovery.checkpoint.resume_from_ledger`, which continue
  a killed campaign to a byte-identical :class:`~repro.core.network.HealEvent`
  stream and final metrics (differential-tested in
  ``tests/recovery/``);
* :mod:`~repro.recovery.ledger` — an append-only JSONL audit log (one
  flushed record per round: victims, deletions, survivors; plus fsync'd
  checkpoint references), the breadcrumb trail a crashed campaign is
  found and resumed from;
* :mod:`~repro.recovery.faults` — deterministic fault injection
  (seeded in-process crash, genuine SIGKILL, checkpoint truncation)
  used by the recovery tests and the CI chaos leg.

Determinism is what makes resume a *testable contract* rather than a
best effort: every stochastic component snapshots its Mersenne-Twister
state via :func:`repro.utils.rng.rng_state_to_json`, and the tracker
exports its union-find arrays verbatim.
"""

from repro.recovery.checkpoint import (
    CampaignRecorder,
    Checkpointer,
    load_checkpoint,
    resume_campaign,
    resume_from_ledger,
)
from repro.recovery.faults import CrashAtRound, chaos_round, crash_once
from repro.recovery.ledger import CampaignLedger, latest_campaign, read_ledger

__all__ = [
    "CampaignRecorder",
    "Checkpointer",
    "CampaignLedger",
    "CrashAtRound",
    "chaos_round",
    "crash_once",
    "latest_campaign",
    "read_ledger",
    "load_checkpoint",
    "resume_campaign",
    "resume_from_ledger",
]
