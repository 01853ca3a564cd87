"""Churn subsystem: insertion-capable healers, adversaries, and traces.

Everything that makes the simulator *reconfigurable* in the paper's
sense — nodes joining as well as leaving — lives here:

* :mod:`repro.churn.healers` — Forgiving Tree / Forgiving Graph, the
  churn-native healing strategies (registered in ``HEALERS``);
* :mod:`repro.churn.adversaries` — the one churn-op decoder, the
  ``churn`` birth/death process, and the ``ScriptedChurn`` script with
  its ``trace-churn`` JSONL loader (registered in ``ADVERSARIES``);
* :mod:`repro.churn.trace` — trace record/replay for churn and
  delete-only campaigns alike, exposed lazily: it imports the campaign
  engine, which this package must not pull in at import time
  (``repro.core.registry`` imports the healers here, and the engine
  imports the registry — eager import would close that cycle).
"""

from repro.churn.adversaries import (
    ChurnAdversary,
    ScriptedChurn,
    TraceChurnAdversary,
    load_churn_ops,
)
from repro.churn.healers import ForgivingGraph, ForgivingTree

__all__ = [
    "ForgivingTree",
    "ForgivingGraph",
    "ChurnAdversary",
    "TraceChurnAdversary",
    "load_churn_ops",
    "ScriptedChurn",
    # lazily re-exported from repro.churn.trace (see __getattr__)
    "ChurnTrace",
    "ChurnTraceRecorder",
    "save_churn_trace",
    "load_churn_trace",
    "save_churn_schedule",
    "replay_churn_trace",
]

_TRACE_EXPORTS = frozenset(
    {
        "ChurnTrace",
        "ChurnTraceRecorder",
        "save_churn_trace",
        "load_churn_trace",
        "save_churn_schedule",
        "replay_churn_trace",
    }
)


def __getattr__(name: str):
    if name in _TRACE_EXPORTS:
        from repro.churn import trace

        return getattr(trace, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
