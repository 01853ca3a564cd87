"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by this library derive from :class:`ReproError` so
that callers can catch library-specific failures with a single ``except``
clause while letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Base class for errors raised by the graph substrate."""


class NodeNotFoundError(GraphError, KeyError):
    """A node referenced by an operation is not present in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError, KeyError):
    """An edge referenced by an operation is not present in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class SelfLoopError(GraphError, ValueError):
    """A self-loop was requested; the substrate models simple graphs only."""

    def __init__(self, node: object) -> None:
        super().__init__(f"self-loop on node {node!r} is not allowed")
        self.node = node


class HealingError(ReproError):
    """A healing strategy was asked to do something impossible.

    Examples: healing a deletion of a node that is still present, or a
    reconstruction that would violate the strategy's own invariants.
    """


class AdversaryError(ReproError):
    """An attack strategy failed to produce a valid target."""


class SimulationError(ReproError):
    """The attack/heal simulation loop reached an inconsistent state."""


class ConfigurationError(ReproError, ValueError):
    """Invalid experiment, generator, or engine configuration."""


class ProtocolError(ReproError):
    """A distributed protocol message was malformed or unexpected."""


class CheckpointError(ReproError):
    """A campaign checkpoint could not be written, read, or applied.

    Raised for unreadable/corrupt checkpoint files, version mismatches,
    and components whose mid-campaign state cannot be serialized (e.g.
    an adversary with a live agenda generator).
    """


class DivergenceError(CheckpointError, SimulationError):
    """A re-executed round did not reproduce its recorded round: a
    resume diverged from its ledger (a :class:`CheckpointError`), or a
    churn-trace replay from its trace (a :class:`SimulationError`)."""


class ServiceError(ReproError):
    """The campaign service refused or failed an operation.

    Raised for protocol violations (malformed requests, unknown jobs),
    illegal job state transitions, and service-side wiring failures.
    """


class QueueFullError(ServiceError):
    """The job queue is at capacity (bounded backpressure).

    Submitters should back off and retry; the bound exists so a burst of
    campaign requests degrades into explicit push-back instead of
    unbounded memory growth.
    """

    def __init__(self, limit: int) -> None:
        super().__init__(
            f"job queue is full ({limit} queued jobs); retry later"
        )
        self.limit = limit


class JobStateError(ServiceError):
    """An illegal job state transition was attempted.

    The job state machine (queued → running → checkpointed →
    done/failed/cancelled) only moves along declared edges; anything
    else is a service bug and fails loudly.
    """


class SimulatedCrash(ReproError):
    """A fault injected by :mod:`repro.recovery.faults` fired.

    Never raised by production code paths; tests use it to stop a
    campaign at a deterministic point and exercise resume.
    """


class SweepExecutionError(SimulationError):
    """One or more sweep cells failed after exhausting their retries.

    Unlike a bare worker exception, this error names every failed
    ``(experiment, size, healer, rep)`` cell and keeps the completed
    cells' outputs, so a mostly-successful sweep is not a total loss.

    Attributes
    ----------
    failures:
        ``CellFailure`` records (see :mod:`repro.sim.parallel`), one per
        permanently failed cell.
    completed:
        ``{task_index: output}`` for every cell that did succeed.
    """

    def __init__(self, failures, completed) -> None:
        self.failures = list(failures)
        self.completed = dict(completed)
        cells = ", ".join(repr(f.cell) for f in self.failures)
        super().__init__(
            f"{len(self.failures)} sweep cell(s) failed permanently "
            f"({len(self.completed)} completed): {cells}"
        )


class InvariantViolation(ReproError, AssertionError):
    """A paper invariant (forest property, degree bound, ...) was violated.

    Raised by :mod:`repro.analysis.invariants` checkers when running in
    enforcing mode; tests rely on these to detect algorithmic regressions.
    """
