"""Supervised process-parallel execution of experiment sweeps.

Experiment cells are embarrassingly parallel and fully determined by
their (spec, size, healer, repetition) tuple, so we shard them over a
``ProcessPoolExecutor`` — the standard-library analogue of the
"independent tasks + explicit task descriptors, no shared state" MPI
idiom. Determinism is preserved because every cell derives its own seeds
from the spec (see :mod:`repro.sim.experiment`); results are returned in
task order regardless of completion order.

The pool is *supervised*, in the self-healing spirit of the paper it
serves: a sweep should degrade gracefully under worker failure, not die
with a bare ``BrokenProcessPool`` and no word on which cell was lost.

* a cell that raises gets bounded retries with exponential backoff
  (transient failures — OOM-killed sibling, flaky filesystem — usually
  clear on a fresh process);
* a cell that exceeds ``timeout`` seconds is aborted in-worker (POSIX
  ``SIGALRM``; elsewhere the timeout is best-effort unenforced) and
  retried like any failure;
* a worker killed hard (SIGKILL, OOM) breaks the whole executor —
  ``BrokenProcessPool`` poisons every pending future. The supervisor
  rebuilds the pool a bounded number of times and requeues only the
  cells that had not completed, without charging their retry budget
  (the kill happened *to* them, not *because of* them); if pools keep
  breaking, the survivors run serially in-process as a last resort;
* cells that still fail after all that are reported per-cell — a
  :class:`~repro.errors.SweepExecutionError` carries every
  :class:`CellFailure` (with its ``(spec, size, healer, rep)`` identity
  and attempt count) plus the results of all completed cells, so a
  thousand-cell sweep never forfeits 999 results to one bad cell.

``jobs=None`` or ``jobs<=1`` runs serially in-process with the same
retry/timeout/failure-report semantics.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import SweepExecutionError
from repro.sim.experiment import run_task

__all__ = ["run_tasks", "default_jobs", "CellFailure", "RetryPolicy"]

#: how many times a freshly built pool may break before the supervisor
#: gives up on process parallelism for the surviving cells
_MAX_POOL_REBUILDS = 3


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a failed unit of work, and how fast.

    Shared by the sweep supervisor here and the campaign service's job
    manager (:mod:`repro.service.manager`) — one definition of "retry"
    across both. Attempt *k* (1-based) retries after
    ``backoff * 2**(k-1)`` seconds; ``retries`` is the number of *extra*
    attempts after the first failure, so ``retries=2`` allows at most 3
    attempts total.
    """

    retries: int = 2
    backoff: float = 0.5

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")

    def delay(self, attempt: int) -> float:
        """Seconds to wait before re-running after failure ``attempt``."""
        return self.backoff * (2 ** (attempt - 1))

    def exhausted(self, attempts: int) -> bool:
        """True once ``attempts`` failures have used up the budget."""
        return attempts > self.retries

    @classmethod
    def none(cls) -> "RetryPolicy":
        """Fail on the first error (and never sleep)."""
        return cls(retries=0, backoff=0.0)

    @classmethod
    def immediate(cls, retries: int = 2) -> "RetryPolicy":
        """Retry without any backoff — the policy tests want."""
        return cls(retries=retries, backoff=0.0)


def default_jobs() -> int:
    """A sensible process count: CPU count capped at 8 (sweeps are
    memory-light but short; beyond 8 the pool startup dominates)."""
    return min(os.cpu_count() or 1, 8)


@dataclass
class CellFailure:
    """One sweep cell that failed permanently (all retries exhausted)."""

    #: ``(spec name, size, healer, rep)`` — enough to re-run the cell
    cell: tuple
    attempts: int
    error: str


def _cell_id(task: tuple) -> tuple:
    spec, size, healer, rep = task
    return (getattr(spec, "name", str(spec)), size, healer, rep)


def _run_cell(task) -> tuple[dict, dict]:
    spec, size, healer, rep = task
    return run_task(spec, size, healer, rep)


def _timeout_handler(signum, frame):  # pragma: no cover - fires in worker
    raise TimeoutError("cell exceeded its time budget")


def _supervised_cell(task, worker, timeout) -> tuple[dict, dict]:
    """Run one cell, enforcing ``timeout`` in-worker where the platform
    can (POSIX ``SIGALRM``); runs in the pool's worker process."""
    if timeout is not None and hasattr(signal, "SIGALRM"):
        previous = signal.signal(signal.SIGALRM, _timeout_handler)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            return worker(task)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    return worker(task)


def run_tasks(
    tasks: Sequence[tuple],
    *,
    jobs: int | None = None,
    progress: bool = False,
    worker: Callable[[tuple], tuple[dict, dict]] | None = None,
    timeout: float | None = None,
    retry_policy: RetryPolicy = RetryPolicy(),
) -> list[tuple[dict, dict]]:
    """Execute sweep cells, serially or across supervised processes.

    Parameters
    ----------
    tasks:
        ``(spec, size, healer, rep)`` tuples from
        :func:`repro.sim.experiment.expand_tasks`.
    jobs:
        Number of worker processes. ``None``/0/1 → serial.
    progress:
        Print a one-line progress ticker to stderr.
    worker:
        The per-cell callable (default: :func:`repro.sim.experiment.run_task`
        via the standard unpacking). Must be picklable for ``jobs > 1``.
        Exposed for the fault-injection tests.
    timeout:
        Per-cell wall-clock budget in seconds (enforced in-worker on
        POSIX; a timed-out attempt counts as a failure and is retried).
    retry_policy:
        How often a failed cell is retried and how long to wait between
        attempts (``RetryPolicy.none()`` for fail-fast,
        ``RetryPolicy.immediate()`` for sleep-free tests); the default
        is 2 retries with 0.5 s exponential backoff.

    Raises
    ------
    SweepExecutionError
        If any cell fails permanently. The exception carries the
        per-cell :class:`CellFailure` reports *and* the results of every
        completed cell (``completed``, indexed by task position).
    """
    worker = worker or _run_cell
    total = len(tasks)
    completed: dict[int, tuple[dict, dict]] = {}
    failures: list[CellFailure] = []

    def tick() -> None:
        if progress:
            done = len(completed) + len(failures)
            print(
                f"\r  [{done}/{total}] cells complete", end="", file=sys.stderr
            )
            if done == total:
                print(file=sys.stderr)

    def attempt_serial(index: int, attempts_used: int) -> None:
        """Run one cell in-process with the same retry budget."""
        attempts = attempts_used
        while True:
            attempts += 1
            try:
                completed[index] = _supervised_cell(
                    tasks[index], worker, timeout
                )
                return
            except BaseException as exc:  # noqa: BLE001 - reported per-cell
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                if retry_policy.exhausted(attempts):
                    failures.append(
                        CellFailure(
                            cell=_cell_id(tasks[index]),
                            attempts=attempts,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    )
                    return
                time.sleep(retry_policy.delay(attempts))

    if not jobs or jobs <= 1:
        for index in range(total):
            attempt_serial(index, 0)
            tick()
    else:
        _run_supervised_pool(
            tasks,
            worker=worker,
            jobs=jobs,
            timeout=timeout,
            policy=retry_policy,
            completed=completed,
            failures=failures,
            attempt_serial=attempt_serial,
            tick=tick,
        )

    if failures:
        raise SweepExecutionError(failures, completed)
    return [completed[i] for i in range(total)]


def _run_supervised_pool(
    tasks: Sequence[tuple],
    *,
    worker,
    jobs: int,
    timeout: float | None,
    policy: RetryPolicy,
    completed: dict,
    failures: list,
    attempt_serial,
    tick,
) -> None:
    """The supervisor loop: submit, wait, retry, survive broken pools."""
    attempts: dict[int, int] = {i: 0 for i in range(len(tasks))}
    pending: set[int] = set(attempts)
    rebuilds = 0

    while pending:
        pool = ProcessPoolExecutor(max_workers=jobs)
        future_index: dict = {}
        not_done: set = set()

        def submit(index: int) -> bool:
            """Queue one cell; False once the pool is broken (a worker
            may die before every cell is even queued)."""
            try:
                future = pool.submit(
                    _supervised_cell, tasks[index], worker, timeout
                )
            except BrokenProcessPool:
                return False
            future_index[future] = index
            not_done.add(future)
            return True

        try:
            broken = not all(submit(i) for i in sorted(pending))
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    index = future_index[future]
                    try:
                        completed[index] = future.result()
                        pending.discard(index)
                        tick()
                    except BrokenProcessPool:
                        # One hard-killed worker poisons every pending
                        # future; stop collecting and rebuild. The
                        # incomplete cells are requeued without charging
                        # their retry budget — the kill happened to
                        # them, not because of them.
                        broken = True
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BaseException as exc:  # noqa: BLE001
                        attempts[index] += 1
                        if policy.exhausted(attempts[index]):
                            failures.append(
                                CellFailure(
                                    cell=_cell_id(tasks[index]),
                                    attempts=attempts[index],
                                    error=f"{type(exc).__name__}: {exc}",
                                )
                            )
                            pending.discard(index)
                            tick()
                        else:
                            time.sleep(policy.delay(attempts[index]))
                            broken = broken or not submit(index)
                if broken:
                    break
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

        if not broken:
            break
        rebuilds += 1
        if rebuilds >= _MAX_POOL_REBUILDS:
            for index in sorted(pending):
                attempt_serial(index, attempts[index])
                tick()
            break
