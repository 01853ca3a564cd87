"""Tests for the supervised worker pool (retry, timeout, broken-pool
recovery, per-cell failure reports)."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.errors import SweepExecutionError
from repro.sim import parallel
from repro.sim.parallel import (
    CellFailure,
    RetryPolicy,
    default_jobs,
    run_tasks,
)


class _Spec:
    """Minimal stand-in for ExperimentSpec in cell tuples (picklable)."""

    name = "toy"


def _tasks(count: int):
    return [(_Spec(), 10, "dash", rep) for rep in range(count)]


# Workers live at module level so the pool's fork/pickle round-trip
# resolves them by qualified name.

def ok_worker(task):
    spec, size, healer, rep = task
    return ({"size": size, "rep": rep}, {"v": float(rep)})


def fail_rep1_worker(task):
    spec, size, healer, rep = task
    if rep == 1:
        raise ValueError("cell 1 always fails")
    return ok_worker(task)


def flaky_until_retry_worker(task):
    # Fails on the first attempt of each cell, succeeds on retry —
    # distinguished via a per-cell sentinel file.
    spec, size, healer, rep = task
    sentinel = Path(os.environ["FLAKY_DIR"]) / f"tried-{rep}"
    if not sentinel.exists():
        sentinel.touch()
        raise RuntimeError("transient")
    return ok_worker(task)


def sigkill_once_worker(task):
    spec, size, healer, rep = task
    sentinel = Path(os.environ["KILL_DIR"]) / "killed"
    if rep == 2 and not sentinel.exists():
        sentinel.touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return ok_worker(task)


def sigkill_in_pool_worker(task):
    # Every pool worker dies on its first cell; only the supervisor's
    # own process (which has no multiprocessing parent) can finish one.
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return ok_worker(task)


def slow_rep0_worker(task):
    spec, size, healer, rep = task
    if rep == 0:
        time.sleep(10)
    return ok_worker(task)


class TestSerial:
    def test_results_in_task_order(self):
        out = run_tasks(_tasks(4), jobs=1, worker=ok_worker)
        assert [p["rep"] for p, _ in out] == [0, 1, 2, 3]

    def test_permanent_failure_reports_cell_and_keeps_rest(self):
        with pytest.raises(SweepExecutionError) as exc_info:
            run_tasks(
                _tasks(4), jobs=1, worker=fail_rep1_worker,
                retry_policy=RetryPolicy.immediate(retries=1),
            )
        err = exc_info.value
        assert len(err.failures) == 1
        failure = err.failures[0]
        assert isinstance(failure, CellFailure)
        assert failure.cell == ("toy", 10, "dash", 1)
        assert failure.attempts == 2  # 1 try + 1 retry
        assert "cell 1 always fails" in failure.error
        assert sorted(err.completed) == [0, 2, 3]
        assert "('toy', 10, 'dash', 1)" in str(err)

    def test_transient_failure_retried_to_success(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("FLAKY_DIR", str(tmp_path))
        out = run_tasks(
            _tasks(3), jobs=1, worker=flaky_until_retry_worker,
            retry_policy=RetryPolicy.immediate(retries=1),
        )
        assert [p["rep"] for p, _ in out] == [0, 1, 2]

    def test_zero_retries_fails_immediately(self):
        with pytest.raises(SweepExecutionError) as exc_info:
            run_tasks(
                _tasks(2), jobs=1, worker=fail_rep1_worker,
                retry_policy=RetryPolicy.none(),
            )
        assert exc_info.value.failures[0].attempts == 1


class TestRetryPolicy:
    def test_defaults_match_legacy_arguments(self):
        policy = RetryPolicy()
        assert (policy.retries, policy.backoff) == (2, 0.5)

    def test_delay_is_exponential(self):
        policy = RetryPolicy(retries=3, backoff=0.25)
        assert [policy.delay(k) for k in (1, 2, 3)] == [0.25, 0.5, 1.0]

    def test_exhausted(self):
        policy = RetryPolicy(retries=2)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)

    def test_none_and_immediate_constructors(self):
        assert RetryPolicy.none() == RetryPolicy(retries=0, backoff=0.0)
        fast = RetryPolicy.immediate(retries=4)
        assert (fast.retries, fast.backoff) == (4, 0.0)
        assert fast.delay(3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-0.1)

    def test_run_tasks_accepts_a_policy(self):
        with pytest.raises(SweepExecutionError) as exc_info:
            run_tasks(
                _tasks(2), jobs=1, worker=fail_rep1_worker,
                retry_policy=RetryPolicy.immediate(retries=1),
            )
        assert exc_info.value.failures[0].attempts == 2


class TestParallel:
    def test_results_in_task_order(self):
        out = run_tasks(_tasks(6), jobs=2, worker=ok_worker)
        assert [p["rep"] for p, _ in out] == [0, 1, 2, 3, 4, 5]

    def test_failure_report_matches_serial_semantics(self):
        with pytest.raises(SweepExecutionError) as exc_info:
            run_tasks(
                _tasks(4), jobs=2, worker=fail_rep1_worker,
                retry_policy=RetryPolicy.immediate(retries=1),
            )
        err = exc_info.value
        assert [f.cell for f in err.failures] == [("toy", 10, "dash", 1)]
        assert sorted(err.completed) == [0, 2, 3]

    def test_transient_failures_retried_across_processes(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("FLAKY_DIR", str(tmp_path))
        out = run_tasks(
            _tasks(4), jobs=2, worker=flaky_until_retry_worker,
            retry_policy=RetryPolicy.immediate(),
        )
        assert [p["rep"] for p, _ in out] == [0, 1, 2, 3]

    def test_sigkilled_worker_requeues_lost_cells(
        self, tmp_path, monkeypatch
    ):
        # A hard-killed worker breaks the whole executor; the supervisor
        # must rebuild the pool and finish every cell — including the
        # one that was being murdered — without losing results.
        monkeypatch.setenv("KILL_DIR", str(tmp_path))
        out = run_tasks(
            _tasks(6), jobs=2, worker=sigkill_once_worker,
            retry_policy=RetryPolicy.immediate(),
        )
        assert [p["rep"] for p, _ in out] == [0, 1, 2, 3, 4, 5]

    # 4 cells are all queued before a worker dies; 200 usually are not,
    # so the pool breaks while the supervisor is still submitting.
    @pytest.mark.parametrize("cells", [4, 200])
    def test_pools_that_keep_breaking_fall_back_to_serial(
        self, monkeypatch, cells
    ):
        # Every pool breaks; after _MAX_POOL_REBUILDS of them the
        # surviving cells run in-process, with correct results and no
        # retry budget charged for the kills.
        pools = []

        class CountingPool(parallel.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
        out = run_tasks(
            _tasks(cells),
            jobs=2,
            worker=sigkill_in_pool_worker,
            retry_policy=RetryPolicy.none(),
        )
        assert out == [ok_worker(task) for task in _tasks(cells)]
        assert len(pools) == parallel._MAX_POOL_REBUILDS

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs POSIX SIGALRM"
    )
    def test_timeout_aborts_and_reports(self):
        with pytest.raises(SweepExecutionError) as exc_info:
            run_tasks(
                _tasks(3), jobs=2, worker=slow_rep0_worker,
                timeout=0.3, retry_policy=RetryPolicy.none(),
            )
        err = exc_info.value
        assert err.failures[0].cell == ("toy", 10, "dash", 0)
        assert "TimeoutError" in err.failures[0].error
        assert sorted(err.completed) == [1, 2]

    def test_empty_task_list(self):
        assert run_tasks([], jobs=2, worker=ok_worker) == []


class TestRealSweepCells:
    """The default worker path, end to end through run_task."""

    def test_serial_equals_parallel(self):
        from repro.sim.experiment import ExperimentSpec, expand_tasks

        spec = ExperimentSpec(
            name="sup",
            generator="erdos_renyi",
            generator_params={"p": 0.1},
            sizes=(24,),
            healers=("dash",),
            adversary="max-node",
            repetitions=2,
        )
        tasks = expand_tasks(spec)
        assert run_tasks(tasks, jobs=1) == run_tasks(tasks, jobs=2)


def test_default_jobs_bounded():
    assert 1 <= default_jobs() <= 8
