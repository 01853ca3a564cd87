"""The campaign service: queue, dispatch, supervise, recover.

:class:`CampaignService` owns the job store, the priority queue, and up
to ``max_workers`` worker subprocesses. Its supervision step
(:meth:`~CampaignService.poll`, run continuously by
:meth:`~CampaignService.start`'s background thread) does four things:

1. **Reap** exited workers — exit 0 finalizes the job from its
   ``result.json``; a signal death (negative returncode) or a heartbeat
   expiry re-queues the job as ``checkpointed`` *without* charging its
   retry budget (the kill happened to it, not because of it — the same
   principle as :func:`repro.sim.parallel.run_tasks`'s broken-pool
   handling); a nonzero exit charges one attempt against the shared
   :class:`~repro.sim.parallel.RetryPolicy` and re-queues with backoff
   until the budget is exhausted.
2. **Expire** workers whose heartbeat file has gone stale (wedged but
   not dead) — killed and treated as a signal death.
3. **Refresh** per-job round counters from the ledgers (observability).
4. **Dispatch** queued jobs onto free worker slots, highest priority
   first.
5. **Retain** — with a ``retention`` horizon configured, prune terminal
   job directories that haven't been updated for that many seconds
   (queued/running/checkpointed jobs are never pruned; see
   :meth:`~CampaignService.gc`).

Every state transition is persisted before its action, so
:meth:`~CampaignService.recover` (run at construction) rebuilds the
exact queue after a service restart: terminal jobs stay terminal, jobs
that were ``running`` come back as ``checkpointed`` and re-queue (their
ledgers make the resume byte-identical), and jobs whose ledger already
holds an ``end`` record are finalized without re-running anything.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.errors import QueueFullError, ServiceError
from repro.service.jobs import Job, JobState, JobStore
from repro.service.queue import JobQueue
from repro.service.request import CampaignRequest
from repro.service.stream import ledger_progress
from repro.service.worker import (
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_HEARTBEAT_TTL,
    HEARTBEAT_INTERVAL,
    WorkerHandle,
    spawn_worker,
)
from repro.sim.parallel import RetryPolicy

__all__ = ["CampaignService"]


class CampaignService:
    def __init__(
        self,
        root: str | Path,
        *,
        max_workers: int = 2,
        queue_capacity: int = 256,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        heartbeat_ttl: float = DEFAULT_HEARTBEAT_TTL,
        retry_policy: RetryPolicy | None = None,
        poll_interval: float = 0.05,
        retention: float | None = None,
    ) -> None:
        # Settings that can never work fail here, before the root is
        # touched.
        if max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if heartbeat_ttl <= HEARTBEAT_INTERVAL:
            # Workers touch their heartbeat every HEARTBEAT_INTERVAL
            # seconds; a TTL no longer than that expires live workers.
            raise ValueError(
                f"heartbeat_ttl must be > {HEARTBEAT_INTERVAL} s (the "
                f"worker heartbeat interval), got {heartbeat_ttl}"
            )
        if retention is not None and retention < 0:
            raise ValueError(
                f"retention must be >= 0 seconds or None, got {retention}"
            )
        self.queue = JobQueue(queue_capacity)
        self.root = Path(root)
        self.store = JobStore(self.root)
        self.max_workers = max_workers
        self.checkpoint_every = checkpoint_every
        self.heartbeat_ttl = heartbeat_ttl
        self.retry_policy = retry_policy or RetryPolicy()
        self.poll_interval = poll_interval
        #: age (seconds since last update) after which *terminal* jobs
        #: are pruned from disk by the supervision loop; None keeps them
        #: forever. Live jobs are never pruned regardless of age.
        self.retention = retention
        self.jobs: dict[str, Job] = {}
        self.workers: dict[str, WorkerHandle] = {}
        self._lock = threading.RLock()
        self._seq = self.store.next_seq()
        self._started_at = time.time()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.counters = {
            "submitted": 0,
            "deduped": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "resumes": 0,
            "retries": 0,
            "recovered": 0,
            "gc_removed": 0,
        }
        self.recover()

    # -- restart recovery -----------------------------------------------
    def recover(self) -> None:
        """Rebuild queue and job table from persisted state."""
        with self._lock:
            for job in self.store.load_all():
                self.jobs[job.job_id] = job
                if job.state.terminal:
                    continue
                self.counters["recovered"] += 1
                _, ended = ledger_progress(job.ledger_path)
                if ended:
                    # The campaign finished but the service died before
                    # reaping the worker; finalize from the ledger.
                    if job.state is JobState.QUEUED:
                        job.advance(JobState.RUNNING)
                    elif job.state is JobState.CHECKPOINTED:
                        job.advance(JobState.RUNNING)
                    self._finalize_done(job)
                    continue
                if job.state is JobState.RUNNING:
                    # Its worker died with the old service process.
                    job.advance(JobState.CHECKPOINTED)
                    job.resumes += 1
                    self.counters["resumes"] += 1
                    self.store.save(job)
                self._enqueue(job, force=True)

    # -- submission ------------------------------------------------------
    def submit(self, request: CampaignRequest) -> tuple[str, bool]:
        """Accept a request; returns ``(job_id, created)``.

        Dedupe: an identical request (same :meth:`spec_hash`) with a
        non-terminal job already in the service returns that job's id
        with ``created=False`` instead of queueing a duplicate.
        """
        with self._lock:
            spec_hash = request.spec_hash()
            for job in self.jobs.values():
                if not job.state.terminal and job.spec_hash == spec_hash:
                    self.counters["deduped"] += 1
                    return job.job_id, False
            if len(self.queue) >= self.queue.capacity:
                raise QueueFullError(self.queue.capacity)
            job = self.store.create(request, seq=self._seq)
            self._seq += 1
            self.jobs[job.job_id] = job
            self._enqueue(job, force=True)
            self.counters["submitted"] += 1
            return job.job_id, True

    def _enqueue(self, job: Job, *, force: bool = False) -> None:
        self.queue.push(
            job.job_id,
            priority=job.request.priority,
            seq=job.seq,
            force=force,
        )

    # -- queries ---------------------------------------------------------
    def _get(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise ServiceError(f"unknown job {job_id!r}") from None

    def status(self, job_id: str) -> dict:
        with self._lock:
            job = self._get(job_id)
            if not job.state.terminal:
                job.rounds, _ = ledger_progress(job.ledger_path)
            view = job.public_view()
            handle = self.workers.get(job_id)
            view["pid"] = None if handle is None else handle.pid
            return view

    def list_jobs(self) -> list[dict]:
        with self._lock:
            return [
                self.jobs[j].public_view() for j in sorted(self.jobs)
            ]

    def ledger_path(self, job_id: str) -> Path:
        with self._lock:
            return self._get(job_id).ledger_path

    def is_terminal(self, job_id: str) -> bool:
        with self._lock:
            return self._get(job_id).state.terminal

    def metrics_snapshot(self) -> dict:
        """Observability counters, METRICS-style: one flat values dict
        plus a per-job breakdown."""
        with self._lock:
            uptime = max(time.time() - self._started_at, 1e-9)
            total_rounds = 0
            per_job = {}
            for job_id in sorted(self.jobs):
                job = self.jobs[job_id]
                if not job.state.terminal:
                    job.rounds, _ = ledger_progress(job.ledger_path)
                total_rounds += job.rounds
                per_job[job_id] = {
                    "state": job.state.value,
                    "rounds": job.rounds,
                    "resumes": job.resumes,
                    "retries": job.attempts,
                }
            return {
                "uptime_s": uptime,
                "queue_depth": len(self.queue),
                "running": len(self.workers),
                "max_workers": self.max_workers,
                "total_rounds": total_rounds,
                "rounds_per_s": total_rounds / uptime,
                **self.counters,
                "jobs": per_job,
            }

    # -- cancellation ----------------------------------------------------
    def cancel(self, job_id: str) -> dict:
        with self._lock:
            job = self._get(job_id)
            if job.state.terminal:
                return job.public_view()
            handle = self.workers.pop(job_id, None)
            if handle is not None:
                handle.kill()
            self.queue.remove(job_id)
            job.advance(JobState.CANCELLED)
            self.counters["cancelled"] += 1
            self.store.save(job)
            return job.public_view()

    # -- supervision -----------------------------------------------------
    def poll(self) -> None:
        """One supervision step: reap, expire, dispatch, retain."""
        with self._lock:
            self._reap()
            self._dispatch()
            if self.retention is not None:
                self.gc(self.retention)

    # -- retention -------------------------------------------------------
    def gc(self, older_than_s: float) -> list[str]:
        """Prune terminal jobs not updated for ``older_than_s`` seconds.

        Delegates the disk sweep to :meth:`JobStore.gc` (which refuses to
        touch non-terminal jobs) and drops the pruned ids from the
        in-memory table so the status surface matches the disk. Returns
        the removed job ids.
        """
        with self._lock:
            removed = []
            cutoff = time.time() - older_than_s
            for job_id in sorted(self.jobs):
                job = self.jobs[job_id]
                if job.state.terminal and job.updated_at < cutoff:
                    self.store.delete(job_id)
                    del self.jobs[job_id]
                    removed.append(job_id)
            self.counters["gc_removed"] += len(removed)
            return removed

    def _reap(self) -> None:
        for job_id, handle in list(self.workers.items()):
            returncode = handle.poll()
            if returncode is None:
                if handle.expired():
                    # Wedged-but-alive: kill it ourselves, then treat
                    # it exactly like a signal death.
                    handle.kill()
                    del self.workers[job_id]
                    self._interrupted(self.jobs[job_id])
                continue
            del self.workers[job_id]
            job = self.jobs[job_id]
            if job.state is not JobState.RUNNING:
                continue  # cancelled under the worker
            if returncode == 0:
                self._finalize_done(job)
            elif returncode < 0:
                self._interrupted(job)
            else:
                self._failed_attempt(job, returncode)

    def _interrupted(self, job: Job) -> None:
        """Kill-type death: requeue for resume, retry budget untouched."""
        job.advance(JobState.CHECKPOINTED)
        job.resumes += 1
        self.counters["resumes"] += 1
        self.store.save(job)
        self._enqueue(job, force=True)

    def _failed_attempt(self, job: Job, returncode: int) -> None:
        """Fault-type death: charge the retry budget."""
        job.attempts += 1
        error = f"worker exited with code {returncode}"
        try:
            tail = job.error_path.read_text(encoding="utf-8").strip()
            if tail:
                error = tail.splitlines()[-1]
        except OSError:
            pass
        if self.retry_policy.exhausted(job.attempts):
            job.error = error
            job.advance(JobState.FAILED)
            self.counters["failed"] += 1
            self.store.save(job)
            return
        self.counters["retries"] += 1
        job.not_before = time.time() + self.retry_policy.delay(
            job.attempts
        )
        job.advance(JobState.CHECKPOINTED)
        self.store.save(job)
        self._enqueue(job, force=True)

    def _finalize_done(self, job: Job) -> None:
        import json

        result = None
        try:
            result = json.loads(
                job.result_path.read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            # Worker died after the end record but before result.json;
            # the ledger is authoritative anyway.
            from repro.service.worker import _end_record

            result = _end_record(job.ledger_path)
        job.result = result
        if result:
            job.rounds = result.get("rounds", job.rounds)
        job.advance(JobState.DONE)
        self.counters["completed"] += 1
        self.store.save(job)

    def _dispatch(self) -> None:
        deferred: list[Job] = []
        while len(self.workers) < self.max_workers:
            job_id = self.queue.pop()
            if job_id is None:
                break
            job = self.jobs[job_id]
            if job.state.terminal:
                continue
            if job.not_before > time.time():
                deferred.append(job)  # still backing off
                continue
            job.advance(JobState.RUNNING)
            self.store.save(job)
            self.workers[job_id] = spawn_worker(
                job_id,
                job.directory,
                checkpoint_every=self.checkpoint_every,
                heartbeat_ttl=self.heartbeat_ttl,
            )
        for job in deferred:
            self._enqueue(job, force=True)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Run the supervision loop on a background thread."""
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(self.poll_interval):
                self.poll()

        self._thread = threading.Thread(
            target=loop, name="campaign-service", daemon=True
        )
        self._thread.start()

    def shutdown(self, *, kill_workers: bool = True) -> None:
        """Stop supervising. Running workers are killed and their jobs
        persisted as ``checkpointed``, so a restarted service resumes
        them from their ledgers — restart loses no job."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if not kill_workers:
            return
        with self._lock:
            for job_id, handle in list(self.workers.items()):
                handle.kill()
                del self.workers[job_id]
                job = self.jobs[job_id]
                if job.state is JobState.RUNNING:
                    job.advance(JobState.CHECKPOINTED)
                    job.resumes += 1
                    self.store.save(job)
                    self._enqueue(job, force=True)

    # -- test/CLI convenience -------------------------------------------
    def wait(self, job_id: str, *, timeout: float = 60.0) -> dict:
        """Block until the job is terminal (drives :meth:`poll` itself
        when no background thread is running)."""
        deadline = time.monotonic() + timeout
        while True:
            if self._thread is None:
                self.poll()
            if self.is_terminal(job_id):
                return self.status(job_id)
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"timed out after {timeout}s waiting for {job_id}"
                )
            time.sleep(self.poll_interval)
