"""The job state machine and its on-disk persistence.

A job is one campaign request moving through::

    queued ──► running ──► done
      │          │  ▲        failed
      │          ▼  │        cancelled
      └──► checkpointed ─┘

* ``queued``       — accepted, waiting for a worker slot;
* ``running``      — a worker process owns it (heartbeating);
* ``checkpointed`` — interrupted with durable state on disk (worker
  died, was expired, or the whole service restarted); eligible to
  resume on any worker via
  :func:`~repro.recovery.checkpoint.resume_from_ledger`;
* ``done`` / ``failed`` / ``cancelled`` — terminal.

Every transition is persisted (atomic write of ``job.json`` in the
job's directory) *before* the action it describes takes effect, so a
service restart reconstructs the exact set of queued and interrupted
jobs from disk — the recovery contract the lifecycle tests exercise by
killing the whole service.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from repro.errors import JobStateError, ServiceError
from repro.service.request import CampaignRequest

__all__ = ["JobState", "Job", "JobStore"]

JOB_VERSION = 1


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    CHECKPOINTED = "checkpointed"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (
            JobState.DONE, JobState.FAILED, JobState.CANCELLED
        )


#: the legal edges of the state machine; anything else raises
_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.QUEUED: frozenset(
        {JobState.RUNNING, JobState.CANCELLED, JobState.FAILED}
    ),
    JobState.RUNNING: frozenset(
        {
            JobState.CHECKPOINTED,
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
        }
    ),
    JobState.CHECKPOINTED: frozenset(
        {JobState.RUNNING, JobState.CANCELLED, JobState.FAILED}
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}


@dataclass
class Job:
    """One campaign request's lifecycle record."""

    job_id: str
    request: CampaignRequest
    directory: Path
    state: JobState = JobState.QUEUED
    #: submission order (the queue's FIFO tie-break within a priority)
    seq: int = 0
    #: failure attempts charged against the retry budget (kills are
    #: free — they happen *to* a job, not because of it)
    attempts: int = 0
    #: times the job was picked up again after a worker death/expiry
    resumes: int = 0
    #: last round observed in the job's ledger (observability only)
    rounds: int = 0
    submitted_at: float = field(default_factory=time.time)
    updated_at: float = field(default_factory=time.time)
    #: earliest wall-clock time the job may be rescheduled (backoff)
    not_before: float = 0.0
    error: str | None = None
    #: once done, the newest campaign's ``end`` record in its ledger
    result: dict | None = None

    @property
    def spec_hash(self) -> str:
        return self.request.spec_hash()

    @property
    def ledger_path(self) -> Path:
        return self.directory / "campaign.jsonl"

    @property
    def error_path(self) -> Path:
        return self.directory / "error.txt"

    def advance(self, new_state: JobState) -> None:
        """Move along a declared edge; anything else is a service bug."""
        if new_state not in _TRANSITIONS[self.state]:
            raise JobStateError(
                f"job {self.job_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state
        self.updated_at = time.time()

    def to_json(self) -> dict:
        return {
            "version": JOB_VERSION,
            "job_id": self.job_id,
            "state": self.state.value,
            "seq": self.seq,
            "attempts": self.attempts,
            "resumes": self.resumes,
            "rounds": self.rounds,
            "submitted_at": self.submitted_at,
            "updated_at": self.updated_at,
            "not_before": self.not_before,
            "error": self.error,
            "result": self.result,
            "request": self.request.to_json(),
        }

    @classmethod
    def from_json(cls, payload: dict, directory: Path) -> "Job":
        if payload.get("version") != JOB_VERSION:
            raise ServiceError(
                f"unsupported job record version "
                f"{payload.get('version')!r} in {directory}"
            )
        return cls(
            job_id=payload["job_id"],
            request=CampaignRequest.from_json(payload["request"]),
            directory=directory,
            state=JobState(payload["state"]),
            seq=payload.get("seq", 0),
            attempts=payload.get("attempts", 0),
            resumes=payload.get("resumes", 0),
            rounds=payload.get("rounds", 0),
            submitted_at=payload.get("submitted_at", 0.0),
            updated_at=payload.get("updated_at", 0.0),
            not_before=payload.get("not_before", 0.0),
            error=payload.get("error"),
            result=payload.get("result"),
        )

    def public_view(self) -> dict:
        """The status-surface projection (what ``repro status`` shows)."""
        return {
            "job": self.job_id,
            "state": self.state.value,
            "priority": self.request.priority,
            "healer": self.request.healer,
            "adversary": self.request.adversary,
            "generator": self.request.generator,
            "rounds": self.rounds,
            "attempts": self.attempts,
            "resumes": self.resumes,
            "error": self.error,
            "result": self.result,
        }


class JobStore:
    """Owns ``<root>/jobs/``: one directory per job, ``job.json`` per
    transition, written atomically (temp file → ``os.replace``)."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)

    def _job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def next_seq(self) -> int:
        """One past the highest persisted sequence number (restart-safe
        submission ordering)."""
        highest = 0
        for path in self.jobs_dir.glob("*/job.json"):
            try:
                highest = max(
                    highest, json.loads(path.read_text()).get("seq", 0)
                )
            except (OSError, ValueError):
                continue
        return highest + 1

    def create(self, request: CampaignRequest, *, seq: int) -> Job:
        job_id = f"j{seq:05d}-{request.spec_hash()[:8]}"
        directory = self._job_dir(job_id)
        if directory.exists():
            raise ServiceError(f"job directory {directory} already exists")
        directory.mkdir(parents=True)
        job = Job(
            job_id=job_id, request=request, directory=directory, seq=seq
        )
        self.save(job)
        return job

    def save(self, job: Job) -> None:
        path = job.directory / "job.json"
        tmp = path.with_name(path.name + ".tmp")
        data = json.dumps(
            job.to_json(), sort_keys=True, separators=(",", ":")
        )
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def load(self, job_id: str) -> Job:
        directory = self._job_dir(job_id)
        path = directory / "job.json"
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ServiceError(
                f"cannot load job {job_id!r}: {exc}"
            ) from exc
        return Job.from_json(payload, directory)

    def load_all(self) -> list[Job]:
        """Every persisted job, ascending by submission sequence.
        Unreadable records are skipped (a torn ``job.json`` from a crash
        mid-create must not wedge the whole service)."""
        jobs = []
        for path in sorted(self.jobs_dir.glob("*/job.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                jobs.append(Job.from_json(payload, path.parent))
            except (OSError, ValueError, KeyError, ServiceError):
                continue
        return sorted(jobs, key=lambda j: j.seq)

    def delete(self, job_id: str) -> None:
        """Remove a job's directory (ledger, checkpoints, and all)."""
        import shutil

        shutil.rmtree(self._job_dir(job_id), ignore_errors=True)

    def gc(self, older_than_s: float, *, now: float | None = None) -> list[str]:
        """Prune *terminal* jobs not updated for ``older_than_s`` seconds.

        Queued, running, and checkpointed jobs are never touched, no
        matter how old — only ``done`` / ``failed`` / ``cancelled``
        records age out. Unreadable job directories are also left alone
        (they may be a job mid-create). Returns the removed job ids.
        """
        if older_than_s < 0:
            raise ServiceError(
                f"gc horizon must be >= 0 seconds, got {older_than_s}"
            )
        cutoff = (time.time() if now is None else now) - older_than_s
        removed = []
        for job in self.load_all():
            if job.state.terminal and job.updated_at < cutoff:
                self.delete(job.job_id)
                removed.append(job.job_id)
        return removed
