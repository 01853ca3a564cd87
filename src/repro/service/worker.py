"""The worker process and the manager's handle on it.

A worker is a real subprocess (``python -m repro.service.worker
<job_dir>``), not a pool thread — so SIGKILL means what it says in the
lifecycle tests, and a wedged campaign cannot take the manager down
with it. Its contract with the manager is entirely file-based:

* it reads the job's ``job.json`` for the request;
* it touches ``heartbeat`` from a daemon thread every
  ``HEARTBEAT_INTERVAL`` seconds (the GIL's switch interval keeps this
  live even under a CPU-bound campaign) — the manager declares the
  worker dead when the file's mtime goes stale;
* it runs the campaign with checkpointing and the job ledger wired in,
  resuming from the ledger when a previous incarnation left durable
  state behind;
* it exits 0 once the ledger holds the campaign's ``end`` record, which
  is the job's result (the manager reads it from the ledger, so the
  stored summary is the streamed one); on failure it writes the
  traceback to ``error.txt`` and exits nonzero.

Idempotence: a worker assigned a job whose ledger already holds an
``end`` record exits 0 without running anything — the manager may
re-dispatch a job whose previous worker died between finishing the
campaign and being reaped.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

__all__ = ["HEARTBEAT_INTERVAL", "WorkerHandle", "worker_main"]

#: seconds between heartbeat touches inside the worker
HEARTBEAT_INTERVAL = 0.2
#: the manager's default patience before declaring a worker dead
DEFAULT_HEARTBEAT_TTL = 10.0
#: default checkpoint cadence for service campaigns: a full snapshot
#: every N rounds
DEFAULT_CHECKPOINT_EVERY = 32

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_BAD_JOB = 2


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _heartbeat_loop(path: Path, stop: threading.Event) -> None:
    while not stop.wait(HEARTBEAT_INTERVAL):
        try:
            path.touch()
        except OSError:  # pragma: no cover - job dir vanished under us
            return


def _write_atomic(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def worker_main(
    job_dir: str | Path,
    *,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
) -> int:
    from repro.errors import CheckpointError, DivergenceError
    from repro.recovery.checkpoint import resume_from_ledger
    from repro.recovery.ledger import CampaignLedger, LedgerReader
    from repro.service.request import CampaignRequest, run_request

    directory = Path(job_dir)
    job_path = directory / "job.json"
    try:
        payload = json.loads(job_path.read_text(encoding="utf-8"))
        request = CampaignRequest.from_json(payload["request"])
    except Exception:
        _write_atomic(
            directory / "error.txt",
            f"unreadable job record {job_path}:\n"
            f"{traceback.format_exc()}",
        )
        return EXIT_BAD_JOB

    ledger_path = directory / "campaign.jsonl"
    heartbeat = directory / "heartbeat"
    heartbeat.touch()
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop, args=(heartbeat, stop), daemon=True
    )
    beat.start()
    reader = LedgerReader(ledger_path)

    def ended() -> dict | None:
        for _ in reader.read():
            pass
        return reader.end

    try:
        if ledger_path.exists():
            # Durable state from a previous incarnation. Reopening the
            # ledger repairs a tail torn by its death (an end record
            # that lost only its newline counts); a campaign without
            # an end record then resumes. A ledger with no intact
            # checkpoint to resume from (killed before the first
            # snapshot) falls back to a fresh run appending to the same
            # ledger — determinism makes the replayed prefix identical,
            # so the stream's round dedupe still reconstructs the
            # straight-through sequence. A resume whose re-execution
            # diverges from the recorded rounds fails the job: a fresh
            # run would hide the divergence.
            CampaignLedger(ledger_path).close()
            if ended() is None:
                try:
                    resume_from_ledger(ledger_path, keep_checkpointing=True)
                except DivergenceError:
                    raise
                except CheckpointError:
                    pass
        if ended() is None:
            run_request(
                request,
                checkpoint_every=checkpoint_every,
                checkpoint_dir=directory / "checkpoints",
                ledger=ledger_path,
            )
        if ended() is None:
            raise RuntimeError(
                f"campaign finished but {ledger_path} has no end record"
            )
        return EXIT_OK
    except Exception:
        _write_atomic(directory / "error.txt", traceback.format_exc())
        return EXIT_FAILED
    finally:
        stop.set()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.service.worker",
        description="run one campaign service job to completion",
    )
    parser.add_argument("job_dir", help="the job's directory")
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=DEFAULT_CHECKPOINT_EVERY,
        metavar="N",
        help="checkpoint cadence in rounds (default %(default)s)",
    )
    args = parser.parse_args(argv)
    return worker_main(args.job_dir, checkpoint_every=args.checkpoint_every)


# ----------------------------------------------------------------------
# Manager side
# ----------------------------------------------------------------------
class WorkerHandle:
    """The manager's view of one worker subprocess."""

    def __init__(
        self,
        job_id: str,
        process: subprocess.Popen,
        heartbeat_path: Path,
        *,
        heartbeat_ttl: float = DEFAULT_HEARTBEAT_TTL,
    ) -> None:
        self.job_id = job_id
        self.process = process
        self.heartbeat_path = heartbeat_path
        self.heartbeat_ttl = heartbeat_ttl
        self.started_at = time.time()

    @property
    def pid(self) -> int:
        return self.process.pid

    def poll(self) -> int | None:
        return self.process.poll()

    def heartbeat_age(self) -> float:
        try:
            return time.time() - self.heartbeat_path.stat().st_mtime
        except OSError:
            # No beat yet: age since spawn, so a worker that never
            # starts up still expires.
            return time.time() - self.started_at

    def expired(self) -> bool:
        return self.heartbeat_age() > self.heartbeat_ttl

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def spawn_worker(
    job_id: str,
    job_dir: Path,
    *,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    heartbeat_ttl: float = DEFAULT_HEARTBEAT_TTL,
) -> WorkerHandle:
    """Launch ``python -m repro.service.worker`` for one job."""
    import repro

    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service.worker",
            str(job_dir),
            "--checkpoint-every",
            str(checkpoint_every),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return WorkerHandle(
        job_id,
        process,
        job_dir / "heartbeat",
        heartbeat_ttl=heartbeat_ttl,
    )


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
