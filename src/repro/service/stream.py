"""Incremental results: tail a campaign ledger as it is written.

:class:`ResultStream` follows a job's ``campaign.jsonl`` through one
:class:`~repro.recovery.ledger.LedgerReader`, which waits out a torn
final line and raises on a damaged one, and yields its records live
with round records **deduped by round number**: a resumed campaign
replays (and re-appends) the rounds since its last checkpoint. Resume
is byte-identical, so the replayed records equal the originals —
skipping any round number at or below the highest one already yielded
reconstructs exactly the straight-through sequence. This is the
mechanism behind the service's "streamed == one-shot" guarantee.

The stream ends when it sees an ``end`` record (yielded, so consumers
get the final values), when ``stop()`` returns true (job failed or
cancelled — no end record will ever come), or at ``timeout`` seconds.

:func:`ledger_progress` is the service's progress peek: one pass of a
job's reader, so it parses only what was appended since the last one.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Iterator

from repro.errors import CheckpointError, ServiceError
from repro.recovery.ledger import LedgerReader

__all__ = ["ResultStream", "ledger_progress"]


class ResultStream:
    def __init__(
        self,
        path: str | Path,
        *,
        poll_interval: float = 0.05,
        timeout: float | None = None,
        stop: Callable[[], bool] | None = None,
    ) -> None:
        self.path = Path(path)
        self.poll_interval = poll_interval
        self.timeout = timeout
        self._stop = stop
        self.last_round = 0

    def __iter__(self) -> Iterator[dict]:
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        reader = LedgerReader(self.path)
        while True:
            progressed = False
            for record in reader.read():
                progressed = True
                if record.get("type") == "round":
                    rnd = record.get("round", 0)
                    if rnd <= self.last_round:
                        continue  # resume replay duplicate
                    self.last_round = rnd
                yield record
                if record.get("type") == "end":
                    return
            if not progressed:
                if self._stop is not None and self._stop():
                    return
                if deadline is not None and time.monotonic() > deadline:
                    raise ServiceError(
                        f"timed out after {self.timeout}s streaming "
                        f"{self.path}"
                    )
                time.sleep(self.poll_interval)


def ledger_progress(reader: LedgerReader) -> tuple[int, dict | None]:
    """One pass of a job's ledger reader: ``(highest round seen, the
    newest campaign's end record or None)``.

    A damaged line ends the pass without raising (the job's worker
    fails the job), so the counts stay at the records before it.
    """
    try:
        for _ in reader.read():
            pass
    except CheckpointError:
        pass
    return reader.rounds, reader.end
