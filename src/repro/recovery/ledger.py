"""Append-only JSONL campaign ledger.

One file per campaign, one JSON object per line, every line flushed to
the OS before :meth:`CampaignLedger.append` returns — so after a SIGKILL
the ledger holds every completed round up to (at worst) one torn final
line. The recorder also fsyncs the records resume depends on (campaign
header, checkpoint references, end); round records are only flushed,
so a machine crash can lose the ones since the last checkpoint. The
record stream:

``{"type": "campaign", ...}``
    Header: ledger format version, engine parameters, the checkpoint
    directory (if checkpointing is on), initial population.
``{"type": "round", "round": r, "victims": [...], "heals": [...], ...}``
    One per completed round/wave: who died (or the churn ops),
    cumulative deletions, survivors, and each heal's
    :meth:`~repro.core.network.HealEvent.fingerprint`. This is the
    audit/replay trail — a
    :class:`~repro.adversary.scripted.ScriptedAttack` over the
    concatenated victims replays the campaign on any healer — and the
    resume tripwire: every round re-executed after the restored
    snapshot must reproduce every field its record holds.
``{"type": "checkpoint", "round": r, "kind": ..., "file": ..., ...}``
    A snapshot (``init`` or ``full``) was durably written; its
    ``sha256`` lets resume reject a checkpoint torn by a crash
    mid-write (belt — the atomic write-rename in
    :mod:`~repro.recovery.checkpoint` is suspenders).
``{"type": "resumed", "round": r, ...}``
    A resume picked up from the named checkpoint.
``{"type": "end", "values": {...}, ...}``
    Campaign finished normally (absent after a crash — its absence is
    how :func:`~repro.recovery.checkpoint.resume_from_ledger` knows
    there is work to do). A service job's result is this record.

Every ledger read goes through :class:`LedgerReader`, which parses only
the bytes appended since its last pass, and every line through one
check (:func:`_decode`): a record if and only if it decodes to a JSON
object. A torn final line waits for its newline; :func:`read_ledger`
keeps it, and a reopening writer terminates it, only if it passes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Iterable, Iterator

from repro.errors import CheckpointError

__all__ = [
    "LEDGER_VERSION",
    "CampaignLedger",
    "LedgerReader",
    "latest_campaign",
    "read_ledger",
]

LEDGER_VERSION = 1

#: the JSON document at the start of a string; half the cost per line of
#: ``json.loads``, which scans both ends with a regex
_RAW_DECODE = json.JSONDecoder().raw_decode


class CampaignLedger:
    """Append-only JSONL writer with tiered durability.

    Opens in append mode, so resuming a campaign keeps extending the
    same file; an unterminated final line left by a crash mid-append is
    cut off first (see :func:`_drop_torn_tail`), so the next record
    starts a line of its own. Usable as a context manager;
    :meth:`append` after :meth:`close` raises.

    Every append is flushed to the OS before returning, which survives
    any *process* death (SIGKILL included — the page cache belongs to
    the kernel, not the process). ``sync=True`` additionally ``fsync``\\ s
    for machine-crash durability; the recorder uses it for the
    structural records resume depends on (campaign header, checkpoint
    references, end), while high-frequency round records ride the flush
    tier — a power loss can cost at most the audit records since the
    last checkpoint, never the ability to resume.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        _drop_torn_tail(self.path)
        self._fh: IO[str] | None = open(  # noqa: SIM115 - owned handle
            self.path, "a", encoding="utf-8"
        )

    def append(self, record: dict, *, sync: bool = True) -> None:
        """Serialize, write, and flush one record (``fsync`` iff
        ``sync``)."""
        if self._fh is None:
            raise CheckpointError(
                f"ledger {self.path} is closed (append after close)"
            )
        if "type" not in record:
            raise CheckpointError(
                f"ledger record needs a 'type' field: {record!r}"
            )
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        self._fh.write(line + "\n")
        self._fh.flush()
        if sync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CampaignLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._fh is None else "open"
        return f"CampaignLedger({str(self.path)!r}, {state})"


def _decode(line: bytes) -> dict:
    """The one check of a ledger line: it is a record if and only if it
    decodes to a JSON object. Anything else raises ``ValueError``."""
    text = line.decode("utf-8").strip(" \t\n\r")
    record, end = _RAW_DECODE(text)
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    if not isinstance(record, dict):
        raise ValueError(f"expected an object, got {type(record).__name__}")
    return record


class LedgerReader:
    """One ledger, read incrementally: each :meth:`read` yields the
    records appended since the previous one (a missing file has none).

    The position is the end of the last complete line decoded, so an
    unterminated final line is re-read from its start until its newline
    lands, and a writer that cuts or terminates it cannot misalign the
    reader. A line that is not a record raises
    :class:`~repro.errors.CheckpointError` naming the file and line, and
    the position stays before it. Records are folded, not kept:
    ``rounds`` is the highest round seen (``end`` records' included),
    ``end`` the newest campaign's ``end`` record or ``None``.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.offset = 0
        self.lineno = 0
        self.rounds = 0
        self.end: dict | None = None

    def read(self) -> Iterator[dict]:
        """Yield the records appended since the last read."""
        try:
            fh = open(self.path, "rb")  # noqa: SIM115 - closed below
        except FileNotFoundError:
            return
        except OSError as exc:
            raise CheckpointError(
                f"cannot read ledger {self.path}: {exc}"
            ) from exc
        with fh:
            fh.seek(self.offset)
            for line in fh:
                if line[-1:] != b"\n":
                    return  # torn: re-read from its start next time
                try:
                    record = _decode(line)
                except ValueError as exc:
                    raise self._corrupt(exc) from exc
                kind = record.get("type")
                if kind == "round":
                    self.rounds = max(self.rounds, record.get("round", 0))
                elif kind == "end":
                    self.rounds = max(self.rounds, record.get("rounds", 0))
                    self.end = record
                elif kind == "campaign":
                    self.end = None
                self.offset += len(line)
                self.lineno += 1
                yield record

    def _corrupt(self, exc: ValueError) -> CheckpointError:
        return CheckpointError(
            f"corrupt ledger {self.path} at line {self.lineno + 1}: {exc}"
        )


def _drop_torn_tail(path: Path) -> None:
    """Cut an unterminated final line — a crash mid-append — back to
    the last newline, so the next append starts a line of its own
    instead of gluing onto the fragment and corrupting that line for
    good. A fragment that passes :func:`_decode` is a record that lost
    only its newline, so it is kept and terminated instead.
    """
    try:
        fh = open(path, "r+b")  # noqa: SIM115 - closed below
    except FileNotFoundError:
        return
    with fh:
        end = fh.seek(0, os.SEEK_END)
        start = end
        while start > 0:
            step = min(start, 1 << 16)
            fh.seek(start - step)
            cut = fh.read(step).rfind(b"\n")
            if cut >= 0:
                start += cut + 1 - step
                break
            start -= step
        if start == end:
            return
        fh.seek(start)
        try:
            _decode(fh.read())
        except ValueError:
            fh.truncate(start)
        else:
            fh.write(b"\n")
        fh.flush()
        os.fsync(fh.fileno())


def read_ledger(path: str | Path, *, strict: bool = False) -> list[dict]:
    """Parse a whole ledger file (which must exist) into its records.

    A torn *final* line — the signature of a crash mid-append — is
    dropped silently unless it is a record that lost only its newline;
    a line that is not a record anywhere else means real corruption and
    raises :class:`~repro.errors.CheckpointError` (``strict=True`` makes
    even the torn tail raise).
    """
    reader = LedgerReader(path)
    records = list(reader.read())
    try:
        with open(reader.path, "rb") as fh:
            fh.seek(reader.offset)
            tail = fh.read()
    except OSError as exc:
        raise CheckpointError(
            f"cannot read ledger {reader.path}: {exc}"
        ) from exc
    if tail:
        try:
            records.append(_decode(tail))
        except ValueError as exc:
            if strict:
                raise reader._corrupt(exc) from exc
    return records


def latest_campaign(records: Iterable[dict]) -> tuple[dict, list[dict]]:
    """The last campaign header in ``records`` and the records after it.

    Ledgers normally hold one campaign, but append mode means a reused
    path accumulates several; resume always targets the newest.
    """
    header = None
    tail: list[dict] = []
    for record in records:
        if record.get("type") == "campaign":
            header = record
            tail = []
        elif header is not None:
            tail.append(record)
    if header is None:
        raise CheckpointError("ledger contains no campaign header record")
    return header, tail
