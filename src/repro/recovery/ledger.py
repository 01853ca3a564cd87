"""Append-only JSONL campaign ledger.

One file per campaign, one JSON object per line, every line flushed to
the OS before :meth:`CampaignLedger.append` returns — so after a SIGKILL
the ledger holds every completed round up to (at worst) one torn final
line, which :func:`read_ledger` tolerates. The recorder also fsyncs
the records resume depends on (campaign header, full-checkpoint
references, end); round and delta-checkpoint records are only flushed,
so a machine crash can lose the ones since the last full checkpoint.
The record stream:

``{"type": "campaign", ...}``
    Header: ledger format version, engine parameters, the checkpoint
    directory (if checkpointing is on), initial population.
``{"type": "round", "round": r, "victims": [...], ...}``
    One per completed round/wave: who died, cumulative deletions,
    survivors. This is the audit/replay trail — a
    :class:`~repro.adversary.scripted.ScriptedAttack` over the
    concatenated victims replays the campaign on any healer.
``{"type": "checkpoint", "round": r, "file": ..., "sha256": ...}``
    A checkpoint was durably written; the hash lets resume reject a
    checkpoint torn by a crash mid-write (belt — the atomic
    write-rename in :mod:`~repro.recovery.checkpoint` is suspenders).
``{"type": "resumed", "round": r, ...}``
    A resume picked up from the named checkpoint.
``{"type": "end", "values": {...}, ...}``
    Campaign finished normally (absent after a crash — its absence is
    how :func:`~repro.recovery.checkpoint.resume_from_ledger` knows
    there is work to do).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Iterable

from repro.errors import CheckpointError

__all__ = [
    "LEDGER_VERSION",
    "CampaignLedger",
    "latest_campaign",
    "read_ledger",
]

LEDGER_VERSION = 1


class CampaignLedger:
    """Append-only JSONL writer with tiered durability.

    Opens in append mode, so resuming a campaign keeps extending the
    same file. Usable as a context manager; :meth:`append` after
    :meth:`close` raises.

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


def read_ledger(path: str | Path, *, strict: bool = False) -> list[dict]:
    """Parse a ledger file into its records.

    A torn *final* line — the signature of a crash mid-append — is
    dropped silently; an undecodable line anywhere else means real
    corruption and raises :class:`~repro.errors.CheckpointError`
    (``strict=True`` makes even the torn tail raise).
    """
    ledger_path = Path(path)
    try:
        raw = ledger_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointError(
            f"cannot read ledger {ledger_path}: {exc}"
        ) from exc
    records: list[dict] = []
    lines = raw.split("\n")
    # A well-formed file ends with "\n", so the final split element is
    # empty; anything else is a torn tail.
    for lineno, line in enumerate(lines, 1):
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            if lineno == len(lines) and not strict:
                break
            raise CheckpointError(
                f"corrupt ledger {ledger_path} at line {lineno}: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise CheckpointError(
                f"corrupt ledger {ledger_path} at line {lineno}: "
                f"expected an object, got {type(record).__name__}"
            )
        records.append(record)
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
