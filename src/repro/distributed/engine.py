"""Synchronous message-passing engine.

Discrete rounds with unit link latency: every message sent during round
``r`` is delivered at the start of round ``r+1`` (the classic synchronous
network model, and the natural fit for the paper's "latency measured in
hops" accounting). The engine is transport only — it moves messages,
counts them, and detects quiescence; all protocol logic lives in
:mod:`repro.distributed.node`.

Per-node sent/received counters are kept *per message kind*, so the
experiment harness can compare the ID-maintenance traffic (Lemma 8's
quantity) against the centralized simulator's accounting while reporting
the NoN-maintenance overhead separately.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable, Protocol

from repro.distributed.messages import Message, MsgKind
from repro.errors import ProtocolError
from repro.utils.rng import make_rng, rng_state_from_json, rng_state_to_json

__all__ = ["SyncEngine", "Process"]

Node = Hashable


class Process(Protocol):
    """What the engine requires of a protocol participant."""

    def handle(self, message: Message) -> None:  # pragma: no cover - protocol
        ...


class SyncEngine:
    """Round-based transport with quiescence detection.

    Usage: processes call :meth:`send` from inside their handlers; the
    driver injects initial messages with :meth:`post` and then calls
    :meth:`run_until_quiescent`.
    """

    def __init__(self, *, jitter: int = 0, seed: int = 0) -> None:
        """``jitter=0`` is the classic synchronous model (unit latency).
        ``jitter=k`` delays each protocol message by an extra seeded-random
        0..k rounds — the asynchronous model. Oracle messages (deletion
        notices, injected via :meth:`post`) are never jittered: the
        paper's failure-detection assumption notifies all neighbors of a
        crash simultaneously."""
        if jitter < 0:
            raise ProtocolError(f"jitter must be >= 0, got {jitter}")
        self.jitter = jitter
        self._rng = make_rng(seed)
        self._processes: dict[Node, Process] = {}
        #: (due_round, sequence, message) — delivered in this sort order
        self._pending: list[tuple[int, int, Message]] = []
        self._seq = 0
        self.rounds_elapsed = 0
        self.sent_by_kind: dict[MsgKind, int] = defaultdict(int)
        self.sent_by_node: dict[Node, dict[MsgKind, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.received_by_node: dict[Node, dict[MsgKind, int]] = defaultdict(
            lambda: defaultdict(int)
        )

    def rng_state(self) -> dict:
        """JSON-safe snapshot of the jitter RNG (the engine's only
        stochastic state); pairs with :meth:`restore_rng_state` so a
        long asynchronous-model run can be frozen and resumed with the
        identical delay stream."""
        return rng_state_to_json(self._rng)

    def restore_rng_state(self, payload: dict) -> None:
        """Restore the jitter RNG from a :meth:`rng_state` snapshot."""
        rng_state_from_json(payload, self._rng)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, node: Node, process: Process) -> None:
        if node in self._processes:
            raise ProtocolError(f"process {node!r} already registered")
        self._processes[node] = process

    def unregister(self, node: Node) -> None:
        self._processes.pop(node, None)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _enqueue(self, message: Message, extra_delay: int) -> None:
        self._pending.append(
            (self.rounds_elapsed + 1 + extra_delay, self._seq, message)
        )
        self._seq += 1

    def send(self, message: Message) -> None:
        """Queue ``message`` for delivery after 1 + jitter rounds.

        Sends to unregistered (dead) destinations are counted as sent and
        then dropped at delivery — exactly what a real network does with
        packets to a crashed peer.
        """
        delay = self._rng.randint(0, self.jitter) if self.jitter else 0
        self._enqueue(message, delay)
        self.sent_by_kind[message.kind] += 1
        self.sent_by_node[message.src][message.kind] += 1

    def post(self, message: Message) -> None:
        """Inject an oracle message (deletion notices). Never jittered —
        crash detection is simultaneous across the victim's neighbors."""
        self._enqueue(message, 0)

    def step(self) -> int:
        """Advance one round, delivering everything due; returns count."""
        self.rounds_elapsed += 1
        due = [
            item for item in self._pending if item[0] <= self.rounds_elapsed
        ]
        self._pending = [
            item for item in self._pending if item[0] > self.rounds_elapsed
        ]
        due.sort()
        delivered = 0
        for _, _, msg in due:
            proc = self._processes.get(msg.dst)
            if proc is None:
                continue  # destination died
            self.received_by_node[msg.dst][msg.kind] += 1
            proc.handle(msg)
            delivered += 1
        return delivered

    def run_until_quiescent(self, max_rounds: int = 10_000) -> int:
        """Step until no messages remain in flight; returns rounds used."""
        used = 0
        while self._pending:
            if used >= max_rounds:
                raise ProtocolError(
                    f"protocol failed to quiesce within {max_rounds} rounds "
                    f"({len(self._pending)} messages still pending)"
                )
            self.step()
            used += 1
        return used

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------
    def messages_sent(self, node: Node, kind: MsgKind | None = None) -> int:
        counts = self.sent_by_node.get(node, {})
        if kind is None:
            return sum(counts.values())
        return counts.get(kind, 0)

    def messages_received(
        self, node: Node, kind: MsgKind | None = None
    ) -> int:
        counts = self.received_by_node.get(node, {})
        if kind is None:
            return sum(counts.values())
        return counts.get(kind, 0)

    def total_sent(self, kind: MsgKind | None = None) -> int:
        if kind is None:
            return sum(self.sent_by_kind.values())
        return self.sent_by_kind.get(kind, 0)
