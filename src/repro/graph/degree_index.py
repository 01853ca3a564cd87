"""Incremental bucket index over an integer node statistic.

:class:`DegreeIndex` maintains, fully incrementally, a bucketing of a
node set by an integer key. :class:`~repro.core.network.SelfHealingNetwork`
keeps two, both fed from the nodes each heal touched: one keyed by
degree, one by degree increase δ. It exists to kill the O(n) per-round
full-node scans the targeted adversaries (max-node, NMS, min-degree,
max-δ-neighbor) used to perform: with it, "the extreme-key node,
smallest label on ties" is an amortized-O(1)-style indexed query instead
of a sweep, which is what turns an O(n²) full-kill targeted campaign
into a near-linear one.

Design: push-only lazy heaps over a ground-truth oracle
-------------------------------------------------------
The index never stores authoritative membership — the caller already has
it (the graph knows every node's degree, and with the baselines every
δ). The caller provides ``key_fn(node) -> int | None`` returning the
node's *current* key (``None`` once the node is gone), and must
:meth:`push` each node whose key changed, with its new key, before the
next query — the network does so once per heal for the nodes that heal
touched. That makes the update path one list append plus a cursor
comparison per touched node, with **zero** removal bookkeeping:

* ``push(node, key)`` appends to the bucket's staging list and raises the
  max/min cursors if needed. Entries are never proactively removed; an
  entry is *stale* exactly when ``key_fn(node) != key``, which the bucket
  checks lazily on query. A node at key ``k`` always has at least one
  entry in bucket ``k`` (it was pushed when it arrived), so discarding
  stale entries can never lose a live node.
* queries (:meth:`max_key`, :meth:`min_key`, :meth:`top_node`,
  :meth:`bottom_node`) settle the cursors toward the true extreme,
  folding each touched bucket's staged entries into its min-heap and
  popping stale tops. Every entry is heap-pushed at most once and popped
  at most once, and cursors only travel distance previously paid for by
  pushes — all query work is amortized against past mutations.

Tie-breaks: the heaps order labels ascending, so ``top_node`` /
``bottom_node`` return the *smallest label* in the extreme bucket — the
targeted adversaries' historical ``(key, label)`` scan order, preserved
byte-for-byte. Labels are only compared when they land in the same
bucket (equal keys), like the old scans' tie-break tuples; labels that
ever share a bucket must therefore be mutually orderable (the library
uses ints throughout).

Keys may be negative (δ routinely is); nodes are arbitrary hashables.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Hashable

from repro.errors import SimulationError

__all__ = ["DegreeIndex"]

Node = Hashable


class DegreeIndex:
    """Push-only bucket index with extreme-key cursors.

    >>> degrees = {3: 1, 1: 2, 2: 2, 0: 0}
    >>> idx = DegreeIndex(degrees.get)
    >>> for node, deg in degrees.items():
    ...     idx.push(node, deg)
    >>> idx.max_key(), idx.min_key()
    (2, 0)
    >>> idx.top_node()      # smallest label among max-key nodes
    1
    >>> degrees[1] = 5; idx.push(1, 5)
    >>> idx.top_node()
    1
    >>> del degrees[1]      # node 1 vanishes; its entries go stale
    >>> idx.max_key(), idx.top_node()
    (2, 2)
    """

    __slots__ = ("_key_fn", "_heaps", "_staged", "_max", "_min")

    def __init__(self, key_fn: Callable[[Node], int | None]) -> None:
        #: ground-truth oracle: the node's current key, None when gone
        self._key_fn = key_fn
        self._heaps: dict[int, list[Node]] = {}
        self._staged: dict[int, list[Node]] = {}
        self._max: int = 0
        self._min: int = 0

    # ------------------------------------------------------------------
    # Mutation — O(1), no comparisons
    # ------------------------------------------------------------------
    def push(self, node: Node, key: int) -> None:
        """Record that ``node``'s key just became ``key``."""
        staged = self._staged.get(key)
        if staged is None:
            staged = self._staged[key] = []
            self._heaps[key] = []
            if len(self._staged) == 1:
                self._max = self._min = key
        if key > self._max:
            self._max = key
        elif key < self._min:
            self._min = key
        staged.append(node)

    # ------------------------------------------------------------------
    # Queries — amortized against pushes
    # ------------------------------------------------------------------
    def _settle(self, key: int) -> Node | None:
        """Fold bucket ``key``'s staging into its heap and discard stale
        tops; return the smallest live label, or None after deleting the
        bucket because nothing in it is live."""
        heap = self._heaps.get(key)
        if heap is None:
            return None
        staged = self._staged[key]
        if staged:
            for node in staged:
                heappush(heap, node)
            staged.clear()
        key_fn = self._key_fn
        while heap:
            node = heap[0]
            if key_fn(node) == key:
                return node
            heappop(heap)
        del self._heaps[key]
        del self._staged[key]
        return None

    def max_key(self, default: int = 0) -> int:
        """Largest key with a live node (``default`` when empty)."""
        k = self._max
        while self._heaps:
            if self._settle(k) is not None:
                self._max = k
                return k
            k -= 1
        return default

    def min_key(self, default: int = 0) -> int:
        """Smallest key with a live node (``default`` when empty)."""
        k = self._min
        while self._heaps:
            if self._settle(k) is not None:
                self._min = k
                return k
            k += 1
        return default

    def top_node(self) -> Node | None:
        """Smallest label among maximum-key nodes; ``None`` when empty."""
        k = self._max
        while self._heaps:
            node = self._settle(k)
            if node is not None:
                self._max = k
                return node
            k -= 1
        return None

    def bottom_node(self) -> Node | None:
        """Smallest label among minimum-key nodes; ``None`` when empty."""
        k = self._min
        while self._heaps:
            node = self._settle(k)
            if node is not None:
                self._min = k
                return node
            k += 1
        return None

    def bucket(self, key: int) -> frozenset[Node]:
        """Snapshot of the live nodes currently at ``key``; O(bucket)."""
        heap = self._heaps.get(key)
        if heap is None:
            return frozenset()
        staged = self._staged[key]
        key_fn = self._key_fn
        return frozenset(
            node for node in (*heap, *staged) if key_fn(node) == key
        )

    # ------------------------------------------------------------------
    # Self-check
    # ------------------------------------------------------------------
    def check(self, expected: dict[Node, int]) -> None:
        """Verify the index against a freshly scanned ``node → key`` map.

        Confirms that every expected node is reachable in its key's
        bucket, that no bucket reports a live node the scan disagrees
        with, and that the cursor/tie-break queries return the scan's
        answers. Raises :class:`~repro.errors.SimulationError` on the
        first discrepancy — O(n + stale entries), meant for paranoid mode
        and tests.
        """
        live: dict[Node, int] = {}
        for key in list(self._heaps):
            for node in self.bucket(key):
                if expected.get(node) != key:
                    raise SimulationError(
                        f"bucket {key} reports live node {node!r}, "
                        f"scan says {expected.get(node)}"
                    )
                live[node] = key
        missing = expected.keys() - live.keys()
        if missing:
            raise SimulationError(
                f"nodes missing from index: {sorted(map(repr, missing))[:5]}"
            )
        if expected:
            true_max = max(expected.values())
            true_min = min(expected.values())
            if self.max_key() != true_max:
                raise SimulationError(
                    f"max cursor settled to {self.max_key()}, "
                    f"scan says {true_max}"
                )
            if self.min_key() != true_min:
                raise SimulationError(
                    f"min cursor settled to {self.min_key()}, "
                    f"scan says {true_min}"
                )
            top = min(u for u in expected if expected[u] == true_max)
            if self.top_node() != top:
                raise SimulationError(
                    f"top_node() = {self.top_node()!r}, scan says {top!r}"
                )
            bottom = min(u for u in expected if expected[u] == true_min)
            if self.bottom_node() != bottom:
                raise SimulationError(
                    f"bottom_node() = {self.bottom_node()!r}, "
                    f"scan says {bottom!r}"
                )
        else:
            if self.max_key(default=-(10**9)) != -(10**9):
                raise SimulationError("empty scan but index reports a max")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DegreeIndex(buckets={len(self._heaps)})"
