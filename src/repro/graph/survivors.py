"""Surviving node labels as an order-statistic sequence.

:meth:`~repro.core.network.SelfHealingNetwork.survivors` keeps the live
labels in ascending order in one :class:`SurvivorSequence`, which its
heals update: :class:`~repro.adversary.classic.RandomAttack` (one
``choice`` per round), :class:`~repro.adversary.waves.RandomWaveAttack`
(one ``sample`` per wave) and the fused kernel (:mod:`repro.sim.fastpath`)
draw from it. :class:`~repro.churn.adversaries.ChurnAdversary` keeps its
own, in ``repr`` order, to draw its joiners' attach targets. A sorted
list would move every later slot at each death or join.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterator, Sequence
from typing import Callable, Hashable

__all__ = ["SurvivorSequence"]

Node = Hashable

#: block size: a block splits in two past twice this
_BLOCK = 1024


class SurvivorSequence(Sequence):
    """Survivors sorted by ``key`` (natural order when ``None``), as an
    order-statistic sequence.

    Sorted blocks of at most ``2 * _BLOCK`` labels, found by bisecting
    the key of each block's last label; a Fenwick tree over the block
    sizes finds the block of ``self[i]`` in O(log blocks). A death or a
    join moves one block's slots. With no key, every bisection compares
    labels directly, with no Python call per comparison.

    ``random.Random.choice`` and ``random.Random.sample`` draw from this
    exactly as from the sorted list: it is a ``Sequence`` with the same
    ``len``, the same label at every index, and the same iteration order
    (``sample`` copies small populations with ``list``). So draws, and
    the RNG state they leave, are byte-identical to the list's.
    """

    __slots__ = ("_key", "_blocks", "_maxes", "_tree", "_top", "_len")

    def __init__(
        self,
        ordered: list[Node],
        *,
        key: Callable[[Node], object] | None = None,
    ) -> None:
        """``ordered`` must already be sorted by ``key``."""
        self._key = key
        self._blocks = [
            ordered[i : i + _BLOCK] for i in range(0, len(ordered), _BLOCK)
        ]
        self._maxes = [
            block[-1] if key is None else key(block[-1])
            for block in self._blocks
        ]
        self._len = len(ordered)
        self._reindex()

    def _reindex(self) -> None:
        """Rebuild the Fenwick tree over the block sizes in O(blocks),
        after a block split or emptied."""
        blocks = self._blocks
        nb = len(blocks)
        tree = [0] * (nb + 1)
        for i in range(1, nb + 1):
            tree[i] += len(blocks[i - 1])
            j = i + (i & -i)
            if j <= nb:
                tree[j] += tree[i]
        self._tree = tree
        self._top = 1 << (nb.bit_length() - 1) if nb else 0

    def _bump(self, b: int, delta: int) -> None:
        """Block ``b`` changed size by ``delta``: a Fenwick update."""
        tree = self._tree
        nb = len(tree) - 1
        j = b + 1
        while j <= nb:
            tree[j] += delta
            j += j & -j

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> Node:
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("survivor index out of range")
        # Fenwick descent to the block holding the (i+1)-th label.
        k = i + 1
        pos = 0
        bit = self._top
        tree = self._tree
        nb = len(tree) - 1
        while bit:
            npos = pos + bit
            if npos <= nb and tree[npos] < k:
                pos = npos
                k -= tree[npos]
            bit >>= 1
        return self._blocks[pos][k - 1]

    def __iter__(self) -> Iterator[Node]:
        for block in self._blocks:
            yield from block

    def add(self, node: Node) -> None:
        key = self._key
        k = node if key is None else key(node)
        blocks = self._blocks
        maxes = self._maxes
        if not blocks:
            blocks.append([])
            maxes.append(k)
            self._reindex()
        b = bisect_left(maxes, k)
        if b == len(blocks):
            b -= 1
            maxes[b] = k
        block = blocks[b]
        insort(block, node, key=key)
        self._len += 1
        if len(block) <= 2 * _BLOCK:
            self._bump(b, 1)
        else:
            blocks[b : b + 1] = [block[:_BLOCK], block[_BLOCK:]]
            last = block[_BLOCK - 1]
            maxes.insert(b, last if key is None else key(last))
            self._reindex()

    def discard(self, node: Node) -> None:
        key = self._key
        k = node if key is None else key(node)
        maxes = self._maxes
        b = bisect_left(maxes, k)
        if b == len(maxes):
            return
        block = self._blocks[b]
        i = bisect_left(block, k, key=key)
        if i == len(block) or block[i] != node:
            return
        del block[i]
        self._len -= 1
        if block:
            if i == len(block):
                last = block[-1]
                maxes[b] = last if key is None else key(last)
            self._bump(b, -1)
        else:
            del self._blocks[b]
            del maxes[b]
            self._reindex()
