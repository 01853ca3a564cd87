"""LEVELATTACK — the lower-bound adversary (Algorithm 2) with Prune.

Theorem 2 shows that any M-degree-bounded locality-aware healer can be
forced to give some node degree increase ≥ log n. The witness strategy
works on a complete (M+2)-ary tree and sweeps level by level from just
above the leaves up to the root:

    for level i = D−1 … 0, for each surviving original node v at level i:
        while v has more than M+2 current children:
            Prune away the child subtree with the least degree increase
        delete v

**Prune(r, s)** removes the subtree hanging off child ``s`` of ``r`` by
repeatedly deleting its *leaf* nodes. Deleting a degree-1 node costs the
healer nothing (a single neighbor needs no reconnection edges) and gives
no node any degree — pruning is how the adversary discards low-δ children
without feeding the healer.

Implementation notes
--------------------
* The initial graph must be :func:`~repro.graph.generators.complete_kary_tree`
  with the matching branching factor; heap-order labels give us original
  levels and parents for free.
* For any component-safe healer, a tree stays a tree under heal (each
  deleted node's neighbors lie in distinct components of G−v, so the RT
  spans all of them and adds exactly the edges a spanning tree needs), so
  "current children of v" = current G-neighbors minus v's original
  parent, which survives until its own level is processed.
* Pruning deletes the doomed subtree deepest-first; since deleting a
  degree-1 node changes nothing else, the precomputed order stays valid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Hashable, Iterator

from repro.adversary.base import Adversary
from repro.errors import AdversaryError, ConfigurationError
from repro.graph.generators import kary_level, kary_parent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.network import SelfHealingNetwork

__all__ = ["LevelAttack", "prune_order"]

Node = Hashable


def prune_order(graph, avoid: Node, start: Node) -> list[Node]:
    """Deletion order that removes the component of ``start`` in G−``avoid``
    leaf-first (deepest BFS layer first, ties by label).

    On a tree this guarantees every node is degree ≤ 1 at its turn, so
    the healer never has anything to reconnect.
    """
    if not graph.has_node(start):
        raise AdversaryError(f"prune start {start!r} not in graph")
    # BFS from `start` while refusing to cross `avoid`.
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt: list[Node] = []
        for u in frontier:
            for v in graph.neighbors_view(u):
                if v != avoid and v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return sorted(dist, key=lambda u: (-dist[u], u))


class LevelAttack(Adversary):
    """Algorithm 2 on a complete (M+2)-ary tree.

    Parameters
    ----------
    branching:
        The tree's branching factor, i.e. M+2 where M is the healer's
        per-round degree bound.
    """

    name: ClassVar[str] = "level-attack"
    #: the level-by-level sweep lives in a suspended generator whose
    #: position cannot be serialized — campaigns under LEVELATTACK
    #: cannot be checkpointed (run them straight through)
    checkpointable: ClassVar[bool] = False

    def __init__(self, branching: int) -> None:
        if branching < 2:
            raise ConfigurationError(
                f"branching must be >= 2, got {branching}"
            )
        self.branching = branching

    def agenda(self, network: "SelfHealingNetwork") -> Iterator[Node]:
        b = self.branching
        n0 = network.initial_n
        labels = sorted(network.initial_degree)
        if labels != list(range(n0)):
            raise AdversaryError(
                "LevelAttack requires complete_kary_tree heap labels 0..n-1"
            )
        depth = kary_level(n0 - 1, b)
        if depth == 0:
            yield 0
            return

        for level in range(depth - 1, -1, -1):
            level_nodes = [
                u for u in range(n0)
                if kary_level(u, b) == level
            ]
            for v in level_nodes:
                if not network.graph.has_node(v):
                    continue
                parent = kary_parent(v, b)
                # Prune excess children down to exactly b of them,
                # discarding the lowest-δ subtrees.
                while True:
                    children = self._current_children(network, v, parent)
                    if len(children) <= b:
                        break
                    worst = min(
                        children, key=lambda c: (network.delta(c), c)
                    )
                    for victim in prune_order(network.graph, v, worst):
                        yield victim
                yield v

    @staticmethod
    def _current_children(
        network: "SelfHealingNetwork", v: Node, parent: Node | None
    ) -> list[Node]:
        nbrs = set(network.graph.neighbors(v))
        if parent is not None:
            nbrs.discard(parent)
        return sorted(nbrs)

    def expected_lower_bound(self, n: int) -> int:
        """Theorem 2's forced degree increase D = log_{M+2}-depth of the tree."""
        depth = 0
        while (self.branching ** (depth + 1) - 1) // (self.branching - 1) <= n:
            depth += 1
        return depth - 1 if depth > 0 else 0
