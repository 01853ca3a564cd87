"""The dict-of-sets graph, preserved verbatim as a test reference.

This is :class:`repro.graph.graph.Graph` as it stood while the library
kept two graph backends: node labels are arbitrary hashables, adjacency
is a dict of sets, and iteration follows insertion order. The library's
one ``Graph`` is now the slot store; the differential suites
(``tests/integration/test_backend_differential.py``, the bench gates)
run each campaign on a :func:`reference_copy` of the generated graph
too and compare every observable. ``SelfHealingNetwork`` builds G′ as
``type(graph)(graph.nodes())``, so a reference campaign stays on this
class, and the fused kernel's exact-type check keeps it on the generic
loop. Three things were added since: an ``__eq__`` that compares
adjacency with the slot store too, the slot store's ``check_label``
(a churn join runs it), and :func:`reference_copy`; the class was
renamed, its ``backend`` attribute dropped, and its ``degree_listener``
and degree index (with the extreme-degree queries and the original
docstring's note on them) removed with the library graph's: the network
keeps the degree and δ indexes itself.

Do not "improve" this file otherwise; its value is that it does not
change.

Original module docstring follows.

---

Dynamic undirected simple graph backed by adjacency sets.

This is the substrate the whole reproduction runs on. The self-healing
simulation makes three kinds of topology changes at high frequency —
node deletion (the adversary), edge insertion (the healer), and neighbor
queries (both) — so the structure is optimized for O(1) expected-time
mutation and neighbor iteration rather than for static analytics.

Design notes
------------
* Nodes are arbitrary hashable labels; the library itself uses ints.
* Simple graph: no self-loops, no parallel edges. Healing algorithms in
  the paper never need either, and forbidding them catches bugs early.
* ``neighbors()`` returns an *immutable snapshot* (a ``frozenset`` copy);
  ``neighbors_view()`` is the live no-copy alternative for hot loops.
* No edge/node attribute dictionaries: per-node algorithm state (IDs,
  degree deltas, weights) lives in the healing context, not the graph,
  which keeps this structure lean and the healers explicit about state.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

from repro.errors import (
    EdgeNotFoundError,
    NodeNotFoundError,
    SelfLoopError,
)
from repro.graph.graph import Graph

__all__ = ["ReferenceGraph", "reference_copy"]

Node = Hashable


class ReferenceGraph:
    """Mutable undirected simple graph.

    >>> g = ReferenceGraph.from_edges([(0, 1), (1, 2)])
    >>> g.degree(1)
    2
    >>> sorted(g.remove_node(1))
    [0, 2]
    >>> sorted(g.nodes())
    [0, 2]
    >>> g.num_edges
    0
    """

    __slots__ = ("_adj", "_num_edges")

    def __init__(self, nodes: Iterable[Node] = ()) -> None:
        self._adj: dict[Node, set[Node]] = {}
        self._num_edges: int = 0
        for node in nodes:
            self.add_node(node)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[Node, Node]], nodes: Iterable[Node] = ()
    ) -> "ReferenceGraph":
        """Build a graph from an edge list (plus optional isolated nodes)."""
        g = cls(nodes)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def copy(self) -> "ReferenceGraph":
        """Deep copy of the topology (node labels are shared, sets are not)."""
        g = ReferenceGraph()
        g._adj = {u: set(nbrs) for u, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        return g

    def subgraph(self, keep: Iterable[Node]) -> "ReferenceGraph":
        """Induced subgraph on ``keep`` (unknown labels are ignored).

        Built by intersecting adjacency sets directly — no per-edge
        ``has_edge`` probes, and each undirected edge is materialized once
        per endpoint by the set intersection itself.
        """
        keep_set = {u for u in keep if u in self._adj}
        g = ReferenceGraph()
        adj = {u: self._adj[u] & keep_set for u in keep_set}
        g._adj = adj
        g._num_edges = sum(len(nbrs) for nbrs in adj.values()) // 2
        return g

    def degree_of(self, node: Node) -> int | None:
        """Degree of ``node``, or ``None`` when absent (no exception).

        The non-raising sibling of :meth:`degree`; also the cheapest
        building block for the network's δ oracle.
        """
        nbrs = self._adj.get(node)
        return None if nbrs is None else len(nbrs)

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add ``node`` (idempotent)."""
        if node not in self._adj:
            self._adj[node] = set()

    def remove_node(self, node: Node) -> set[Node]:
        """Remove ``node`` and all incident edges; returns its ex-neighbor
        set (ownership transfers to the caller — the graph no longer
        references it, so no defensive copy is needed).

        Raises :class:`NodeNotFoundError` if absent — deleting a node twice
        in the simulation is always a logic error worth failing loudly on.
        """
        try:
            nbrs = self._adj.pop(node)
        except KeyError:
            raise NodeNotFoundError(node) from None
        for v in nbrs:
            self._adj[v].discard(node)
        self._num_edges -= len(nbrs)
        return nbrs

    def has_node(self, node: Node) -> bool:
        return node in self._adj

    def nodes(self) -> Iterator[Node]:
        """Iterate over node labels (insertion order)."""
        return iter(self._adj)

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def add_edge(self, u: Node, v: Node) -> bool:
        """Add edge ``{u, v}``, creating endpoints as needed.

        Returns ``True`` when the edge was newly inserted, ``False`` when it
        already existed (the healers use the return value to count *new*
        healing edges). Self-loops raise :class:`SelfLoopError`.
        """
        if u == v:
            raise SelfLoopError(u)
        self.add_node(u)
        self.add_node(v)
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        return True

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove edge ``{u, v}``; raises :class:`EdgeNotFoundError` if absent."""
        if u not in self._adj:
            raise NodeNotFoundError(u)
        if v not in self._adj:
            raise NodeNotFoundError(v)
        if v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1

    def has_edge(self, u: Node, v: Node) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Iterate each undirected edge exactly once as ``(u, v)``.

        The orientation is the one in which the edge is first discovered
        during iteration; callers needing canonical order should sort.
        """
        seen: set[Node] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    # ------------------------------------------------------------------
    # Neighborhood queries
    # ------------------------------------------------------------------
    def neighbors(self, node: Node) -> frozenset[Node]:
        """Neighbors of ``node`` as an immutable snapshot.

        Returns a ``frozenset`` copy: O(deg) but safe against concurrent
        mutation, which the healing loops perform constantly (for the
        live, no-copy alternative see :meth:`neighbors_view`). Profiling
        on the fig8 workload showed the copies are <3% of runtime, a
        price worth paying for mutation safety.
        """
        try:
            return frozenset(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def neighbors_view(self, node: Node) -> set[Node]:
        """The *live* adjacency set (no copy). Callers must not mutate it
        and must not hold it across topology mutations. Used in hot
        traversal loops (BFS) where the copy in :meth:`neighbors` shows up
        in profiles."""
        try:
            return self._adj[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degree(self, node: Node) -> int:
        try:
            return len(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degrees(self) -> dict[Node, int]:
        """Degree of every node as a dict (snapshot)."""
        return {u: len(nbrs) for u, nbrs in self._adj.items()}

    def degrees_of(
        self, nodes: Iterable[Node], offset: int = 0
    ) -> dict[Node, int]:
        """Degree (+``offset``) of each of ``nodes`` as a dict.

        Bulk sibling of :meth:`degree` for the per-round snapshot builds
        (one dict comprehension, no per-node method dispatch); ``offset``
        lets the deletion path reconstruct pre-round degrees from
        post-removal adjacency. Raises :class:`NodeNotFoundError` on the
        first unknown node.
        """
        adj = self._adj
        try:
            return {u: len(adj[u]) + offset for u in nodes}
        except KeyError as exc:
            raise NodeNotFoundError(exc.args[0]) from None

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same node set and same edge set, against
        a reference graph or a :class:`~repro.graph.graph.Graph` (whose
        edgeless slots equal empty sets)."""
        if isinstance(other, ReferenceGraph):
            return self._adj == other._adj
        if isinstance(other, Graph):
            return self._adj == {
                u: s for u, s in enumerate(other._nbrs) if s is not None
            }
        return NotImplemented

    def check_label(self, node: Node) -> None:
        """The slot store's label rule (:meth:`Graph.check_label`), over
        the slots this graph's labels would take there."""
        Graph(sorted(self._adj)).check_label(node)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReferenceGraph(n={self.num_nodes}, m={self.num_edges})"


def reference_copy(graph: Graph) -> ReferenceGraph:
    """``graph``'s topology as a reference graph: one ``set(s)`` per live
    slot, as :meth:`Graph.copy` makes them."""
    g = ReferenceGraph()
    g._adj = {u: set(s) for u, s in enumerate(graph._nbrs) if s is not None}
    g._num_edges = graph.num_edges
    return g
