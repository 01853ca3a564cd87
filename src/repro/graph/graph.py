"""Dynamic undirected simple graph on a slot store.

This is the substrate the whole reproduction runs on. The self-healing
simulation makes three kinds of topology changes at high frequency —
node deletion (the adversary), edge insertion (the healer), and neighbor
queries (both) — so the structure is optimized for O(1) mutation and
neighbor iteration rather than for static analytics.

Design notes
------------
* Node labels are non-negative ints, as every generator labels
  ``0..n-1``, and a label is a slot index: ``_nbrs[u]`` holds u's
  adjacency. :meth:`Graph.check_label` is the one label rule;
  :meth:`Graph.add_node` runs it on every new label, and a churn join
  before any mutation.
* A slot is ``None`` (dead or never used), :data:`EDGELESS` (one shared
  immutable empty ``frozenset``: alive, no edges) or the node's own
  ``set``, created at its first edge — so a fresh healing graph G′
  allocates nothing per node. Readers need not tell the last two
  apart; every writer, the fused kernel (:mod:`repro.sim.fastpath`)
  included, swaps the marker for a new set before writing. Removal
  tombstones the slot; re-adding the label reuses it.
* Memory grows with the largest label: 8 bytes per slot up to it.
  Growth past the end doubles the store, and a label that would grow it
  past twice its slot count plus :data:`GROWTH_SLACK` slots is refused,
  so no label from outside (an edge list, a churn trace) allocates
  gigabytes.
* :meth:`Graph.nodes`, :meth:`Graph.edges` and :meth:`Graph.degrees`
  run in ascending label order — insertion order for every generator.
* Simple graph: no self-loops, no parallel edges. ``neighbors()``
  returns an immutable snapshot; ``neighbors_view()`` is the live
  no-copy alternative for hot loops. No attribute dictionaries:
  per-node algorithm state lives in the healing context.
* The graph keeps adjacency and counts only, no derived state: the
  degree and δ indexes the targeted adversaries query live in
  :class:`~repro.core.network.SelfHealingNetwork`, fed from the nodes
  each heal touched.
* ``backend`` is a kept spelling: generator keywords, spec strings
  (``"pa:n=1000,backend=array"``) and ``repro simulate --backend``
  accept the names in :data:`BACKEND_NAMES`, all meaning this one
  class, because stored specs and service jobs carry them.
"""

from __future__ import annotations

from operator import eq
from typing import Iterable, Iterator

from repro.errors import (
    ConfigurationError,
    EdgeNotFoundError,
    NodeNotFoundError,
    SelfLoopError,
)

__all__ = [
    "Graph",
    "EDGELESS",
    "GROWTH_SLACK",
    "BACKEND_NAMES",
    "check_backend",
]

Node = int

#: the slot of every alive node without edges; never mutated, shared by
#: all of them (see the module docstring)
EDGELESS: frozenset = frozenset()

#: slots one new label may add beyond doubling the store (8 MB of list)
GROWTH_SLACK = 1 << 20

#: the accepted spellings of the ``backend`` keyword; each names
#: :class:`Graph`
BACKEND_NAMES = ("array", "object")


def check_backend(name: str) -> None:
    """Refuse a ``backend`` spelling outside :data:`BACKEND_NAMES`."""
    if name not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown graph backend {name!r}; "
            f"known backends: {', '.join(BACKEND_NAMES)}"
        )


class Graph:
    """Mutable undirected simple graph; labels are non-negative ints.

    >>> g = Graph.from_edges([(0, 1), (1, 2)])
    >>> g.degree(1)
    2
    >>> sorted(g.remove_node(1))
    [0, 2]
    >>> list(g.nodes())
    [0, 2]
    >>> g.num_edges
    0
    """

    __slots__ = ("_nbrs", "_n_alive", "_num_edges")

    def __init__(self, nodes: Iterable[Node] = ()) -> None:
        #: slot store: ``_nbrs[u]`` is u's adjacency set, EDGELESS when
        #: it has no edges yet, None when dead
        self._nbrs: list[set[int] | frozenset | None] = []
        self._n_alive: int = 0
        self._num_edges: int = 0
        # The dominant construction is "labels 0..n-1 in order" (every
        # generator, every healing graph): detect it at C speed and fill
        # the slot store directly instead of paying add_node per label.
        # A bool, float or numpy int compares equal to its int, so a
        # list qualifies only if every label is exactly an int.
        seq = nodes if isinstance(nodes, (list, range)) else list(nodes)
        n = len(seq)
        if type(seq) is range:
            bulk = seq == range(n)
        else:
            bulk = set(map(type, seq)) <= {int} and all(
                map(eq, seq, range(n))
            )
        if bulk:
            self._nbrs = [EDGELESS] * n
            self._n_alive = n
        else:
            for node in seq:
                self.add_node(node)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[Node, Node]], nodes: Iterable[Node] = ()
    ) -> "Graph":
        """Build a graph from an edge list (plus optional isolated nodes)."""
        g = cls(nodes)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def copy(self) -> "Graph":
        """Deep copy of the topology (the copy owns its sets)."""
        g = Graph()
        g._nbrs = [
            s if s is None or s is EDGELESS else set(s) for s in self._nbrs
        ]
        g._n_alive = self._n_alive
        g._num_edges = self._num_edges
        return g

    def subgraph(self, keep: Iterable[Node]) -> "Graph":
        """Induced subgraph on ``keep`` (unknown labels are ignored).

        Built by intersecting adjacency sets directly — no per-edge
        ``has_edge`` probes — into a store as long as this one.
        """
        nbrs = self._nbrs
        keep_set = {u for u in keep if self._slot(u) is not None}
        g = Graph()
        slots = g._nbrs = [None] * len(nbrs)
        edges = 0
        for u in keep_set:
            # An edgeless slot intersects to a fresh empty frozenset,
            # which no writer would recognize: edgeless slots, and empty
            # intersections, get the shared marker.
            s = nbrs[u] & keep_set
            slots[u] = s or EDGELESS
            edges += len(s)
        g._n_alive = len(keep_set)
        g._num_edges = edges // 2
        return g

    # Pickle and copy state. A restored graph owns its sets, and its
    # edgeless slots are the shared EDGELESS marker again, which writers
    # test by identity.
    def __getstate__(self) -> tuple:
        return self._nbrs, self._n_alive, self._num_edges

    def __setstate__(self, state: tuple) -> None:
        nbrs, self._n_alive, self._num_edges = state
        self._nbrs = [
            None if s is None else set(s) if s else EDGELESS for s in nbrs
        ]

    # ------------------------------------------------------------------
    # Slot access
    # ------------------------------------------------------------------
    def _slot(self, node: Node) -> set[int] | frozenset | None:
        """The adjacency set at ``node``'s slot, or ``None`` when the
        label is absent, dead, or cannot index a slot."""
        try:
            s = self._nbrs[node]
        except (IndexError, TypeError):
            return None
        return s if node >= 0 else None

    def degree_of(self, node: Node) -> int | None:
        """Degree of ``node``, or ``None`` when :meth:`_slot` finds no
        live slot (no exception).

        The non-raising sibling of :meth:`degree`, and the ground-truth
        oracle of the network's degree and δ indexes.
        """
        try:
            s = self._nbrs[node]
        except (IndexError, TypeError):
            return None
        return None if s is None or node < 0 else len(s)

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def check_label(self, node: Node) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` unless ``node``
        is a non-negative int (not a bool) that grows the store to at
        most twice its slot count plus :data:`GROWTH_SLACK` slots.
        Doubling, generators, churn joins and recorded traces stay
        inside; one label of 10**9 would allocate 8 GB of slots."""
        if type(node) is not int or node < 0:
            raise ConfigurationError(
                f"node labels must be non-negative ints, got {node!r}"
            )
        bound = 2 * len(self._nbrs) + GROWTH_SLACK
        if node >= bound:
            raise ConfigurationError(
                f"node label {node} is past this graph's label bound "
                f"{bound} (twice its {len(self._nbrs)} slots plus "
                f"{GROWTH_SLACK}): memory grows with the largest label, "
                "so relabel the nodes 0..n-1"
            )

    def add_node(self, node: Node) -> None:
        """Add ``node`` (idempotent); a new label must pass
        :meth:`check_label`."""
        nbrs = self._nbrs
        if type(node) is int and 0 <= node < len(nbrs):
            if nbrs[node] is not None:
                return
            nbrs[node] = EDGELESS
        else:
            self.check_label(node)
            if node > len(nbrs):
                # Gap growth doubles capacity: repeated gap jumps under
                # increasing churn labels would otherwise pay an
                # exact-fit realloc-and-copy per join. The slack slots
                # past ``node`` stay dead (``None``) until a later add
                # claims them; sequential appends (``node == len``) stay
                # exact-size, so construction-time graphs keep the
                # hole-free layout the fused kernel and ``nodes`` check.
                grown = max(node + 1, 2 * len(nbrs), 8)
                nbrs.extend([None] * (grown - len(nbrs)))
                nbrs[node] = EDGELESS
            else:
                nbrs.append(EDGELESS)
        self._n_alive += 1

    def remove_node(self, node: Node) -> set[Node]:
        """Remove ``node`` and all incident edges; returns its ex-neighbor
        set (ownership transfers to the caller — the graph no longer
        references it, so no defensive copy is needed).

        Raises :class:`NodeNotFoundError` if absent — deleting a node twice
        in the simulation is always a logic error worth failing loudly on.
        """
        nbrs = self._nbrs
        s = self._slot(node)
        if s is None:
            raise NodeNotFoundError(node)
        nbrs[node] = None
        self._n_alive -= 1
        for v in s:
            nbrs[v].discard(node)
        self._num_edges -= len(s)
        return s

    def has_node(self, node: Node) -> bool:
        return self._slot(node) is not None

    def nodes(self) -> Iterable[Node]:
        """The node labels in ascending order: ``range(n)`` itself when
        every slot is live, else a generator over the live slots."""
        if self._n_alive == len(self._nbrs):  # hole-free: every slot live
            return range(self._n_alive)
        return (u for u, s in enumerate(self._nbrs) if s is not None)

    @property
    def num_nodes(self) -> int:
        return self._n_alive

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
        nbrs = self._nbrs
        try:
            su = nbrs[u] if type(u) is int and u >= 0 else None
            sv = nbrs[v] if type(v) is int and v >= 0 else None
        except IndexError:
            su = sv = None
        if su is None or sv is None:
            # A new or dead endpoint, or anything but a non-negative int
            # (a bool or a numpy int would index a slot): add_node adds
            # the first kind and raises for the other. A refused v takes
            # back the u just added, so a refused edge leaves no trace;
            # v is then checked again so the message gives the bound of
            # the store the caller holds, not of the one u had grown.
            slots, alive = len(nbrs), self._n_alive
            self.add_node(u)
            try:
                self.add_node(v)
            except ConfigurationError:
                if self._n_alive != alive:
                    self.remove_node(u)
                    del nbrs[slots:]
                    self.check_label(v)
                raise
            su = nbrs[u]
            sv = nbrs[v]
        if v in su:
            return False
        if su is EDGELESS:
            su = nbrs[u] = set()
        if sv is EDGELESS:
            sv = nbrs[v] = set()
        su.add(v)
        sv.add(u)
        self._num_edges += 1
        return True

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove edge ``{u, v}``; raises :class:`EdgeNotFoundError` if absent."""
        su = self._slot(u)
        if su is None:
            raise NodeNotFoundError(u)
        sv = self._slot(v)
        if sv is None:
            raise NodeNotFoundError(v)
        if v not in su:
            raise EdgeNotFoundError(u, v)
        su.discard(v)
        sv.discard(u)
        self._num_edges -= 1

    def has_edge(self, u: Node, v: Node) -> bool:
        s = self._slot(u)
        return s is not None and v in s

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Iterate each undirected edge exactly once as ``(u, v)`` with
        ``u < v``, ``u`` ascending; callers needing canonical order
        should sort."""
        for u, s in enumerate(self._nbrs):
            if s:
                for v in s:
                    if v > u:
                        yield (u, v)

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
        s = self._slot(node)
        if s is None:
            raise NodeNotFoundError(node)
        return frozenset(s)

    def neighbors_view(self, node: Node) -> set[Node]:
        """The *live* adjacency set (no copy). Callers must not mutate it
        and must not hold it across topology mutations. Used in hot
        traversal loops (BFS) where the copy in :meth:`neighbors` shows up
        in profiles."""
        s = self._slot(node)
        if s is None:
            raise NodeNotFoundError(node)
        return s

    def degree(self, node: Node) -> int:
        s = self._slot(node)
        if s is None:
            raise NodeNotFoundError(node)
        return len(s)

    def degrees(self) -> dict[Node, int]:
        """Degree of every node as a dict (snapshot, ascending labels)."""
        return {
            u: len(s) for u, s in enumerate(self._nbrs) if s is not None
        }

    def degrees_of(
        self, nodes: Iterable[Node], offset: int = 0
    ) -> dict[Node, int]:
        """Degree (+``offset``) of each of ``nodes`` as a dict.

        Bulk sibling of :meth:`degree` for the per-round snapshot builds;
        ``offset`` lets the deletion path reconstruct pre-round degrees
        from post-removal adjacency. Raises :class:`NodeNotFoundError` on
        the first unknown node.
        """
        nbrs = self._nbrs
        out: dict[Node, int] = {}
        for u in nodes:
            try:
                s = nbrs[u]
            except (IndexError, TypeError):
                s = None
            if s is None or u < 0:
                raise NodeNotFoundError(u)
            out[u] = len(s) + offset
        return out

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return self._slot(node) is not None

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes())

    def __len__(self) -> int:
        return self._n_alive

    def __eq__(self, other: object) -> bool:
        """Structural equality: same live slots with the same neighbors
        (an edgeless slot equals an emptied set; dead and slack slots
        count for nothing)."""
        if not isinstance(other, Graph):
            return NotImplemented
        a, b = self._nbrs, other._nbrs
        if len(a) > len(b):
            a, b = b, a
        return a == b[: len(a)] and all(s is None for s in b[len(a):])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"
