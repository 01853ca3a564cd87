"""Slotted int-ID array backend for :class:`~repro.graph.graph.Graph`.

The dict-of-sets object graph became the scale ceiling around n=100k:
per-node dict entries, boxed keys, and hash probes dominate a full-kill
campaign long before the algorithms do. :class:`ArrayGraph` keeps the
*exact* ``Graph`` interface (every healer, adversary, tracker, and test
drives it unchanged) but stores the topology in flat slot arrays indexed
by the node label itself:

* node labels must be non-negative ints (every shipped generator labels
  ``0..n-1``); the label *is* the slot index, so node lookup is one list
  index instead of a hash probe;
* a slot ``_nbrs[u]`` is in one of three states: ``None`` when ``u`` is
  dead or was never used; :data:`EDGELESS`, one shared immutable empty
  ``frozenset``, when ``u`` is alive with no edges; or ``u``'s own live
  adjacency ``set``. A node starts edgeless, and its set is created at
  its first edge, so a graph whose nodes mostly never get an edge (a
  fresh healing graph G′) allocates nothing per node. Readers need not
  tell the last two states apart (a frozenset answers ``in``, ``len``
  and iteration like a set); every writer creates the set before its
  first write. Removal tombstones the slot, re-adding a label reuses it
  (free-slot compaction without relabeling);
* iteration (:meth:`nodes`, :meth:`edges`, :meth:`degrees`) runs in
  ascending slot order — identical to insertion order for every shipped
  generator, which build ``0..n-1`` ascending;
* the degree index / ``degree_listener`` contracts are byte-identical to
  the object backend: same lazy build, same push stream, same
  exceptions.

The backend is stdlib-only: analytics read it through the ``Graph``
interface, as they read the object backend (the numpy distance kernel
in :mod:`repro.graph.distance` builds its own adjacency arrays).

Backend selection is by name — ``new_graph(nodes, backend)`` is the
single factory the generators and the registry/CLI plumbing route
through (``generator="pa:n=...,backend=array"``, ``repro simulate
--backend array``); unknown names fail fast with the known set.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Iterable, Iterator

from repro.errors import (
    ConfigurationError,
    EdgeNotFoundError,
    NodeNotFoundError,
    SelfLoopError,
)
from repro.graph.degree_index import DegreeIndex
from repro.graph.graph import Graph, Node

__all__ = ["ArrayGraph", "BACKENDS", "EDGELESS", "new_graph"]

#: the slot of every alive node without edges; never mutated, shared by
#: all of them (see the module docstring)
EDGELESS: frozenset = frozenset()


class ArrayGraph(Graph):
    """``Graph`` on flat slot arrays; labels are non-negative ints.

    >>> g = ArrayGraph.from_edges([(0, 1), (1, 2)])
    >>> g.degree(1)
    2
    >>> sorted(g.remove_node(1))
    [0, 2]
    >>> g == Graph.from_edges([], nodes=[0, 2])
    True
    """

    backend = "array"

    __slots__ = ("_nbrs", "_n_alive")

    def __init__(self, nodes: Iterable[Node] = ()) -> None:
        #: slot store: ``_nbrs[u]`` is u's adjacency set, EDGELESS when
        #: it has no edges yet, None when dead
        self._nbrs: list[set[int] | frozenset | None] = []
        self._n_alive: int = 0
        self._num_edges = 0
        self._deg_index = None
        self.degree_listener = None
        # The dominant construction is "labels 0..n-1 in order" (every
        # generator, every healing graph): detect it at C speed — the
        # array() conversion rejects non-int labels, the comparison
        # rejects holes, duplicates and negatives — and fill the slot
        # store directly instead of paying add_node per label.
        seq = nodes if isinstance(nodes, (list, tuple, range)) else list(nodes)
        try:
            arr = array("q", seq)
        except (TypeError, OverflowError):
            arr = None
        if arr is not None and arr == array("q", range(len(arr))):
            n = len(arr)
            self._nbrs = [EDGELESS] * n
            self._n_alive = n
        else:
            for node in seq:
                self.add_node(node)

    # ------------------------------------------------------------------
    # Slot access
    # ------------------------------------------------------------------
    def _slot(self, node: Node) -> set[int] | frozenset | None:
        """The adjacency set at ``node``'s slot, or ``None`` when the
        label is absent, dead, or not an int at all."""
        nbrs = self._nbrs
        try:
            if node < 0 or node >= len(nbrs):
                return None
            return nbrs[node]
        except TypeError:
            return None

    @property
    def _adj(self) -> dict[Node, set[Node]]:
        """Object-backend compatibility view ``{label: live set}``.

        Exists so ``Graph.__eq__`` (and any external reader of the
        documented adjacency mapping) works across backends; the sets are
        the live ones, the dict is a fresh snapshot. Assigning through it
        is impossible — all mutation goes through the slot methods.
        """
        return {u: s for u, s in enumerate(self._nbrs) if s is not None}

    # Pickle and copy state (the inherited slot walk would set ``_adj``,
    # a read-only property here). A restored graph owns its sets and, like
    # copy(), has no degree index or listener; its edgeless slots are the
    # shared EDGELESS marker again, which writers test by identity.
    def __getstate__(self) -> tuple:
        return self._nbrs, self._n_alive, self._num_edges

    def __setstate__(self, state: tuple) -> None:
        nbrs, self._n_alive, self._num_edges = state
        self._nbrs = [
            None if s is None else set(s) if s else EDGELESS for s in nbrs
        ]
        self._deg_index = None
        self.degree_listener = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    def copy(self) -> "ArrayGraph":
        g = ArrayGraph()
        g._nbrs = [
            s if s is None or s is EDGELESS else set(s) for s in self._nbrs
        ]
        g._n_alive = self._n_alive
        g._num_edges = self._num_edges
        return g

    def subgraph(self, keep: Iterable[Node]) -> "ArrayGraph":
        keep_set = {u for u in keep if self._slot(u) is not None}
        g = ArrayGraph(keep_set)
        nbrs = g._nbrs
        edges = 0
        for u in keep_set:
            # An edgeless slot intersects to a fresh empty frozenset,
            # which no writer would recognize: leave those slots, and
            # empty intersections, EDGELESS.
            s = self._nbrs[u] & keep_set
            if s:
                nbrs[u] = s
                edges += len(s)
        g._num_edges = edges // 2
        return g

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        if not isinstance(node, int) or node < 0:
            raise ConfigurationError(
                f"array backend requires non-negative int node labels, "
                f"got {node!r}"
            )
        nbrs = self._nbrs
        if node < len(nbrs):
            if nbrs[node] is not None:
                return
            nbrs[node] = EDGELESS
        elif node > len(nbrs):
            # Interior (gap) growth doubles capacity: repeated gap jumps
            # under monotonically increasing churn labels would otherwise
            # pay an exact-fit realloc-and-copy per join (quadratic list
            # churn over a campaign). The slack slots past ``node`` are
            # dead (``None``) until a later add claims them; sequential
            # appends (``node == len``) stay exact-size so construction-
            # time graphs keep the hole-free slot layout the fused kernel
            # and ``nodes`` check for.
            grown = max(node + 1, 2 * len(nbrs), 8)
            nbrs.extend([None] * (grown - len(nbrs)))
            nbrs[node] = EDGELESS
        else:
            nbrs.append(EDGELESS)
        self._n_alive += 1
        if self._deg_index is not None:
            self._deg_index.push(node, 0)
        if self.degree_listener is not None:
            self.degree_listener(node, None, 0)

    def remove_node(self, node: Node) -> set[Node]:
        nbrs_list = self._nbrs
        s = self._slot(node)
        if s is None:
            raise NodeNotFoundError(node)
        nbrs_list[node] = None
        self._n_alive -= 1
        idx = self._deg_index
        listener = self.degree_listener
        if idx is None and listener is None:
            for v in s:
                nbrs_list[v].discard(node)
        else:
            if listener is not None:
                listener(node, len(s), None)
            for v in s:
                t = nbrs_list[v]
                d = len(t) - 1
                t.discard(node)
                if idx is not None:
                    idx.push(v, d)
                if listener is not None:
                    listener(v, d + 1, d)
        self._num_edges -= len(s)
        return s

    def has_node(self, node: Node) -> bool:
        return self._slot(node) is not None

    def nodes(self) -> Iterator[Node]:
        if self._n_alive == len(self._nbrs):  # hole-free: every slot live
            return iter(range(self._n_alive))
        return (u for u, s in enumerate(self._nbrs) if s is not None)

    @property
    def num_nodes(self) -> int:
        return self._n_alive

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def add_edge(self, u: Node, v: Node) -> bool:
        if u == v:
            raise SelfLoopError(u)
        nbrs = self._nbrs
        try:
            su = nbrs[u] if u >= 0 else None
            sv = nbrs[v] if v >= 0 else None
        except (TypeError, IndexError):
            su = sv = None
        if su is None or sv is None:
            # A new or dead endpoint, or a label this backend cannot
            # hold: add_node adds the first kind and raises for the other.
            self.add_node(u)
            self.add_node(v)
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
        idx = self._deg_index
        listener = self.degree_listener
        if idx is not None or listener is not None:
            du = len(su)
            dv = len(sv)
            if idx is not None:
                idx.push(u, du)
                idx.push(v, dv)
            if listener is not None:
                listener(u, du - 1, du)
                listener(v, dv - 1, dv)
        return True

    def remove_edge(self, u: Node, v: Node) -> None:
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
        idx = self._deg_index
        listener = self.degree_listener
        if idx is not None or listener is not None:
            du = len(su)
            dv = len(sv)
            if idx is not None:
                idx.push(u, du)
                idx.push(v, dv)
            if listener is not None:
                listener(u, du + 1, du)
                listener(v, dv + 1, dv)

    def has_edge(self, u: Node, v: Node) -> bool:
        s = self._slot(u)
        return s is not None and v in s

    def edges(self) -> Iterator[tuple[Node, Node]]:
        seen: set[Node] = set()
        for u, s in enumerate(self._nbrs):
            if s is None:
                continue
            for v in s:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    # ------------------------------------------------------------------
    # Neighborhood queries
    # ------------------------------------------------------------------
    def neighbors(self, node: Node) -> frozenset[Node]:
        s = self._slot(node)
        if s is None:
            raise NodeNotFoundError(node)
        return frozenset(s)

    def neighbors_view(self, node: Node) -> set[Node]:
        s = self._slot(node)
        if s is None:
            raise NodeNotFoundError(node)
        return s

    def degree(self, node: Node) -> int:
        s = self._slot(node)
        if s is None:
            raise NodeNotFoundError(node)
        return len(s)

    def degree_of(self, node: Node) -> int | None:
        return self._degree_in(self._nbrs, node)

    @staticmethod
    def _degree_in(nbrs: list, node: Node) -> int | None:
        """:meth:`degree_of` over the slot store ``nbrs`` (see
        :meth:`_slot`)."""
        try:
            if node < 0 or node >= len(nbrs):
                return None
            s = nbrs[node]
        except TypeError:
            return None
        return None if s is None else len(s)

    def degrees(self) -> dict[Node, int]:
        return {
            u: len(s) for u, s in enumerate(self._nbrs) if s is not None
        }

    def degrees_of(
        self, nodes: Iterable[Node], offset: int = 0
    ) -> dict[Node, int]:
        nbrs = self._nbrs
        out: dict[Node, int] = {}
        for u in nodes:
            try:
                s = nbrs[u] if 0 <= u < len(nbrs) else None
            except TypeError:
                s = None
            if s is None:
                raise NodeNotFoundError(u)
            out[u] = len(s) + offset
        return out

    def _index(self) -> DegreeIndex:
        idx = self._deg_index
        if idx is None:
            idx = self._deg_index = DegreeIndex(
                partial(self._degree_in, self._nbrs)
            )
            push = idx.push
            for u, s in enumerate(self._nbrs):
                if s is not None:
                    push(u, len(s))
        return idx

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return self._slot(node) is not None

    def __iter__(self) -> Iterator[Node]:
        return self.nodes()

    def __len__(self) -> int:
        return self._n_alive

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrayGraph(n={self.num_nodes}, m={self.num_edges})"


#: backend name → Graph class; the single source of truth for selection
BACKENDS: dict[str, type[Graph]] = {
    "object": Graph,
    "array": ArrayGraph,
}


def new_graph(nodes: Iterable[Node] = (), backend: str = "object") -> Graph:
    """Build an empty-edged graph on ``nodes`` with the named backend.

    Every generator routes through here, so
    ``"pa:n=1000,backend=array"`` style specs and the CLI's ``--backend``
    flag reach one choke point; unknown backend names raise
    :class:`~repro.errors.ConfigurationError` listing the known set.
    """
    try:
        cls = BACKENDS[backend]
    except KeyError:
        raise ConfigurationError(
            f"unknown graph backend {backend!r}; "
            f"known backends: {', '.join(sorted(BACKENDS))}"
        ) from None
    return cls(nodes)
