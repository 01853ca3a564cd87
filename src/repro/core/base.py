"""Healer framework: what a healing strategy sees and what it must produce.

The paper's model (Section 1, "Our Model") is strictly local: when node
``v`` is deleted, only the *neighbors of v* may react, they may only add
edges *among themselves*, and they must decide fast. We encode that
contract in types:

* :class:`NeighborhoodSnapshot` is everything a healer may look at — the
  deleted node's neighborhood in G and G′ plus per-neighbor local state
  (component label, initial ID, degree increase δ). It is captured at
  deletion time, *before* the topology mutates. A healer cannot reach the
  rest of the graph through it, so locality violations are structurally
  impossible rather than merely discouraged.
* :class:`ReconnectionPlan` is the healer's entire output: which edges to
  add (each endpoint must be a neighbor of the deleted node), plus
  metadata for analysis. The :class:`~repro.core.network.SelfHealingNetwork`
  validates and applies the plan.

Healers themselves are tiny strategy objects; all shared mechanics
(deletion, edge application, component/ID bookkeeping, δ maintenance)
live in the network class.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import ClassVar, Hashable, Mapping

from repro.core.components import NodeId

__all__ = [
    "NeighborhoodSnapshot",
    "ReconnectionPlan",
    "InsertionSnapshot",
    "InsertionPlan",
    "Healer",
]

Node = Hashable


@dataclass(frozen=True)
class NeighborhoodSnapshot:
    """Local view available to a healer when ``deleted`` is removed.

    All maps are keyed by the surviving G-neighbors of ``deleted``.
    ``delta`` is δ(u) = deg_G(u) − initial-degree(u) *before* this round's
    changes (the paper's δ_{t−1}; every participant subsequently loses its
    edge to the deleted node, shifting all candidate δ values equally, so
    orderings computed from this snapshot match either convention).
    """

    deleted: Node
    #: the deleted node's component label at deletion time
    deleted_label: NodeId
    #: N(v, G): all surviving neighbors in the real network
    g_neighbors: frozenset[Node]
    #: N(v, G′): neighbors through healing edges (⊆ g_neighbors)
    gprime_neighbors: frozenset[Node]
    #: current component label of each G-neighbor
    labels: Mapping[Node, NodeId]
    #: immutable random initial ID of each G-neighbor
    initial_ids: Mapping[Node, NodeId]
    #: degree increase (net) of each G-neighbor before this round
    delta: Mapping[Node, int]
    #: current G-degree of each G-neighbor (before this round)
    degree: Mapping[Node, int]

    # Memoized via self.__dict__ rather than functools.cached_property:
    # the snapshot sits on the per-round hot path and cached_property's
    # shared RLock (Python ≤3.11) costs more than the memoized work.
    @property
    def _sort_keys(self) -> dict[Node, tuple[int, NodeId]]:
        """Per-neighbor ``(δ, initial ID)`` layout keys, computed once per
        snapshot — healers sort (and take minima/maxima) repeatedly, so
        the key tuples are cached instead of rebuilt per call."""
        memo = self.__dict__
        keys = memo.get("_sort_keys_memo")
        if keys is None:
            delta = self.delta
            ids = self.initial_ids
            keys = memo["_sort_keys_memo"] = {
                u: (delta[u], ids[u]) for u in self.g_neighbors
            }
        return keys

    def unique_neighbors(self) -> list[Node]:
        """``UN(v, G)``: one representative per foreign component.

        Partition the G-neighbors that do *not* share the deleted node's
        label by their component label, then pick the lowest-*initial*-ID
        member of each class (the paper's tie-break — an incremental
        ``min``, never a sort). Deterministic order: ascending component
        label.
        """
        classes: dict[NodeId, Node] = {}
        for u in self.g_neighbors:
            if u in self.gprime_neighbors:
                # Already a participant via N(v,G′). For single deletions
                # these carry the deleted node's label anyway; in batch
                # (multi-victim) heals they may carry another dead tree's
                # label, so the explicit skip keeps UN ∩ N(v,G′) = ∅.
                continue
            lbl = self.labels[u]
            if lbl == self.deleted_label:
                continue
            best = classes.get(lbl)
            if best is None or self.initial_ids[u] < self.initial_ids[best]:
                classes[lbl] = u
        return [classes[lbl] for lbl in sorted(classes)]

    @property
    def _participants(self) -> tuple[Node, ...]:
        memo = self.__dict__
        p = memo.get("_participants_memo")
        if p is None:
            un = self.unique_neighbors()
            gp = sorted(
                self.gprime_neighbors, key=lambda u: self.initial_ids[u]
            )
            p = memo["_participants_memo"] = tuple(un + gp)
        return p

    def participants(self) -> list[Node]:
        """``UN(v,G) ∪ N(v,G′)``: the node set DASH-family healers rewire.

        The union is disjoint (UN excludes the deleted node's label;
        all of N(v,G′) carries it). Order: UN first (ascending label),
        then G′-neighbors ascending initial ID — deterministic, and
        re-sorted by δ by the healers that care. The set is computed once
        per snapshot (healers and the plan validator both ask for it).
        """
        return list(self._participants)

    def sort_by_delta(self, nodes: list[Node]) -> list[Node]:
        """Sort ascending by (δ, initial ID) — the RT layout order.

        The initial-ID tie-break makes the layout deterministic; the paper
        leaves ties unspecified. Uses the cached per-snapshot keys.
        """
        return sorted(nodes, key=self._sort_keys.__getitem__)


@dataclass(frozen=True)
class ReconnectionPlan:
    """A healer's decision for one deletion.

    ``component_safe`` declares that ``participants`` is exactly
    ``UN(v,G) ∪ N(v,G′)`` (one node per pre-round component plus every
    G′-neighbor), which unlocks the component tracker's traversal-free
    merge path unconditionally. Healers that rewire anything else
    (GraphHeal) must leave it ``False``; their rounds still avoid the
    per-round BFS whenever the plan covers every G′-neighbor of the
    deleted node (the tracker applies the same quotient merge) and take
    the BFS otherwise.
    """

    #: nodes being rewired, in layout order (root first for trees)
    participants: tuple[Node, ...]
    #: edges to add, endpoints ⊆ participants
    edges: tuple[tuple[Node, Node], ...]
    #: layout tag: "binary-tree", "kary-tree", "line", "star", "surrogate", "none"
    kind: str
    component_safe: bool = False
    #: star center for surrogate plans (None otherwise)
    center: Node | None = None

    @property
    def num_new_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class InsertionSnapshot:
    """Local view available to a healer when ``node`` joins the network.

    The joining node announces itself to ``targets`` (its chosen
    bootstrap peers, all alive); the healer decides which of those
    announcements become real edges. All maps are keyed by ``targets``.
    Locality mirrors the deletion contract: the healer sees only the
    would-be neighborhood, never the rest of the graph.
    """

    #: the joining node (not yet in the graph)
    node: Node
    #: the joining node's pre-assigned random initial ID
    node_id: NodeId
    #: announced attach candidates, in announcement order (all alive)
    targets: tuple[Node, ...]
    #: current component label of each target
    labels: Mapping[Node, NodeId]
    #: immutable random initial ID of each target
    initial_ids: Mapping[Node, NodeId]
    #: degree increase (net) of each target before this insertion
    delta: Mapping[Node, int]
    #: current G-degree of each target (before this insertion)
    degree: Mapping[Node, int]


@dataclass(frozen=True)
class InsertionPlan:
    """A healer's decision for one insertion.

    ``edges`` are the real G edges to create — every edge must be
    incident to the joining node with its other endpoint among the
    snapshot's targets. ``heal_edges`` (⊆ ``edges``) additionally enter
    the healing graph G′; because each heal edge may bridge at most
    distinct G′ components through the brand-new node, G′ stays a forest
    whenever healers pick at most one heal edge per pre-round component.
    """

    #: real edges to add, each ``(node, target)``
    edges: tuple[tuple[Node, Node], ...]
    #: subset of ``edges`` that also enter G′ (the healing structure)
    heal_edges: tuple[tuple[Node, Node], ...] = ()
    #: layout tag for analysis ("attach", "leaf", "bridge", "none")
    kind: str = "attach"

    @property
    def num_new_edges(self) -> int:
        return len(self.edges)


class Healer(abc.ABC):
    """A self-healing strategy: maps a deletion's local view to new edges.

    Subclasses are cheap, mostly stateless objects. ``reset()`` is called
    by the simulator at the start of every run so stateful healers (e.g.
    the seeded random-order ablation) can rewind deterministically.
    """

    #: registry key and display name
    name: ClassVar[str] = "abstract"

    @abc.abstractmethod
    def plan(self, snapshot: NeighborhoodSnapshot) -> ReconnectionPlan:
        """Return the edges to add among the deleted node's neighbors."""

    def insertion_plan(self, snapshot: InsertionSnapshot) -> InsertionPlan:
        """Return the edges to create when a node joins (churn rounds).

        Default: honor every announced target with a real G edge and add
        nothing to G′ — the join is pure topology, and healing state only
        grows through subsequent deletions. Churn-aware healers
        (Forgiving Tree / Forgiving Graph) override this to bound the
        degree impact and to seed their healing structures.
        """
        edges = tuple((snapshot.node, t) for t in snapshot.targets)
        return InsertionPlan(edges=edges, heal_edges=(), kind="attach")

    def reset(self) -> None:
        """Reset per-run state. Default: nothing to do."""

    def export_state(self) -> dict:
        """JSON-serializable mid-campaign state (checkpoint protocol).

        After ``import_state(export_state())`` on a fresh same-config
        instance, every future :meth:`plan` returns identical edges.
        Stateless healers (the majority) inherit this empty dict.
        """
        return {}

    def import_state(self, state: dict) -> None:
        """Restore :meth:`export_state` output on a fresh instance."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def empty_plan(
    snapshot: NeighborhoodSnapshot, *, component_safe: bool
) -> ReconnectionPlan:
    """A plan that adds nothing (used for trivial neighborhoods and NoHeal)."""
    participants = (
        tuple(snapshot.participants()) if component_safe else tuple()
    )
    return ReconnectionPlan(
        participants=participants,
        edges=(),
        kind="none",
        component_safe=component_safe,
    )
