"""The self-healing network: deletion mechanics + healing orchestration.

:class:`SelfHealingNetwork` owns all shared state of the paper's model —
the live network G, the healing-edge graph G′ (``E′ ⊆ E``), initial
degrees (for δ), the random node IDs, and the component tracker — and
drives one *round* per adversarial deletion:

1. snapshot the deleted node's neighborhood (the healer's entire view);
2. remove the node from G and G′;
3. ask the healer for a :class:`~repro.core.base.ReconnectionPlan`;
4. validate locality (every new edge joins two former neighbors of the
   deleted node) and apply the edges to both G and G′;
5. run the component tracker's MINID propagation and cost accounting.

The network also maintains a **δ-bucket index** (degree increase relative
to initial degree, bucketed like the graph's own degree index) fed by the
graph's mutation stream via :attr:`~repro.graph.graph.Graph.degree_listener`.
That makes :meth:`SelfHealingNetwork.max_delta` and
:meth:`SelfHealingNetwork.max_delta_node` O(1)-ish indexed queries — the
running maximum degree increase (Figure 8's statistic) is one index probe
per round, and the δ-seeking adversary needs no node scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable

from repro.core.base import (
    Healer,
    InsertionPlan,
    InsertionSnapshot,
    NeighborhoodSnapshot,
    ReconnectionPlan,
)
from repro.core.components import ComponentTracker, NodeId, make_node_ids
from repro.errors import HealingError, NodeNotFoundError, SimulationError
from repro.graph.degree_index import DegreeIndex
from repro.graph.forest import is_forest
from repro.graph.graph import Graph
from repro.graph.validation import validate_graph
from repro.utils.rng import derive_seed, make_rng

__all__ = ["SelfHealingNetwork", "HealEvent"]

Node = Hashable


@dataclass(frozen=True)
class HealEvent:
    """Everything observable about one deletion+heal round, charged to
    that round: the ID changes and messages are the ones its heal caused.
    """

    step: int
    deleted: Node
    plan_kind: str
    participants: tuple[Node, ...]
    new_edges: tuple[tuple[Node, Node], ...]
    #: edges genuinely added to G (a plan edge may already exist in G)
    edges_added_to_g: int
    id_changes: int
    messages_sent: int
    components_merged: int
    components_after: int
    split: bool
    #: which churn operation produced this event: ``"delete"`` (default —
    #: a deletion+heal round) or ``"insert"`` (a join healed through
    #: :meth:`SelfHealingNetwork.insert_and_heal`; ``deleted`` then names
    #: the *joining* node and ``participants`` its announced targets)
    action: str = "delete"


class SelfHealingNetwork:
    """A reconfigurable network healing itself with a pluggable strategy.

    Parameters
    ----------
    graph:
        Initial topology. The network takes ownership and mutates it; pass
        ``graph.copy()`` to keep the original (the stretch metric does).
    healer:
        The healing strategy (see :mod:`repro.core.registry`).
    seed:
        Seed for the random node IDs of Algorithm 1's Init step.
    check_invariants:
        Paranoid mode: after every round, validate graph symmetry, the
        component tracker against ground truth, and (for component-safe
        healers) the Lemma 1 forest invariant. O(n+m) per round — meant
        for tests, not sweeps.
    batch_fast_path:
        When True (default), :meth:`delete_batch_and_heal` resolves wave
        heals with the tracker's traversal-free quotient merge, and
        non-component-safe single-victim rounds (GraphHeal and friends)
        whose plan rewires every G′-neighbor of the victim take the same
        merge instead of a per-round BFS. When False every
        non-component-safe or wave round takes the honest BFS path (the
        eager reference the differential tests and benchmarks compare
        against). The switch changes speed only: events and accounting
        are byte-identical either way.
    """

    def __init__(
        self,
        graph: Graph,
        healer: Healer,
        *,
        seed: int | None = 0,
        check_invariants: bool = False,
        batch_fast_path: bool = True,
    ) -> None:
        self.graph = graph
        self.healer = healer
        self.check_invariants = check_invariants
        #: route component-safe wave heals through the tracker's quotient
        #: fast path (False forces the honest traversal path — used by the
        #: wave differential tests and the like-for-like benchmarks)
        self.batch_fast_path = batch_fast_path
        self.initial_n = graph.num_nodes
        self.initial_degree: dict[Node, int] = graph.degrees()
        # δ-bucket index: every node starts at δ = 0 by definition; kept
        # current by tapping the graph's degree-mutation stream below.
        self._delta_index = DegreeIndex(self._delta_of)
        self._delta_index.push_many(self.initial_degree, 0)
        if graph.degree_listener is not None:
            raise SimulationError(
                "graph already has a degree listener — it is owned by "
                "another network; pass graph.copy() instead"
            )
        graph.degree_listener = self._on_degree_change
        #: the Init-step ID seed — kept so churn insertions can derive
        #: each joiner's random ID deterministically (checkpoint replay
        #: re-executes insertions and must mint identical IDs)
        self.id_seed = seed
        rng = make_rng(seed)
        self.initial_ids: dict[Node, NodeId] = make_node_ids(
            graph.nodes(), rng
        )
        # G′ never pays degree-index bookkeeping: nothing queries its
        # degree extremes, so its lazy index is simply never built. It
        # shares G's backend (same class); the component tracker is the
        # same on both backends and is built on first use (see tracker).
        self.healing_graph = type(graph)(graph.nodes())
        self.deleted_nodes: list[Node] = []
        #: nodes that joined after Init (churn insertions), in join order
        self.inserted_nodes: list[Node] = []
        self.events: list[HealEvent] = []
        self.peak_delta: int = 0
        self.healer.reset()

    @cached_property
    def tracker(self) -> ComponentTracker:
        """The MINID component tracker over G′, built on first use.

        Construction reads only ``initial_ids``, which changes only at an
        insertion, and every round reads the tracker before it inserts,
        so a late build starts from the same Init-step state an eager one
        would. The fused kernel (:mod:`repro.sim.fastpath`) keeps its own
        union-find and never reads the tracker, so a fused campaign,
        churn joins included, builds none.
        """
        tracker = ComponentTracker(
            graph=self.graph,
            healing_graph=self.healing_graph,
            initial_ids=self.initial_ids,
        )
        # The single-victim quotient merge for non-component-safe plans
        # rides the same switch as the batch fast path:
        # batch_fast_path=False is the eager reference configuration.
        tracker.lazy = self.batch_fast_path
        return tracker

    # ------------------------------------------------------------------
    # Per-node state
    # ------------------------------------------------------------------
    def _delta_of(self, node: Node) -> int | None:
        """The δ-index's ground-truth oracle (None once deleted)."""
        d = self.graph.degree_of(node)
        return None if d is None else d - self.initial_degree[node]

    def _on_degree_change(
        self, node: Node, old: int | None, new: int | None
    ) -> None:
        """Graph mutation-stream tap: mirror each degree change into the
        δ-bucket index (removals need no work — stale entries
        self-invalidate against :meth:`_delta_of`). A node added after
        Init (never done by the healing model itself, but allowed by the
        graph API) gets its first-seen degree as baseline, so its δ
        starts at 0."""
        if new is None:
            return
        base = self.initial_degree.get(node)
        if base is None:
            base = self.initial_degree[node] = new
        self._delta_index.push(node, new - base)

    def delta(self, node: Node) -> int:
        """Degree increase of ``node`` relative to its initial degree."""
        if not self.graph.has_node(node):
            raise NodeNotFoundError(node)
        return self.graph.degree(node) - self.initial_degree[node]

    def deltas(self) -> dict[Node, int]:
        """δ for every surviving node."""
        return {
            u: self.graph.degree(u) - self.initial_degree[u]
            for u in self.graph.nodes()
        }

    def max_delta(self) -> int:
        """Maximum δ among *surviving* nodes (0 for an empty graph). O(1)."""
        return self._delta_index.max_key(default=0)

    def max_delta_node(self) -> Node | None:
        """The surviving node with the largest δ, smallest label on ties;
        ``None`` for an empty graph. Indexed — no node scan (the
        δ-seeking adversary's per-round query)."""
        return self._delta_index.top_node()

    def check_delta_index(self) -> None:
        """Verify the δ-bucket index against a fresh :meth:`deltas` scan.

        O(n); raises :class:`~repro.errors.SimulationError` on mismatch.
        """
        self._delta_index.check(self.deltas())

    def label_of(self, node: Node) -> NodeId:
        return self.tracker.label_of(node)

    @property
    def num_alive(self) -> int:
        return self.graph.num_nodes

    # ------------------------------------------------------------------
    # The round
    # ------------------------------------------------------------------
    def _build_snapshot(
        self,
        deleted: Node,
        deleted_label: NodeId,
        g_nbrs: frozenset[Node],
        gp_nbrs: frozenset[Node],
        degree: dict[Node, int],
    ) -> NeighborhoodSnapshot:
        """Assemble a healer view from a neighborhood and its *pre-round*
        degrees (the single source of the snapshot field semantics — both
        the live-deletion path and the pre-deletion inspection path build
        through here)."""
        initial_degree = self.initial_degree
        initial_ids = self.initial_ids
        return NeighborhoodSnapshot(
            deleted=deleted,
            deleted_label=deleted_label,
            g_neighbors=g_nbrs,
            gprime_neighbors=gp_nbrs,
            labels=self.tracker.labels_of(g_nbrs),
            initial_ids={u: initial_ids[u] for u in g_nbrs},
            delta={u: d - initial_degree[u] for u, d in degree.items()},
            degree=degree,
        )

    def snapshot_neighborhood(self, node: Node) -> NeighborhoodSnapshot:
        """Capture the healer's view of ``node``'s neighborhood (pre-deletion)."""
        if not self.graph.has_node(node):
            raise NodeNotFoundError(node)
        g_nbrs = self.graph.neighbors(node)
        gp_nbrs = (
            self.healing_graph.neighbors(node)
            if self.healing_graph.has_node(node)
            else frozenset()
        )
        return self._build_snapshot(
            node,
            self.tracker.label_of(node),
            g_nbrs,
            gp_nbrs,
            self.graph.degrees_of(g_nbrs),
        )

    def _validate_plan(
        self, snapshot: NeighborhoodSnapshot, plan: ReconnectionPlan
    ) -> None:
        allowed = snapshot.g_neighbors
        for u in plan.participants:
            if u not in allowed:
                raise HealingError(
                    f"plan participant {u!r} is not a neighbor of "
                    f"{snapshot.deleted!r} (locality violation)"
                )
        for a, b in plan.edges:
            if a == b:
                raise HealingError(f"plan contains self-loop on {a!r}")
            if a not in allowed or b not in allowed:
                raise HealingError(
                    f"plan edge ({a!r}, {b!r}) leaves the neighborhood of "
                    f"{snapshot.deleted!r} (locality violation)"
                )
        if plan.component_safe:
            expected = set(snapshot.participants())
            if set(plan.participants) != expected:
                raise HealingError(
                    "component_safe plan must rewire exactly UN(v,G) ∪ N(v,G′)"
                )

    def delete_and_heal(self, node: Node) -> HealEvent:
        """Execute one adversarial deletion followed by self-healing.

        Returns the :class:`HealEvent`; also appends it to ``self.events``.
        """
        if not self.graph.has_node(node):
            raise NodeNotFoundError(node)
        deleted_label = self.tracker.label_of(node)

        # Deletion: the adversary removes the node from the real network;
        # its healing edges disappear with it. The snapshot is assembled
        # from the neighbor sets the removals hand back (no extra copies);
        # each ex-neighbor's pre-round degree is its current degree + 1.
        g_nbrs = frozenset(self.graph.remove_node(node))
        gp_nbrs = (
            frozenset(self.healing_graph.remove_node(node))
            if self.healing_graph.has_node(node)
            else frozenset()
        )
        self.deleted_nodes.append(node)
        snapshot = self._build_snapshot(
            node,
            deleted_label,
            g_nbrs,
            gp_nbrs,
            self.graph.degrees_of(g_nbrs, offset=1),
        )

        # Healing: the neighbors react.
        plan = self.healer.plan(snapshot)
        self._validate_plan(snapshot, plan)
        added = 0
        for a, b in plan.edges:
            if self.graph.add_edge(a, b):
                added += 1
            self.healing_graph.add_edge(a, b)

        # Component-ID propagation + message accounting.
        stats = self.tracker.round(
            deleted=node,
            deleted_label=snapshot.deleted_label,
            participants=tuple(plan.participants),
            gprime_neighbors=snapshot.gprime_neighbors,
            component_safe=plan.component_safe,
            plan_edges=plan.edges,
        )

        # Running max degree increase: one O(1) probe of the δ-bucket
        # index. δ only moves at degree mutations, all of which pass
        # through the index, so sampling the current maximum once per
        # round observes every peak the old per-neighbor scan did.
        d = self._delta_index.max_key(default=0)
        if d > self.peak_delta:
            self.peak_delta = d

        event = HealEvent(
            step=len(self.deleted_nodes),
            deleted=node,
            plan_kind=plan.kind,
            participants=tuple(plan.participants),
            new_edges=tuple(plan.edges),
            edges_added_to_g=added,
            id_changes=stats.id_changes,
            messages_sent=stats.messages_sent,
            components_merged=stats.components_merged,
            components_after=stats.components_after,
            split=stats.split,
        )
        self.events.append(event)

        if self.check_invariants:
            self._check_invariants(plan)
        return event

    def delete_and_heal_many(self, nodes: Iterable[Node]) -> list[HealEvent]:
        """Process several deletions sequentially (each healed before the
        next), the regime under which DASH's guarantees hold (footnote 1)."""
        return [self.delete_and_heal(u) for u in nodes]

    # ------------------------------------------------------------------
    # Insertion (churn rounds)
    # ------------------------------------------------------------------
    def _insertion_id(self, node: Node) -> NodeId:
        """Mint the joiner's random initial ID.

        Derived from ``(id_seed, "insert", node)`` so replaying the same
        insertion after a checkpoint restore mints the identical ID —
        the Init RNG has long since been consumed and is not part of any
        snapshot. ``id_seed=None`` (explicitly unseeded) falls back to
        OS entropy, matching Init's behavior.
        """
        if self.id_seed is None:
            return (make_rng(None).random(), node)
        rng = make_rng(derive_seed(self.id_seed, "insert", node))
        return (rng.random(), node)

    def _join_targets(
        self, node: Node, attach_targets: Iterable[Node]
    ) -> tuple[Node, ...]:
        """Check one join and return its distinct attach targets, in
        announcement order. The one set of join checks both DASH engines
        (:meth:`insert_and_heal` and :mod:`repro.sim.fastpath`) run."""
        if self.graph.has_node(node):
            raise SimulationError(f"cannot insert {node!r}: already present")
        if node in self.initial_ids:
            raise SimulationError(
                f"cannot insert {node!r}: label was already used this "
                "campaign (inserted nodes need fresh labels)"
            )
        targets: list[Node] = []
        seen: set[Node] = set()
        for t in attach_targets:
            if not self.graph.has_node(t):
                raise NodeNotFoundError(t)
            if t not in seen:
                seen.add(t)
                targets.append(t)
        return tuple(targets)

    def _validate_insertion_plan(
        self, snapshot: InsertionSnapshot, plan: InsertionPlan
    ) -> None:
        node = snapshot.node
        allowed = set(snapshot.targets)
        for a, b in plan.edges:
            if a == b:
                raise HealingError(f"plan contains self-loop on {a!r}")
            if a != node and b != node:
                raise HealingError(
                    f"insertion edge ({a!r}, {b!r}) is not incident to "
                    f"the joining node {node!r}"
                )
            other = b if a == node else a
            if other not in allowed:
                raise HealingError(
                    f"insertion edge ({a!r}, {b!r}) leaves the announced "
                    f"targets of {node!r} (locality violation)"
                )
        edge_set = set(plan.edges)
        for e in plan.heal_edges:
            if e not in edge_set:
                raise HealingError(
                    f"heal edge {e!r} is not among the plan's real edges"
                )

    def insert_and_heal(
        self, node: Node, attach_targets: Iterable[Node]
    ) -> HealEvent:
        """Execute one churn *insertion*: ``node`` joins, announcing
        ``attach_targets`` as its bootstrap peers, and the healer decides
        which announcements become edges (and which of those seed G′).

        Insertion edges are **δ-neutral**: they are the intended topology
        of the reconfigured network (the paper's degree-increase
        guarantees compare against the graph *with* all insertions
        present), so both endpoints' initial-degree baselines absorb
        them and δ keeps measuring healing-induced increase only.

        An empty (post-dedupe) target list is legal and yields an
        isolated singleton — its component registers with the tracker.

        Returns the :class:`HealEvent` (``action="insert"``); also
        appends it to ``self.events``.
        """
        target_tuple = self._join_targets(node, attach_targets)
        node_id = self._insertion_id(node)
        degree = self.graph.degrees_of(target_tuple)
        initial_degree = self.initial_degree
        snapshot = InsertionSnapshot(
            node=node,
            node_id=node_id,
            targets=target_tuple,
            labels=self.tracker.labels_of(target_tuple),
            initial_ids={u: self.initial_ids[u] for u in target_tuple},
            delta={u: d - initial_degree[u] for u, d in degree.items()},
            degree=degree,
        )
        plan = self.healer.insertion_plan(snapshot)
        self._validate_insertion_plan(snapshot, plan)

        # The join: node enters both G and G′ (G′ membership keeps the
        # tracker's classes ≡ components-of-G′ invariant — a singleton
        # is a component too), then the granted edges land in G. Each
        # accepted edge bumps both endpoints' baselines (δ-neutrality);
        # the joiner's baseline is simply its full post-join degree.
        self.graph.add_node(node)
        self.healing_graph.add_node(node)
        self.initial_ids[node] = node_id
        self.inserted_nodes.append(node)
        added = 0
        touched: set[Node] = {node}
        for a, b in plan.edges:
            if self.graph.add_edge(a, b):
                added += 1
                other = b if a == node else a
                initial_degree[other] += 1
                touched.add(other)
        for a, b in plan.heal_edges:
            self.healing_graph.add_edge(a, b)
        initial_degree[node] = self.graph.degree(node)
        for u in touched:
            self._delta_index.push(
                u, self.graph.degree(u) - initial_degree[u]
            )

        # Component bookkeeping: register the joiner and merge it with
        # the G′ components its heal edges touch (MINID semantics).
        stats = self.tracker.insert_round(node, node_id, plan.heal_edges)

        d = self._delta_index.max_key(default=0)
        if d > self.peak_delta:
            self.peak_delta = d

        event = HealEvent(
            step=len(self.inserted_nodes),
            deleted=node,
            plan_kind=plan.kind,
            participants=target_tuple,
            new_edges=tuple(plan.edges),
            edges_added_to_g=added,
            id_changes=stats.id_changes,
            messages_sent=stats.messages_sent,
            components_merged=stats.components_merged,
            components_after=stats.components_after,
            split=stats.split,
            action="insert",
        )
        self.events.append(event)

        if self.check_invariants:
            validate_graph(self.graph)
            validate_graph(self.healing_graph)
            self.tracker.check_consistency()
            self.graph.check_degree_index()
            self.check_delta_index()
            for u in self.healing_graph.nodes():
                if not self.graph.has_node(u):
                    raise SimulationError(f"G' node {u!r} missing from G")
            for a, b in self.healing_graph.edges():
                if not self.graph.has_edge(a, b):
                    raise SimulationError(
                        f"E' edge ({a!r},{b!r}) missing from E"
                    )
        return event

    # ------------------------------------------------------------------
    # Simultaneous batch deletion (paper footnote 1)
    # ------------------------------------------------------------------
    def delete_batch_and_heal(
        self, victims: Iterable[Node]
    ) -> list[HealEvent]:
        """Delete a *set* of nodes simultaneously and heal afterwards.

        The paper's footnote 1: DASH "can easily handle the situation
        where any number of nodes are removed, so long as the
        neighbor-of-neighbor graph remains connected". Implementation:
        the victim set is grouped into connected components of the induced
        subgraph G[victims]; each victim component is healed as one
        super-deletion — its surviving boundary (the union of the members'
        neighbors) is reconnected by the healer exactly as if a single
        node with that neighborhood had died. Healing edges therefore
        still join nodes within two hops of each other through dead nodes
        (the NoN-locality the footnote requires).

        Connectivity restoration holds for component-safe healers even
        without the footnote's NoN condition: every component of
        G − victims contains a neighbor of some victim component, and the
        per-component reconstruction trees reconnect one representative
        per healing-edge component plus every healing-edge neighbor of
        the victims.

        Fast/slow path split: a victim-component round is resolved by the
        tracker's traversal-free quotient merge
        (:meth:`~repro.core.components.ComponentTracker.fast_batch_round`
        — O(participants · α + #ID-changers), the wave analogue of the
        single-deletion fast path) whenever its plan is component-safe
        *or* rewires every G′-neighbor of the victims (so every piece of
        every owned dead tree is represented — true for GraphHeal-style
        rewire-everyone plans and vacuously for NoHeal), and none of its
        dead trees is shared with another victim component of the same
        wave; otherwise, and whenever the quotient preconditions fail
        mid-merge (a participant inside a foreign shattered tree, or a
        plan spreading one pre-round class over several quotient
        classes), the round takes the honest BFS traversal over the
        affected region
        (:meth:`~repro.core.components.ComponentTracker.batch_round`).
        Both paths produce byte-identical :class:`HealEvent` streams and
        tracker accounting; ``batch_fast_path=False`` forces the slow
        path everywhere.

        Returns one :class:`HealEvent` per victim component, in ascending
        order of the component's minimum node label.
        """
        from repro.graph.traversal import induced_components

        victim_set: set[Node] = set()
        for v in victims:
            if not self.graph.has_node(v):
                raise NodeNotFoundError(v)
            victim_set.add(v)
        if not victim_set:
            return []

        comps = sorted(
            (sorted(c) for c in induced_components(self.graph, victim_set)),
            key=lambda c: repr(c[0]),
        )

        # Capture each component's boundary before any mutation.
        infos = []
        for comp in comps:
            comp_set = set(comp)
            g_nbrs: set[Node] = set()
            gp_nbrs: set[Node] = set()
            dead_labels: set[NodeId] = set()
            for v in comp:
                g_nbrs |= self.graph.neighbors_view(v)
                if self.healing_graph.has_node(v):
                    gp_nbrs |= self.healing_graph.neighbors_view(v)
                dead_labels.add(self.tracker.label_of(v))
            infos.append(
                (
                    comp,
                    frozenset(g_nbrs - victim_set),
                    frozenset(gp_nbrs - victim_set),
                    dead_labels,
                )
            )

        # Dead-tree ownership across victim components: a G′ tree whose
        # victims are split between two victim components has pieces
        # invisible to either component's round, so the first round that
        # touches it must traverse; afterwards its pieces are honestly
        # recomputed classes and later rounds of the wave can go fast.
        label_claims: dict[NodeId, int] = {}
        for _, _, _, dead_labels in infos:
            for lbl in dead_labels:
                label_claims[lbl] = label_claims.get(lbl, 0) + 1
        all_dead_labels = frozenset(label_claims)
        #: dead labels whose class (or its pieces) has been recomputed or
        #: fast-merged by an earlier round of THIS wave — any class they
        #: still name is a true G′ component again
        resolved: set[NodeId] = set()

        # The adversary strikes: all victims vanish at once.
        for v in victim_set:
            lbl = self.tracker.label_of(v)
            self.graph.remove_node(v)
            if self.healing_graph.has_node(v):
                self.healing_graph.remove_node(v)
            self.tracker.remove_node(v, lbl)
            self.deleted_nodes.append(v)

        # The seed-tracker differential tests swap in a tracker class
        # without the quotient fast path; duck-type instead of assuming.
        fast_batch = (
            getattr(self.tracker, "fast_batch_round", None)
            if self.batch_fast_path
            else None
        )

        # Heal each victim component.
        events: list[HealEvent] = []
        for comp, g_nbrs, gp_nbrs, dead_labels in infos:
            super_node = frozenset(comp)
            # UN must exclude *every* dead component's label: survivors in
            # a split tree reach the RT through their piece's G′-neighbor.
            kept = frozenset(
                u
                for u in g_nbrs
                if self.tracker.label_of(u) not in dead_labels
                or u in gp_nbrs
            )
            snapshot = self._build_snapshot(
                super_node,
                min(dead_labels),
                kept,
                gp_nbrs,
                self.graph.degrees_of(kept),
            )

            plan = self.healer.plan(snapshot)
            self._validate_plan(snapshot, plan)
            added = 0
            for a, b in plan.edges:
                if self.graph.add_edge(a, b):
                    added += 1
                self.healing_graph.add_edge(a, b)

            # Fast-eligible: the plan is component-safe or covers every
            # G′-neighbor (every shattered piece represented), and every
            # dead tree of this component is either wholly ours (all its
            # victims in this component) or already recomputed by an
            # earlier round of the wave; participants in a still-
            # shattered foreign tree are caught by the tracker.
            stats = None
            if fast_batch is not None and (
                plan.component_safe or gp_nbrs <= set(plan.participants)
            ) and all(
                label_claims[lbl] == 1 or lbl in resolved
                for lbl in dead_labels
            ):
                stats = fast_batch(
                    set(dead_labels),
                    tuple(plan.participants),
                    plan.edges,
                    all_dead_labels - resolved - dead_labels,
                )
            if stats is None:
                stats = self.tracker.batch_round(
                    affected_labels=set(dead_labels),
                    participants=tuple(plan.participants),
                    plan_edges=plan.edges,
                )
            resolved |= dead_labels
            d = self._delta_index.max_key(default=0)
            if d > self.peak_delta:
                self.peak_delta = d
            event = HealEvent(
                step=len(self.deleted_nodes),
                deleted=super_node,
                plan_kind=plan.kind,
                participants=tuple(plan.participants),
                new_edges=tuple(plan.edges),
                edges_added_to_g=added,
                id_changes=stats.id_changes,
                messages_sent=stats.messages_sent,
                components_merged=stats.components_merged,
                components_after=stats.components_after,
                split=stats.split,
            )
            self.events.append(event)
            events.append(event)

        if self.check_invariants:
            validate_graph(self.graph)
            validate_graph(self.healing_graph)
            self.tracker.check_consistency()
            self.graph.check_degree_index()
            self.check_delta_index()
        return events

    # ------------------------------------------------------------------
    # Paranoid checks
    # ------------------------------------------------------------------
    def _check_invariants(self, plan: ReconnectionPlan) -> None:
        validate_graph(self.graph)
        validate_graph(self.healing_graph)
        self.tracker.check_consistency()
        self.graph.check_degree_index()
        self.check_delta_index()
        if plan.component_safe and not is_forest(self.healing_graph):
            raise SimulationError(
                "Lemma 1 violated: healing graph has a cycle under a "
                f"component-safe healer ({self.healer.name})"
            )
        for u in self.healing_graph.nodes():
            if not self.graph.has_node(u):
                raise SimulationError(f"G' node {u!r} missing from G")
        for a, b in self.healing_graph.edges():
            if not self.graph.has_edge(a, b):
                raise SimulationError(f"E' edge ({a!r},{b!r}) missing from E")
