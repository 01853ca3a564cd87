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

The network is the one owner of degree and δ, the degree increase over
the initial degree. A heal changes the degree of the nodes it touched
alone — a deletion's ex-neighbours (plan edges stay among them), each
victim component's surviving boundary in a wave, a join's targets and
the joiner — so after a heal's edges land the network reads those nodes
only. They raise the running maximum ``peak_delta`` (Figure 8's
statistic, Theorem 1's bound), as the fused kernel raises it at each
edge it adds, and feed two **bucket indexes** that answer the targeted
adversaries without a node scan: degree
(:meth:`SelfHealingNetwork.max_degree_node`, the MaxNode and NMS query)
and δ (:meth:`SelfHealingNetwork.max_delta_node`). Each is built from G
by its first query; a campaign that asks none (a fused one, most
observed ones until their final metrics) builds neither. The live labels
have one owner too: :meth:`SelfHealingNetwork.survivors`, which the
random adversaries and the fused kernel draw from, is built by its first
call and then kept by every heal. So ``network.graph`` changes only
through the network: a direct mutation would leave the degree extremes,
δ and the survivors stale.

Each heal is also checked against a local **connectivity certificate**,
in O(ex-neighbours): if G was connected before the heal, a certified heal
leaves it connected. G′ ⊆ G (heal edges land in both graphs) and the
tracker's labels are exactly the components of G′, so a deletion whose
surviving ex-neighbours all end the round with one label keeps G
connected — every component of G − v holds an ex-neighbour of v. A heal
that fails its certificate bumps
:attr:`SelfHealingNetwork.uncertified_heals`; while that counter holds
still, a graph once proven connected (by a BFS) still is, which is how
:class:`~repro.sim.metrics.ConnectivityMetric` skips its BFS.

Node labels are the graph's: non-negative ints
(:meth:`~repro.graph.graph.Graph.check_label`). Init draws the random
IDs in G's iteration order, ascending by label, and a churn join runs
the graph's label check before anything mutates, on both DASH engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Hashable, Iterable

from repro.core.base import (
    Healer,
    InsertionPlan,
    InsertionSnapshot,
    NeighborhoodSnapshot,
    ReconnectionPlan,
)
from repro.core.components import (
    ComponentTracker,
    NodeId,
    RoundStats,
    make_node_ids,
)
from repro.errors import HealingError, NodeNotFoundError, SimulationError
from repro.graph.degree_index import DegreeIndex
from repro.graph.graph import Graph
from repro.graph.survivors import SurvivorSequence
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

    def fingerprint(self) -> list:
        """What a re-execution must reproduce of this heal, as ledger
        rounds and churn traces store it (edge endpoints are not in it)."""
        return [
            self.action, self.plan_kind, len(self.new_edges), self.id_changes
        ]


class SelfHealingNetwork:
    """A reconfigurable network healing itself with a pluggable strategy.

    Construction costs what Init needs: the random IDs, the initial
    degrees and an edgeless G′ (one shared marker per slot, each set
    created at its node's first heal edge). The component tracker and
    the bucket indexes are built on first use — the tracker at the first
    round, each index at its first query — so a campaign that never asks
    (a fused one) builds none of them.

    Parameters
    ----------
    graph:
        Initial topology. The network takes ownership and mutates it; pass
        ``graph.copy()`` to keep the original (the stretch metric does).
        From then on it changes only through the network, which keeps
        the degree and δ indexes.
    healer:
        The healing strategy (see :mod:`repro.core.registry`).
    seed:
        Seed for the random node IDs of Algorithm 1's Init step.
    check_invariants:
        Paranoid mode: after every round, validate graph symmetry, the
        component tracker against ground truth, the degree and δ indexes,
        G′ ⊆ G, and (for component-safe single-victim rounds) the Lemma 1
        forest invariant. O(n+m) per round — meant for tests, not sweeps.
    """

    def __init__(
        self,
        graph: Graph,
        healer: Healer,
        *,
        seed: int | None = 0,
        check_invariants: bool = False,
    ) -> None:
        self.graph = graph
        self.healer = healer
        self.check_invariants = check_invariants
        self.initial_n = graph.num_nodes
        self.initial_degree: dict[Node, int] = graph.degrees()
        #: degree- and δ-bucket indexes, each built by its first query
        #: (see :meth:`_built_index`) and then kept current by
        #: :meth:`_settle_deltas`
        self._degree_index: DegreeIndex | None = None
        self._delta_index: DegreeIndex | None = None
        #: the live labels, built by :meth:`survivors`, kept by the heals
        self._survivors: SurvivorSequence | None = None
        #: the Init-step ID seed — kept so churn insertions can derive
        #: each joiner's random ID deterministically (checkpoint replay
        #: re-executes insertions and must mint identical IDs)
        self.id_seed = seed
        rng = make_rng(seed)
        self.initial_ids: dict[Node, NodeId] = make_node_ids(
            graph.nodes(), rng
        )
        # G′ has G's class, whose slot store fills every slot with one
        # shared edgeless marker; the component tracker is built on
        # first use (see tracker).
        self.healing_graph = type(graph)(graph.nodes())
        self.deleted_nodes: list[Node] = []
        #: nodes that joined after Init (churn insertions), in join order
        self.inserted_nodes: list[Node] = []
        self.events: list[HealEvent] = []
        self.peak_delta: int = 0
        #: heals that failed their connectivity certificate (see the
        #: module docstring); decided at heal time, since later heals
        #: change the labels
        self.uncertified_heals = 0
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
        return ComponentTracker(
            graph=self.graph,
            healing_graph=self.healing_graph,
            initial_ids=self.initial_ids,
        )

    # ------------------------------------------------------------------
    # Per-node state
    # ------------------------------------------------------------------
    @staticmethod
    def _delta_in(
        graph: Graph, initial_degree: dict[Node, int], node: Node
    ) -> int | None:
        """The δ index's ground-truth oracle (None once deleted)."""
        d = graph.degree_of(node)
        return None if d is None else d - initial_degree[node]

    def _built_index(self, delta: bool) -> DegreeIndex:
        """The δ-bucket index if ``delta``, else the degree-bucket index,
        built from G by its first query and then kept by
        :meth:`_settle_deltas`. A late build answers like one kept since
        Init. Each oracle holds the graph, not the network, so a network
        with an index is freed by reference counting."""
        idx = self._delta_index if delta else self._degree_index
        if idx is None:
            graph, base = self.graph, self.initial_degree
            if delta:
                idx = self._delta_index = DegreeIndex(
                    partial(self._delta_in, graph, base)
                )
            else:
                idx = self._degree_index = DegreeIndex(graph.degree_of)
            push = idx.push
            for u, d in graph.degrees().items():
                push(u, d - base[u] if delta else d)
        return idx

    def _settle_deltas(self, touched: Iterable[Node]) -> None:
        """Close a heal's degree bookkeeping: ``touched`` holds every node
        whose degree or baseline the heal changed, so their δ alone can
        raise ``peak_delta``, and each built index needs them alone."""
        initial_degree = self.initial_degree
        degree_idx = self._degree_index
        delta_idx = self._delta_index
        peak = self.peak_delta
        for u, d in self.graph.degrees_of(touched).items():
            if degree_idx is not None:
                degree_idx.push(u, d)
            d -= initial_degree[u]
            if d > peak:
                peak = d
            if delta_idx is not None:
                delta_idx.push(u, d)
        self.peak_delta = peak

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
        return self._built_index(delta=True).max_key(default=0)

    def max_delta_node(self) -> Node | None:
        """The surviving node with the largest δ, smallest label on ties;
        ``None`` for an empty graph. Indexed — no node scan (the
        δ-seeking adversary's per-round query)."""
        return self._built_index(delta=True).top_node()

    def check_delta_index(self) -> None:
        """Verify the δ-bucket index against a fresh :meth:`deltas` scan.

        O(n); raises :class:`~repro.errors.SimulationError` on mismatch.
        """
        self._built_index(delta=True).check(self.deltas())

    def max_degree(self) -> int:
        """Largest surviving degree (0 for an empty graph). O(1)."""
        return self._built_index(delta=False).max_key(default=0)

    def max_degree_node(self) -> Node | None:
        """The surviving node with the largest degree, smallest label on
        ties; ``None`` for an empty graph. Indexed (MaxNode's and NMS's
        per-round query)."""
        return self._built_index(delta=False).top_node()

    def min_degree_node(self) -> Node | None:
        """The surviving node with the smallest degree, smallest label on
        ties; ``None`` for an empty graph. Indexed."""
        return self._built_index(delta=False).bottom_node()

    def degree_bucket(self, degree: int) -> frozenset[Node]:
        """Snapshot of the surviving nodes at exactly ``degree``."""
        return self._built_index(delta=False).bucket(degree)

    def check_degree_index(self) -> None:
        """Verify the degree-bucket index against a fresh degree scan, as
        :meth:`check_delta_index` does the δ index."""
        self._built_index(delta=False).check(self.graph.degrees())

    def label_of(self, node: Node) -> NodeId:
        return self.tracker.label_of(node)

    @property
    def num_alive(self) -> int:
        return self.graph.num_nodes

    def survivors(self) -> SurvivorSequence:
        """The live labels in ascending order, which the random
        adversaries draw from: built from G by the first call, then kept
        exact by each heal's deaths and joins, whoever asked for them."""
        if self._survivors is None:
            # Graph.nodes() runs in ascending label order.
            self._survivors = SurvivorSequence(list(self.graph.nodes()))
        return self._survivors

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
        if self._survivors is not None:
            self._survivors.discard(node)
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
        participants = tuple(plan.participants)
        added = self._apply_plan(plan.edges, plan.edges)
        self._settle_deltas(g_nbrs)

        # Component-ID propagation + message accounting.
        stats = self.tracker.round(
            deleted=node,
            deleted_label=snapshot.deleted_label,
            participants=participants,
            gprime_neighbors=snapshot.gprime_neighbors,
            component_safe=plan.component_safe,
            plan_edges=plan.edges,
        )
        # Certificate: every ex-neighbour (not just the participants)
        # ends the round in one G′ component; an isolated victim passes.
        if len(set(self.tracker.labels_of(g_nbrs).values())) > 1:
            self.uncertified_heals += 1
        event = self._record(node, plan, participants, added, stats)
        if self.check_invariants:
            self._check_invariants(forest=plan.component_safe)
        return event

    def _apply_plan(
        self,
        edges: Iterable[tuple[Node, Node]],
        heal_edges: Iterable[tuple[Node, Node]],
    ) -> int:
        """Add ``edges`` to G and ``heal_edges`` to G′ (a deletion plan's
        edges are its heal edges); returns how many of ``edges`` were new
        in G."""
        added = 0
        for a, b in edges:
            if self.graph.add_edge(a, b):
                added += 1
        for a, b in heal_edges:
            self.healing_graph.add_edge(a, b)
        return added

    def _record(
        self,
        deleted: Node,
        plan: ReconnectionPlan | InsertionPlan,
        participants: tuple[Node, ...],
        added: int,
        stats: RoundStats,
        action: str = "delete",
    ) -> HealEvent:
        """Close a round: append and return its :class:`HealEvent`."""
        steps = (
            self.inserted_nodes if action == "insert" else self.deleted_nodes
        )
        event = HealEvent(
            step=len(steps),
            deleted=deleted,
            plan_kind=plan.kind,
            participants=participants,
            new_edges=tuple(plan.edges),
            edges_added_to_g=added,
            id_changes=stats.id_changes,
            messages_sent=stats.messages_sent,
            components_merged=stats.components_merged,
            components_after=stats.components_after,
            split=stats.split,
            action=action,
        )
        self.events.append(event)
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
        (:meth:`insert_and_heal` and :mod:`repro.sim.fastpath`) run, so
        a bad joiner fails before either mutates anything."""
        self.graph.check_label(node)
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
        # is a component too), then the granted edges land in G. The
        # joiner is fresh, so each distinct target on a plan edge gained
        # exactly one new edge and its baseline absorbs it
        # (δ-neutrality); the joiner's baseline is simply its full
        # post-join degree.
        self.graph.add_node(node)
        self.healing_graph.add_node(node)
        if self._survivors is not None:
            self._survivors.add(node)
        self.initial_ids[node] = node_id
        self.inserted_nodes.append(node)
        added = self._apply_plan(plan.edges, plan.heal_edges)
        touched: set[Node] = {node}
        for a, b in plan.edges:
            other = b if a == node else a
            if other not in touched:
                initial_degree[other] += 1
                touched.add(other)
        initial_degree[node] = self.graph.degree(node)
        self._settle_deltas(touched)
        # Certificate: a joiner with an edge to a live node keeps G
        # connected; a join with no edges does not.
        if not added:
            self.uncertified_heals += 1

        # Component bookkeeping: register the joiner and merge it with
        # the G′ components its heal edges touch (MINID semantics).
        stats = self.tracker.insert_round(node, node_id, plan.heal_edges)
        event = self._record(node, plan, target_tuple, added, stats, "insert")
        if self.check_invariants:
            self._check_invariants(forest=False)
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
        — O(participants · α + #ID-changers), the merge every
        single-deletion round runs) whenever its plan is component-safe
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
        tracker accounting.

        Returns one :class:`HealEvent` per victim component, sorted by the
        ``repr`` of the component's minimum node label: victims ``2`` and
        ``11`` heal ``[11]`` first (``"11" < "2"``).
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
        alive = self._survivors
        for v in victim_set:
            lbl = self.tracker.label_of(v)
            self.graph.remove_node(v)
            if self.healing_graph.has_node(v):
                self.healing_graph.remove_node(v)
            self.tracker.remove_node(v, lbl)
            self.deleted_nodes.append(v)
            if alive is not None:
                alive.discard(v)

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
            participants = tuple(plan.participants)
            added = self._apply_plan(plan.edges, plan.edges)
            self._settle_deltas(g_nbrs)

            # Fast-eligible: the plan is component-safe or covers every
            # G′-neighbor (every shattered piece represented), and every
            # dead tree of this component is either wholly ours (all its
            # victims in this component) or already recomputed by an
            # earlier round of the wave; participants in a still-
            # shattered foreign tree are caught by the tracker.
            stats = None
            if (
                plan.component_safe or gp_nbrs <= set(participants)
            ) and all(
                label_claims[lbl] == 1 or lbl in resolved
                for lbl in dead_labels
            ):
                stats = self.tracker.fast_batch_round(
                    set(dead_labels),
                    participants,
                    plan.edges,
                    all_dead_labels - resolved - dead_labels,
                )
            if stats is None:
                stats = self.tracker.batch_round(
                    affected_labels=set(dead_labels),
                    participants=participants,
                    plan_edges=plan.edges,
                )
            resolved |= dead_labels
            events.append(
                self._record(super_node, plan, participants, added, stats)
            )

        # Certificate, once the whole wave has healed: each component's
        # surviving boundary (all of it, not the healer's ``kept`` view)
        # ends in one G′ component. Victim components are pairwise
        # non-adjacent, so a path between survivors crosses each run of
        # victims between two boundary nodes of one component.
        labels_of = self.tracker.labels_of
        for _, g_nbrs, _, _ in infos:
            if len(set(labels_of(g_nbrs).values())) > 1:
                self.uncertified_heals += 1

        if self.check_invariants:
            self._check_invariants(forest=False)
        return events

    # ------------------------------------------------------------------
    # Paranoid checks
    # ------------------------------------------------------------------
    def _check_invariants(self, *, forest: bool) -> None:
        """Paranoid mode's checks after a round, each raising
        :class:`~repro.errors.InvariantViolation`: graph symmetry, tracker
        ground truth, the degree and δ indexes, with ``forest``
        (component-safe single-victim rounds only: wave heals may leave
        cycles) the Lemma 1 forest invariant, and G′ ⊆ G."""
        # Imported here: only paranoid mode runs these checks, and the
        # analysis package imports this module.
        from repro.analysis.invariants import (
            check_component_labels,
            check_degree_index,
            check_forest_invariant,
            check_healing_subset,
        )

        validate_graph(self.graph)
        validate_graph(self.healing_graph)
        check_component_labels(self)
        check_degree_index(self)
        if forest:
            check_forest_invariant(self)
        check_healing_subset(self)
