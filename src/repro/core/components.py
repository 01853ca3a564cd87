"""Component-ID tracking: the paper's MINID machinery, with cost accounting.

DASH keeps every node labelled with the minimum ID of its connected
component *in the healing graph G′* (Algorithm 1, step 5). The label is
what lets a healer pick one representative per component (``UN(v, G)``)
without global communication — two G-neighbors of the deleted node share a
label iff they are already connected through healing edges.

This module implements that bookkeeping centrally, together with the cost
model of Lemmas 8–9:

* every time a node's ID changes, it sends one message to each current
  G-neighbor (we count sends and receives separately);
* the per-round "propagation work" equals the number of ID-change
  transmissions, which is the quantity the paper amortizes to O(log n)
  per deletion.

IDs are pairs ``(random_draw, node_label)`` so they are unique and totally
ordered even in the measure-zero event of equal random draws.

Cost model of the implementation
--------------------------------
Components are the classes of a **size-weighted union-find** whose root
carries the class's MINID label and member set; merges union the smaller
member set into the larger and relabel (and charge messages for) **only
the members of classes whose label actually changes** — exactly the
quantity Lemmas 8–9 amortize. A component-safe deletion+heal round
therefore costs

    O(|participants| · α(n)  +  #actual-ID-changers · fan-out)

instead of the former O(size of every affected component): the winning
(minimum-label) class — in practice the giant component — is never
touched. The set unions themselves are small-into-large, so their cost is
dominated by the charge loop (the losing classes are precisely the
changers). Deleted nodes stay in the union-find forest as tombstone
internal vertices; only the membership tables shrink, keeping deletion
O(α) amortized.

For healers that reconnect exactly ``UN(v,G) ∪ N(v,G′)`` (DASH, SDASH,
and the component-aware baselines) the merge needs no graph traversal at
all. Footnote 1 treats a round as any number of simultaneous removals,
so a single deletion is a wave of one: single-victim rounds
(:meth:`ComponentTracker.round`) and multi-victim *batch*
super-deletions (:meth:`ComponentTracker.fast_batch_round`) run one
quotient merge. The quotient graph has one vertex per
G′-neighbor-piece of each dead tree plus one per surviving participant
class, and every quotient class becomes one union-find merge.

Non-component-safe plans
------------------------
Arbitrary healers (GraphHeal adds cycles; NoHeal adds nothing) are not
component-safe. Such a round still takes the quotient merge when the
plan's rewires cover every shattered piece of the dead tree
(``N(v,G′) ⊆ participants``, true for every registered naive healer): a
participant then stands for its whole recorded class, which is exact
because the unity check sends anything that would split a class to the
BFS. Its accounting is byte-identical to the BFS (differential-tested
against the eager reference tracker in ``tests/core/_eager_tracker.py``).

Every other round takes the BFS over the affected region: a plan that
leaves a piece unrepresented, a merge the quotient path declines, and a
wave round whose preconditions fail (a dead tree shared between victim
components, a participant inside another victim component's shattered
tree, or a plan that leaves one pre-round class spread over several
quotient classes). The traversal recomputes components — including
persistent splits, which the paper's model never needs but a library
must survive — and routes them through the same union-find apply step
(:meth:`ComponentTracker._apply_rebuild`).

Every round is settled before it returns, so each :class:`RoundStats`
charges its own round's ID changes and messages. ``check_consistency``
is a full-BFS ground-truth check, used by tests and paranoid-mode runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

from repro.errors import CheckpointError, SimulationError
from repro.graph.graph import Graph

__all__ = ["NodeId", "ComponentTracker", "RoundStats", "make_node_ids"]

Node = Hashable
#: A node ID as assigned by DASH's Init step: unique and totally ordered.
NodeId = tuple[float, int]


def make_node_ids(nodes: Iterable[Node], rng) -> dict[Node, NodeId]:
    """Assign each node a random ID in [0, 1], per Algorithm 1 step 1.

    The node label is appended as a tie-breaker, making IDs unique with
    probability 1 (instead of merely almost surely).
    """
    return {u: (rng.random(), u) for u in nodes}


@dataclass(frozen=True)
class RoundStats:
    """Cost accounting for one deletion+heal round."""

    #: number of nodes whose component ID changed this round
    id_changes: int
    #: total ID-announcement messages sent this round (Σ deg of changers)
    messages_sent: int
    #: number of pre-round components merged by the healing edges
    components_merged: int
    #: number of components the affected region forms after healing
    components_after: int
    #: True when the healer failed to re-merge the deleted node's component
    split: bool


@dataclass
class ComponentTracker:
    """Tracks component labels of the healing graph G′ plus message costs.

    Parameters
    ----------
    graph:
        The live network G (used for message fan-out: an ID change is
        announced to all current G-neighbors).
    healing_graph:
        G′, the graph of healer-added edges. The tracker reads it during
        slow-path recomputation; it never mutates it.
    initial_ids:
        The DASH node IDs; each node starts as a singleton component
        labelled by its own ID.

    Internally each component is a union-find class. The class root (which
    may be a deleted tombstone node) carries the component's MINID label
    and its live member set; ``_label_root`` is the inverse label→root
    index (labels are unique across live components, an invariant
    ``check_consistency`` verifies).
    """

    graph: Graph
    healing_graph: Graph
    initial_ids: Mapping[Node, NodeId]
    id_changes: dict[Node, int] = field(init=False)
    messages_sent: dict[Node, int] = field(init=False)
    messages_received: dict[Node, int] = field(init=False)
    #: batch rounds resolved by the traversal-free quotient merge / by the
    #: honest BFS fallback (observability for tests and benchmarks)
    fast_batch_rounds: int = field(init=False, default=0)
    slow_batch_rounds: int = field(init=False, default=0)
    #: single-victim rounds resolved by the quotient merge / the BFS
    #: (observability for tests and benchmarks)
    fast_rounds: int = field(init=False, default=0)
    slow_rounds: int = field(init=False, default=0)
    #: always 0: no round is deferred, every round settles before it
    #: returns. Kept so readers of these counters still find them; not
    #: exported.
    deferred_rounds: int = field(init=False, default=0)
    lazy_resolutions: int = field(init=False, default=0)
    #: churn insertions processed via :meth:`insert_round`
    insert_rounds: int = field(init=False, default=0)
    _parent: dict[Node, Node] = field(init=False, repr=False)
    _root_label: dict[Node, NodeId] = field(init=False, repr=False)
    _root_members: dict[Node, set[Node]] = field(init=False, repr=False)
    _label_root: dict[NodeId, Node] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._parent = {u: u for u in self.initial_ids}
        self._root_label = dict(self.initial_ids)
        self._root_members = {u: {u} for u in self.initial_ids}
        self._label_root = {iid: u for u, iid in self.initial_ids.items()}
        self.id_changes = {u: 0 for u in self.initial_ids}
        self.messages_sent = {u: 0 for u in self.initial_ids}
        self.messages_received = {u: 0 for u in self.initial_ids}

    # ------------------------------------------------------------------
    # Union-find primitives
    # ------------------------------------------------------------------
    def _find(self, x: Node) -> Node:
        """Class root of ``x`` with full path compression. O(α) amortized."""
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _live_root(self, node: Node) -> Node:
        """Class root of the live ``node``; raises if it is untracked or
        deleted."""
        try:
            root = self._find(node)
        except KeyError:
            raise SimulationError(f"node {node!r} is not tracked") from None
        members = self._root_members.get(root)
        if members is None or node not in members:
            # A deleted node's tombstone still chains to a live root;
            # querying it must fail loudly, not leak the survivors' label.
            raise SimulationError(f"node {node!r} is not tracked")
        return root

    def label_of(self, node: Node) -> NodeId:
        return self._root_label[self._live_root(node)]

    def labels_of(self, nodes: Iterable[Node]) -> dict[Node, NodeId]:
        """Bulk :meth:`label_of` — one dict build, skipping per-call
        dispatch on the snapshot hot path (every round labels the whole
        deleted neighborhood; :meth:`_live_root` is inlined here for the
        same reason)."""
        find = self._find
        root_label = self._root_label
        root_members = self._root_members
        out: dict[Node, NodeId] = {}
        for u in nodes:
            try:
                root = find(u)
            except KeyError:
                raise SimulationError(f"node {u!r} is not tracked") from None
            members = root_members.get(root)
            if members is None or u not in members:
                raise SimulationError(f"node {u!r} is not tracked")
            out[u] = root_label[root]
        return out

    def component_members(self, node: Node) -> frozenset[Node]:
        """All nodes sharing ``node``'s component label (i.e. its G′ component)."""
        return frozenset(self._root_members[self._live_root(node)])

    def num_components(self) -> int:
        return len(self._root_members)

    def total_messages(self) -> int:
        return sum(self.messages_sent.values())

    def labels(self) -> dict[Node, NodeId]:
        """Snapshot of every live node's component label. O(n)."""
        return {
            u: self._root_label[root]
            for root, mem in self._root_members.items()
            for u in mem
        }

    def components(self) -> dict[NodeId, frozenset[Node]]:
        """Snapshot {label: member set} of every live component. O(n)."""
        return {
            self._root_label[root]: frozenset(mem)
            for root, mem in self._root_members.items()
        }

    def add_node(self, node: Node, node_id: NodeId) -> None:
        """Register ``node`` as a fresh singleton component (the network
        grew); ``node_id`` also becomes its initial ID, so later split
        relabels and :meth:`rebuild_from_healing_graph` can see it.
        Re-adding a node the tracker has ever seen is refused — its
        tombstone may still be an internal vertex of the union-find
        forest."""
        if node in self._parent:
            raise SimulationError(f"node {node!r} was already tracked")
        if node_id in self._label_root:
            raise SimulationError(f"label {node_id!r} already in use")
        if node not in self.initial_ids:
            try:
                self.initial_ids[node] = node_id  # type: ignore[index]
            except TypeError:
                raise SimulationError(
                    f"cannot record initial ID for {node!r}: the tracker's "
                    "initial_ids mapping is read-only"
                ) from None
        self._parent[node] = node
        self._root_label[node] = node_id
        self._root_members[node] = {node}
        self._label_root[node_id] = node
        self.id_changes.setdefault(node, 0)
        self.messages_sent.setdefault(node, 0)
        self.messages_received.setdefault(node, 0)

    # ------------------------------------------------------------------
    # Checkpoint protocol (see repro.recovery.checkpoint)
    # ------------------------------------------------------------------
    #: scalar counters that round-trip verbatim through export/import
    _SCALARS = (
        "fast_rounds",
        "slow_rounds",
        "fast_batch_rounds",
        "slow_batch_rounds",
        "insert_rounds",
    )

    def export_state(self) -> dict:
        """Serialize all dynamic state to a JSON-ready dict.

        The union-find forest is exported flattened: each class as
        ``[root, label, members]`` (the root may be a deleted tombstone —
        a class's MINID label routinely belongs to a long-dead node,
        which is why :meth:`rebuild_from_healing_graph` cannot serve as a
        restore path). Non-root tombstones are not listed; import re-derives
        them as ``initial_ids`` keys outside every class. Counters are
        exported sparse (non-zero entries only).
        """
        classes = sorted(
            [root, list(self._root_label[root]), sorted(members)]
            for root, members in self._root_members.items()
        )
        state: dict = {
            "classes": classes,
            "extra_counter_nodes": sorted(
                u for u in self.id_changes if u not in self.initial_ids
            ),
        }
        for name in ("id_changes", "messages_sent", "messages_received"):
            counter = getattr(self, name)
            entries = sorted((u, c) for u, c in counter.items() if c)
            # Flat [u0, c0, u1, c1, ...] — most live nodes have nonzero
            # counts, so this is an O(n) array serialized every
            # checkpoint; halving the container count roughly halves
            # its json cost.
            flat: list = []
            for pair in entries:
                flat.extend(pair)
            state[name] = flat
        for name in self._SCALARS:
            state[name] = getattr(self, name)
        return state

    def import_state(self, state: Mapping) -> None:
        """Restore an :meth:`export_state` payload onto a freshly
        constructed tracker (same ``graph``/``healing_graph``/
        ``initial_ids``). Raises :class:`~repro.errors.CheckpointError`
        on structural corruption (duplicate labels, overlapping
        classes). Older trackers could defer a round's relabelling and
        exported it as ``dirty_roots``: an empty list (all any registered
        healer ever wrote) imports, a non-empty one raises, since every
        round must now be settled."""
        if state.get("dirty_roots"):
            raise CheckpointError(
                "tracker state has pending deferred relabelling "
                f"(dirty_roots={state['dirty_roots']!r}); every round "
                "must be settled, so this checkpoint cannot be resumed"
            )
        parent: dict[Node, Node] = {}
        root_label: dict[Node, NodeId] = {}
        root_members: dict[Node, set[Node]] = {}
        label_root: dict[NodeId, Node] = {}
        for root, label, members in state["classes"]:
            label = tuple(label)
            if label in label_root or root in root_members:
                raise CheckpointError(
                    f"corrupt tracker state: duplicate class {root!r}/"
                    f"{label!r}"
                )
            mset = set(members)
            for u in mset:
                if u in parent and parent[u] != u:
                    raise CheckpointError(
                        f"corrupt tracker state: node {u!r} in two classes"
                    )
                parent[u] = root
            parent[root] = root
            root_label[root] = label
            root_members[root] = mset
            label_root[label] = root
        # Every other ever-tracked node is a non-root tombstone: a bare
        # self-root with no metadata (keeps the add_node re-add guard
        # honest, same as rebuild_from_healing_graph).
        for u in self.initial_ids:
            parent.setdefault(u, u)
        for u in state["extra_counter_nodes"]:
            parent.setdefault(u, u)
        self._parent = parent
        self._root_label = root_label
        self._root_members = root_members
        self._label_root = label_root
        for name in ("id_changes", "messages_sent", "messages_received"):
            counter = {u: 0 for u in self.initial_ids}
            for u in state["extra_counter_nodes"]:
                counter.setdefault(u, 0)
            flat = state[name]
            if len(flat) % 2:
                raise CheckpointError(
                    f"corrupt tracker state: odd-length {name} array"
                )
            it = iter(flat)
            for u, c in zip(it, it):
                if u not in counter:
                    raise CheckpointError(
                        f"corrupt tracker state: counter entry for "
                        f"untracked node {u!r}"
                    )
                counter[u] = c
            setattr(self, name, counter)
        for name in self._SCALARS:
            # .get: pre-churn checkpoints lack the newer counters
            setattr(self, name, state.get(name, 0))

    def rebuild_from_healing_graph(self) -> None:
        """Recompute every class from G′ connectivity, labelling each
        component with the minimum *initial* ID among its **live**
        members.

        Used to seed a tracker over a pre-built healing graph (tests,
        synthetic scenarios). Not a mid-campaign checkpoint restore: a
        component's MINID label routinely belongs to a long-deleted node,
        which this canonical relabelling cannot reproduce. Does not touch
        the message/ID counters.
        """
        from repro.graph.traversal import connected_components

        old_parent = self._parent
        self._parent = {}
        self._root_label = {}
        self._root_members = {}
        self._label_root = {}
        for comp in connected_components(self.healing_graph):
            members = set(comp)
            root = next(iter(members))
            label = min(self.initial_ids[u] for u in members)
            for u in members:
                self._parent[u] = root
            self._root_label[root] = label
            self._root_members[root] = members
            self._label_root[label] = root
        # Keep tombstones of previously-seen nodes (as bare self-roots
        # with no metadata) so the add_node re-add guard stays honest.
        for u in old_parent:
            if u not in self._parent:
                self._parent[u] = u

    # ------------------------------------------------------------------
    # The deletion+heal round
    # ------------------------------------------------------------------
    def round(
        self,
        deleted: Node,
        deleted_label: NodeId,
        participants: Sequence[Node],
        gprime_neighbors: frozenset[Node],
        component_safe: bool,
        plan_edges: Sequence[tuple[Node, Node]],
    ) -> RoundStats:
        """Process one round, *after* the network has already removed
        ``deleted`` from G/G′ and inserted ``plan_edges`` into both.

        ``component_safe`` asserts that ``participants`` equals
        ``UN(v,G) ∪ N(v,G′)`` — one representative per pre-round component
        plus every G′-neighbor of the deleted node — enabling the
        traversal-free union-find merge path. The caller (the healer, via
        the plan) vouches for this. A non-component-safe plan that
        rewires every G′-neighbor (true for every registered naive
        healer: GraphHeal rewires all G-neighbors ⊇ G′-neighbors,
        NoHeal's G′ has no edges at all) takes the same merge.

        The merge is the wave merge of :meth:`fast_batch_round` with the
        victim's label as the only dead label and no foreign labels: once
        the victim is removed, every G′-neighbor's class root is the
        victim's class root, so each one stands for its piece of the
        dead tree. Every other round, and every merge the quotient path
        declines, takes the BFS; either way the stats are exact for this
        round.
        """
        self.remove_node(deleted, deleted_label)
        dead_labels = {deleted_label}
        if component_safe or gprime_neighbors.issubset(participants):
            stats = self._quotient_round(dead_labels, participants, plan_edges)
            if stats is not None:
                self.fast_rounds += 1
                return stats

        self.slow_rounds += 1
        return self._bfs_round(dead_labels, participants)

    def remove_node(self, node: Node, expected_label: NodeId) -> None:
        """Drop ``node`` from the membership tables (it was deleted).

        The node stays in the union-find forest as a tombstone internal
        vertex — only live-membership accounting shrinks — so removal is
        O(α) instead of O(component size).
        """
        try:
            root = self._find(node)
        except KeyError:
            root = None
        mem = self._root_members.get(root) if root is not None else None
        if (
            mem is None
            or node not in mem
            or self._root_label[root] != expected_label
        ):
            raise SimulationError(
                f"deleted node {node!r} not tracked under label "
                f"{expected_label!r}"
            )
        mem.discard(node)
        if not mem:
            del self._root_members[root]
            del self._root_label[root]
            del self._label_root[expected_label]

    # ------------------------------------------------------------------
    # Insertion rounds (churn)
    # ------------------------------------------------------------------
    def insert_round(
        self,
        node: Node,
        node_id: NodeId,
        heal_edges: Sequence[tuple[Node, Node]],
    ) -> RoundStats:
        """Process one churn insertion, *after* the network has already
        added ``node`` (and its edges) to G/G′.

        The joiner registers as a fresh singleton class, then merges with
        the G′ components its ``heal_edges`` touch — a single quotient
        class over ``{node} ∪ heal-edge endpoints``, routed through the
        same MINID merge-and-charge step as every deletion round (so the
        accounting semantics are shared, not reimplemented). With no heal
        edges the node stays an isolated singleton component.
        """
        self.add_node(node, node_id)

        reps: list[Node] = [node]
        seen: set[Node] = {node}
        for a, b in heal_edges:
            for u in (a, b):
                if u not in seen:
                    seen.add(u)
                    reps.append(u)
        proot: dict[Node, Node] = {}
        for u in reps:
            r = self._find(u)
            members = self._root_members.get(r)
            if members is None or u not in members:
                raise SimulationError(
                    f"heal-edge endpoint {u!r} is not tracked"
                )
            proot[u] = r

        (
            total_changes,
            total_msgs,
            components_after,
            merged_label_set,
        ) = self._merge_quotient_classes({node: reps}, proot)

        self.insert_rounds += 1
        return RoundStats(
            id_changes=total_changes,
            messages_sent=total_msgs,
            components_merged=len(merged_label_set),
            components_after=components_after,
            split=False,
        )

    # ------------------------------------------------------------------
    # Batch rounds (simultaneous multi-node deletion — footnote 1)
    # ------------------------------------------------------------------
    def batch_round(
        self,
        affected_labels: set[NodeId],
        participants: Sequence[Node],
        plan_edges: Sequence[tuple[Node, Node]],
    ) -> RoundStats:
        """Relabel after a *batch* heal via the honest traversal path.

        The caller has already removed every victim (via
        :meth:`remove_node`) and inserted the healing edges into G/G′.
        This method BFSes the affected region of G′ and routes the result
        through the same union-find apply step as every other round; it
        is the ground-truth slow path that :meth:`fast_batch_round` falls
        back to (and is differential-tested against).
        """
        self.slow_batch_rounds += 1
        return self._bfs_round(affected_labels, participants)

    def fast_batch_round(
        self,
        affected_labels: set[NodeId],
        participants: Sequence[Node],
        plan_edges: Sequence[tuple[Node, Node]],
        foreign_labels: frozenset[NodeId] | set[NodeId] = frozenset(),
    ) -> RoundStats | None:
        """Traversal-free :meth:`batch_round` for component-safe wave
        heals; returns ``None`` to hand the round to the honest BFS path.

        The victims of one G-victim-component are already removed; each
        dead tree named by ``affected_labels`` is shattered into pieces,
        and every piece is G′-adjacent to a victim, so it is represented
        among ``participants`` by at least one surviving G′-neighbor —
        provided every victim of that tree belongs to *this* victim
        component (the caller vouches for that; dead trees shared between
        victim components must go through the traversal until one honest
        round has recomputed their pieces). The merge itself is the one
        every single-victim :meth:`round` runs, a wave of one.

        Hands the round to the slow path whenever the quotient structure
        cannot be trusted without a traversal:

        * a dead tree is shared with another victim component and not yet
          recomputed (``affected_labels ∩ foreign_labels``, or the caller
          skipping the call entirely) — some of its pieces are invisible
          to this round;
        * a participant sits in another victim component's
          not-yet-recomputed shattered tree (its current label is in
          ``foreign_labels``) — its class's member set no longer matches
          G′ connectivity;
        * the plan leaves one pre-round class spread over more than one
          quotient class — attributing members to individual pieces then
          needs a real traversal.

        Also serves non-component-safe wave plans (the caller vouches
        that every G′-neighbor of the victims participates, so every
        piece of every owned dead tree is represented).
        """
        stats = self._quotient_round(
            affected_labels, participants, plan_edges, foreign_labels
        )
        if stats is not None:
            self.fast_batch_rounds += 1
        return stats

    # ------------------------------------------------------------------
    # Fast path: merge union-find classes without touching their members
    # ------------------------------------------------------------------
    def _quotient_round(
        self,
        affected_labels: set[NodeId],
        participants: Sequence[Node],
        plan_edges: Sequence[tuple[Node, Node]],
        foreign_labels: frozenset[NodeId] | set[NodeId] = frozenset(),
    ) -> RoundStats | None:
        """The quotient merge of every single-victim and wave round;
        ``None`` hands the round to the BFS (see
        :meth:`fast_batch_round` for when).

        Quotient vertices are the participants themselves (one per
        G′-neighbor-piece of a dead tree, one per surviving class rep);
        plan edges connect them, and each quotient class becomes one
        union-find merge that relabels (and charges messages to) only the
        members of classes whose label loses. A still-live class named by
        an affected label that no participant maps to sits in the BFS's
        affected region, so it is counted in the components-merged/after
        accounting, but is never traversed.
        """
        if not foreign_labels.isdisjoint(affected_labels):
            return None

        # Quotient union-find over the participants, merged by plan edges.
        parent: dict[Node, Node] = {u: u for u in participants}

        def find(x: Node) -> Node:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in plan_edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        # Persistent class of each participant; bail out on untracked or
        # dead participants and on shattered foreign trees (their
        # recorded member sets are stale).
        proot: dict[Node, Node] = {}
        root_members = self._root_members
        root_label = self._root_label
        for u in parent:
            try:
                r = self._find(u)
            except KeyError:
                return None
            members = root_members.get(r)
            if members is None or u not in members:
                return None
            if root_label[r] in foreign_labels:
                return None
            proot[u] = r

        # Piece-unity check: every persistent class must land wholly in
        # one quotient class (a shattered dead tree has one quotient
        # vertex per piece; an intact class may be multiply represented
        # after earlier relabels in the same wave).
        classes: dict[Node, list[Node]] = {}
        owner: dict[Node, Node] = {}
        for u in participants:
            q = find(u)
            classes.setdefault(q, []).append(u)
            if owner.setdefault(proot[u], q) != q:
                return None

        # A dead tree's class that survived earlier rounds of the wave
        # untouched by this plan: counted (the BFS's region includes it
        # via its label) but never traversed or relabelled.
        untouched_labels: set[NodeId] = set()
        for lbl in affected_labels:
            r = self._label_root.get(lbl)
            if r is not None and r not in owner:
                untouched_labels.add(lbl)

        (
            total_changes,
            total_msgs,
            components_after,
            merged_label_set,
        ) = self._merge_quotient_classes(classes, proot)
        merged_label_set |= untouched_labels
        return RoundStats(
            id_changes=total_changes,
            messages_sent=total_msgs,
            components_merged=len(merged_label_set),
            components_after=components_after + len(untouched_labels),
            split=False,
        )

    def _merge_quotient_classes(
        self,
        classes: dict[Node, list[Node]],
        proot: Mapping[Node, Node],
    ) -> tuple[int, int, int, set[NodeId]]:
        """Apply one union-find merge per quotient class.

        ``classes`` maps each quotient root to its participant reps (in
        participant order); ``proot`` maps each participant to its
        persistent class root. Each merge adopts the minimum label and
        relabels (and charges messages to) only members of classes whose
        label loses; member sets union small-into-large. Returns
        ``(id_changes, messages_sent, components_after,
        merged_labels)``.

        Shared by :meth:`_quotient_round` and :meth:`insert_round`: the
        accounting must stay byte-identical to the eager BFS on both
        paths, so there is exactly one copy of the merge-and-charge
        loop.
        """
        root_members = self._root_members
        root_label = self._root_label
        total_changes = 0
        total_msgs = 0
        components_after = 0
        merged_label_set: set[NodeId] = set()

        for reps in classes.values():
            # Distinct persistent classes merged by this quotient class.
            roots: list[Node] = []
            seen_roots: set[Node] = set()
            for u in reps:
                r = proot[u]
                if r not in seen_roots:
                    seen_roots.add(r)
                    roots.append(r)
            components_after += 1
            for r in roots:
                merged_label_set.add(root_label[r])
            if len(roots) == 1:
                continue

            final = min(root_label[r] for r in roots)
            # Charge every member of every class whose label loses.
            for r in roots:
                if root_label[r] != final:
                    total_changes += len(root_members[r])
                    total_msgs += self._charge_members(root_members[r])

            # Union: smaller member sets fold into the largest.
            big = max(roots, key=lambda r: len(root_members[r]))
            big_set = root_members[big]
            for r in roots:
                del self._label_root[root_label[r]]
                if r != big:
                    self._parent[r] = big
                    big_set |= root_members.pop(r)
                    del root_label[r]
            root_label[big] = final
            self._label_root[final] = big

        return total_changes, total_msgs, components_after, merged_label_set

    def _charge_members(self, members: Iterable[Node]) -> int:
        """Charge an ID change (and per-G-neighbor announcements) to every
        node in ``members``; returns the messages sent."""
        graph = self.graph
        id_changes = self.id_changes
        messages_sent = self.messages_sent
        received = self.messages_received
        msgs = 0
        for u in members:
            id_changes[u] += 1
            if graph.has_node(u):
                nbrs = graph.neighbors_view(u)
                deg = len(nbrs)
                messages_sent[u] += deg
                msgs += deg
                for w in nbrs:
                    received[w] += 1
        return msgs

    # ------------------------------------------------------------------
    # Slow path: BFS over the affected region of G′
    # ------------------------------------------------------------------
    def _collect_roots(
        self, labels: Iterable[NodeId], participants: Sequence[Node]
    ) -> list[Node]:
        """Distinct class roots named by ``labels`` or owning a participant."""
        roots: list[Node] = []
        seen: set[Node] = set()
        for lbl in labels:
            r = self._label_root.get(lbl)
            if r is not None and r not in seen:
                seen.add(r)
                roots.append(r)
        for u in participants:
            try:
                r = self._find(u)
            except KeyError:
                continue
            if r in self._root_members and r not in seen:
                seen.add(r)
                roots.append(r)
        return roots

    def _region_of(
        self, roots: Iterable[Node]
    ) -> tuple[set[Node], dict[Node, NodeId]]:
        """Member union of ``roots`` plus a per-node pre-round label map
        (built in one pass so the apply step never rescans groups)."""
        affected: set[Node] = set()
        old_label: dict[Node, NodeId] = {}
        for r in roots:
            lbl = self._root_label[r]
            mem = self._root_members[r]
            affected |= mem
            for u in mem:
                old_label[u] = lbl
        return affected, old_label

    def _bfs_groups(
        self, affected: set[Node], old_label: dict[Node, NodeId]
    ) -> tuple[list[set[Node]], list[set[NodeId]]]:
        """True G′ components of ``affected``, with each group's pre-round
        label set collected during the traversal."""
        groups: list[set[Node]] = []
        group_labels: list[set[NodeId]] = []
        seen: set[Node] = set()
        for start in affected:
            if start in seen:
                continue
            comp = {start}
            labels = {old_label[start]}
            frontier: deque[Node] = deque([start])
            while frontier:
                x = frontier.popleft()
                for y in self.healing_graph.neighbors_view(x):
                    if y in affected and y not in comp:
                        comp.add(y)
                        labels.add(old_label[y])
                        frontier.append(y)
            seen |= comp
            groups.append(comp)
            group_labels.append(labels)
        return groups, group_labels

    def _bfs_round(
        self, labels: Iterable[NodeId], participants: Sequence[Node]
    ) -> RoundStats:
        """Settle a round by BFS over the affected region of G′ — every
        class named by ``labels`` or owning a participant — and apply
        the true components through :meth:`_apply_rebuild`."""
        roots = self._collect_roots(labels, participants)
        affected, old_label = self._region_of(roots)
        groups, group_labels = self._bfs_groups(affected, old_label)
        changes, msgs, split = self._apply_rebuild(
            groups, group_labels, old_label
        )
        return RoundStats(
            id_changes=changes,
            messages_sent=msgs,
            components_merged=len(set().union(*group_labels)),
            components_after=len(groups),
            split=split,
        )

    # ------------------------------------------------------------------
    # Relabelling + message accounting (slow/batch apply step)
    # ------------------------------------------------------------------
    def _apply_rebuild(
        self,
        groups: list[set[Node]],
        group_labels: list[set[NodeId]],
        old_label: dict[Node, NodeId],
    ) -> tuple[int, int, bool]:
        """Rebuild the union-find classes for ``groups`` and charge
        ID-change messages; returns ``(id_changes, messages_sent,
        split)``.

        Merge semantics follow the paper: the new label is the minimum of
        the labels being merged (MINID), even when the ID's originating
        node is long deleted. When a component *splits* (non-paper healers
        only), each piece is relabelled with the minimum initial ID among
        its own members, which preserves global label uniqueness. Splits
        are detected from the per-group label sets collected during the
        BFS — a pre-round label claimed by more than one group — without
        rescanning any group. In a single-victim round only the victim's
        class can split (every other class lost no G′ edge), so ``split``
        is exactly "the heal failed to re-merge the victim's component".
        """
        claims: dict[NodeId, int] = {}
        for labels in group_labels:
            for lbl in labels:
                claims[lbl] = claims.get(lbl, 0) + 1

        total_changes = 0
        total_msgs = 0
        split = False
        consumed: set[NodeId] = set()
        assignments: list[tuple[NodeId, set[Node]]] = []
        for g, labels in zip(groups, group_labels):
            if not g:
                continue
            if any(claims[lbl] > 1 for lbl in labels):
                split = True
                final = min(self.initial_ids[u] for u in g)
            else:
                final = min(labels)
            consumed |= labels
            assignments.append((final, g))
            changers = [u for u in g if old_label[u] != final]
            total_changes += len(changers)
            total_msgs += self._charge_members(changers)

        # Tear down the consumed classes, then install the new ones.
        for lbl in consumed:
            r = self._label_root.pop(lbl, None)
            if r is not None:
                self._root_members.pop(r, None)
                self._root_label.pop(r, None)
        parent = self._parent
        for final, g in assignments:
            existing = self._label_root.get(final)
            if existing is not None and self._root_members[existing] != g:
                raise SimulationError(f"label collision on {final!r}")
            root = existing if existing is not None else next(iter(g))
            for u in g:
                parent[u] = root
            parent[root] = root
            self._root_members[root] = g
            self._root_label[root] = final
            self._label_root[final] = root
        return total_changes, total_msgs, split

    # ------------------------------------------------------------------
    # Verification hook (tests / paranoid mode)
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Verify the union-find tables against BFS ground truth: member
        sets partition the live nodes, the label↔root indexes agree, and
        the tracked components match the true connected components of G′.
        O(n + m); for tests and paranoid runs."""
        from repro.graph.traversal import connected_components

        seen: set[Node] = set()
        for root, mem in self._root_members.items():
            lbl = self._root_label.get(root)
            if lbl is None or self._label_root.get(lbl) != root:
                raise SimulationError(
                    f"label/root index mismatch for root {root!r}"
                )
            for u in mem:
                if self._find(u) != root:
                    raise SimulationError(f"member {u!r} mislabelled")
                if u in seen:
                    raise SimulationError(f"node {u!r} in two components")
                seen.add(u)
        if len(self._label_root) != len(self._root_members):
            raise SimulationError("duplicate component labels")
        true_comps = {
            frozenset(c) for c in connected_components(self.healing_graph)
        }
        tracked = {frozenset(mem) for mem in self._root_members.values()}
        if true_comps != tracked:
            raise SimulationError(
                "tracked components disagree with G' connectivity: "
                f"{len(tracked)} tracked vs {len(true_comps)} actual"
            )
