"""Fused unobservable-mode DASH kernel on the graph's slot stores.

The generic engine pays, every round, for machinery whose output the
caller has explicitly declined: ``HealEvent`` construction
(``keep_events=False``), component member lists and message accounting
(no metrics, no recorder), and the network's degree and δ bookkeeping.
Peak δ needs no index in either engine: δ moves only at the nodes a heal
touched, so the kernel raises the peak at each edge it adds, as the
generic loop does from each heal's touched nodes. When a campaign asks
for scalars only — the result's ``initial_n``, ``deletions``,
``insertions``, ``final_alive`` and ``peak_delta`` — all of that work
is unobservable.

:func:`run_fused` runs such campaigns as one fused loop over the slot
stores of :class:`~repro.graph.graph.Graph`: G and G′ adjacency are the
raw slot lists, the component tracker is three parallel arrays
(parent/size/label-origin) with inline path-compressed find, and the
DASH plan (UN(v,G) ∪ N(v,G′) sorted ascending by (δ, initial ID) into a
complete binary tree) is computed with plain ints — node labels, which
are their own slot indices. Labels are recovered
through the label↔origin bijection: every label the tracker ever
installs is ``initial_ids[origin]``, so one float per slot
(``rand[origin]``) reconstructs full ID comparisons, with the origin int
as the lexicographic tie-break.

The loop serves two adversary kinds and differs between them only in
where a round's ops come from:

* :class:`~repro.adversary.classic.RandomAttack` — exactly one
  ``random.Random.choice`` of its RNG per round over the network's
  survivors (:meth:`~repro.core.network.SelfHealingNetwork.survivors`),
  like its ``choose_target``, and the victim leaves that sequence at
  once, as ``delete_and_heal`` would discard it, so the RNG stream and
  the survivors stay what the generic engine would leave behind;
* churn adversaries (``churn``, ``trace-churn``) — each round's ops
  from ``choose_round``, in order. A join is DASH's inherited
  :meth:`~repro.core.base.Healer.insertion_plan` — one δ-neutral G edge
  per distinct target, nothing in G′, a singleton component — so the
  kernel runs it on the slot lists too, after the join checks
  :meth:`~repro.core.network.SelfHealingNetwork.insert_and_heal` runs.

Eligibility is deliberately narrow. The engine asks only for campaigns
that nothing observes (no metrics, recorder, ``keep_events`` or
``keep_network``; ``keep_events=True`` is how the differential tests,
``tests/sim/test_fused_kernel.py``, obtain the reference side), and
:func:`supports` then admits exactly DASH × those adversaries ×
:class:`~repro.graph.graph.Graph` itself (not a subclass or another
graph class).

Every campaign the kernel accepts runs to the end inside it. On exit it
*repairs* what it bypassed: the graphs' cached node/edge counts, the
network's degree and δ indexes (both dropped, so each is rebuilt by its
first query, if any — a campaign that ends in the kernel never queries
them), ``network.peak_delta``, ``network.deleted_nodes`` and, after
churn ops that bypassed them, the network's survivors (dropped if built;
random draws discard each victim from them).
It never touches ``network.tracker`` (which the network builds on first
use), so a fused campaign builds no component tracker at all. It also
leaves ``network.events`` empty, and a later tracker read would start
from Init-step labels, which is why the engine fuses only with
``keep_network=False``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.adversary.classic import RandomAttack
from repro.churn.adversaries import ChurnAdversary, TraceChurnAdversary
from repro.core.dash import Dash
from repro.errors import SimulationError
from repro.graph.graph import EDGELESS, Graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adversary.base import Adversary
    from repro.core.network import SelfHealingNetwork
    from repro.sim.engine import SimulationResult

__all__ = ["supports", "run_fused"]

#: calls of :func:`run_fused` (test observability — the differential
#: tests assert this moves only for eligible configs)
_fused_campaigns = 0


class _Join(tuple):
    """A churn join ``(node, targets)``; no victim can pass for one."""

    __slots__ = ()


def supports(network: "SelfHealingNetwork", adversary: "Adversary") -> bool:
    """True iff a campaign of these two components, which nothing
    observes, is safely fusable.

    Exact-type checks (not ``isinstance``): a subclass may override any
    hook the kernel inlines, so only the verbatim classes qualify, and a
    wave flag (``batch_rounds``) on an instance is refused. Churn
    adversaries qualify too — their rounds dictate victims (no RNG
    draw), their ``choose_round`` never consults the network (which the
    kernel passes with stale public counters), and :func:`run_fused`
    executes their joins itself.
    """
    graph = network.graph
    if type(adversary) is RandomAttack:
        # A mixed-round flag on a RandomAttack instance signals a
        # nonstandard protocol the kernel does not speak — refuse.
        adversary_ok = not getattr(adversary, "mixed_rounds", False)
    else:
        # Churn kernels speak the op protocol, so the flag must be ON.
        adversary_ok = (
            type(adversary) in (ChurnAdversary, TraceChurnAdversary)
            and getattr(adversary, "mixed_rounds", False)
        )
    return (
        adversary_ok
        and type(graph) is Graph
        and type(network.healer) is Dash
        and not getattr(adversary, "batch_rounds", False)
        and not network.check_invariants
        and not network.deleted_nodes
        and not network.events
        # hole-free slot stores: labels == slot indices, every slot live
        and graph.num_nodes == len(graph._nbrs)
        and len(network.healing_graph._nbrs) == len(graph._nbrs)
    )


def run_fused(
    network: "SelfHealingNetwork",
    adversary: "RandomAttack | ChurnAdversary | TraceChurnAdversary",
    *,
    stop_alive: int,
    max_rounds: int | None,
    max_deletions: int | None,
) -> "SimulationResult":
    """Run the whole campaign as one fused loop.

    Caller contract: ``supports(...)`` returned True, ``adversary.reset``
    has run, and nothing has been deleted yet.
    """
    from repro.sim.engine import SimulationResult, _normalize_churn_ops

    global _fused_campaigns
    _fused_campaigns += 1
    graph = network.graph
    healing_graph = network.healing_graph
    adj = graph._nbrs
    padj = healing_graph._nbrs
    n = len(adj)
    initial_ids = network.initial_ids
    initial_degree = network.initial_degree

    # RandomAttack's draws come from its RNG (one choice() per round,
    # like choose_target) over the network's survivors, and each victim
    # leaves them at once, as delete_and_heal would discard it.
    random_attack = type(adversary) is RandomAttack
    if random_attack:
        choice = adversary._rng.choice
        pool = network.survivors()
        kill = pool.discard

    # label↔origin bijection: initial_ids[u] == (rand[u], u)
    rand = [initial_ids[u][0] for u in range(n)]
    init_deg = [len(s) for s in adj]
    # Union-find over slots; dead slots may serve as representatives
    # (their label lives on until a merge relabels the component).
    parent = list(range(n))
    size = [1] * n
    lab_origin = list(range(n))
    peak_delta = network.peak_delta
    victims: list[int] = []

    classes: dict[int, int] = {}
    cget = classes.get
    cclear = classes.clear
    cvalues = classes.values

    n_alive = n
    rounds = 0
    while n_alive > stop_alive:
        if max_rounds is not None and rounds >= max_rounds:
            break
        if max_deletions is not None and len(victims) >= max_deletions:
            break
        if random_attack:
            v = choice(pool)
            kill(v)
            doomed = (v,)
        else:
            chosen = adversary.choose_round(network)
            if not chosen:
                break
            doomed = [
                op[1] if op[0] == "delete" else _Join(op[1:])
                for op in _normalize_churn_ops(adversary, chosen)
            ]
        for v in doomed:
            # Liveness is checked just in time: a churn round may name a
            # victim an earlier op of the same round already deleted.
            # Joins fail this check too, so deletions pay nothing for
            # them.
            if not isinstance(v, int) or not 0 <= v < n or adj[v] is None:
                if type(v) is not _Join:
                    raise SimulationError(
                        f"adversary {adversary.name} chose dead node {v!r}"
                    )
                node, targets = v
                targets = network._join_targets(node, targets)
                node_id = network._insertion_id(node)
                # add_node grows both slot stores; the slot lists
                # follow, and the joiner is a singleton component.
                graph.add_node(node)
                healing_graph.add_node(node)
                for slots in (rand, init_deg, parent, size, lab_origin):
                    slots.extend([0] * (len(adj) - n))
                n = len(adj)
                initial_ids[node] = node_id
                rand[node] = node_id[0]
                parent[node] = lab_origin[node] = node
                size[node] = 1
                network.inserted_nodes.append(node)
                # One G edge per target; both baselines absorb it, so
                # every δ stays put (insert_and_heal's δ-neutrality).
                # Both ends may still hold the shared EDGELESS slot
                # (the joiner always does): create sets before writing.
                if targets:
                    joined = adj[node] = set()
                for t in targets:
                    joined.add(t)
                    nbrs = adj[t]
                    if nbrs is EDGELESS:
                        nbrs = adj[t] = set()
                    nbrs.add(node)
                    init_deg[t] += 1
                    initial_degree[t] += 1
                init_deg[node] = initial_degree[node] = len(targets)
                n_alive += 1
                continue

            # find(v) with path compression; decrement its component.
            root = v
            while parent[root] != root:
                root = parent[root]
            x = v
            while parent[x] != root:
                parent[x], x = root, parent[x]
            vlo = lab_origin[root]
            s = size[root] - 1
            size[root] = s
            old_root = root if s else -1

            # Delete v from G and G′ (grab its neighbor sets first).
            g_nbrs = adj[v]
            adj[v] = None
            for w in g_nbrs:
                adj[w].discard(v)
            gp = padj[v]
            padj[v] = None
            for w in gp:
                padj[w].discard(v)
            n_alive -= 1
            victims.append(v)

            # UN(v,G): one min-initial-ID representative per foreign
            # class. E′ ⊆ E, so every G′-neighbor is also in g_nbrs —
            # skipping ``w in gp`` keeps UN ∩ N(v,G′) = ∅ exactly like
            # the snapshot.
            cclear()
            for w in g_nbrs:
                if w in gp:
                    continue
                r = parent[w]
                if parent[r] != r:
                    while parent[r] != r:
                        r = parent[r]
                    x = w
                    while parent[x] != r:
                        parent[x], x = r, parent[x]
                lo = lab_origin[r]
                if lo != vlo:
                    best = cget(lo)
                    if best is None or rand[w] < rand[best] or (
                        rand[w] == rand[best] and w < best
                    ):
                        classes[lo] = w
            k = len(classes) + len(gp)
            if k < 2:
                continue

            # DASH layout: ascending (δ, initial ID). Every participant
            # lost its edge to v above, so pre-round δ = len(adj[u]) + 1
            # − deg₀.
            participants = list(cvalues())
            participants.extend(gp)
            if k == 2:
                a, b = participants
                if (len(adj[a]) + 1 - init_deg[a], rand[a], a) <= (
                    len(adj[b]) + 1 - init_deg[b], rand[b], b
                ):
                    ordered = participants
                else:
                    ordered = [b, a]
            else:
                ordered = sorted(
                    participants,
                    key=lambda u: (len(adj[u]) + 1 - init_deg[u], rand[u], u),
                )

            # Complete binary tree in heap order; peak δ can only move at
            # an edge actually added to G, at its two endpoints, right now.
            for i in range(1, k):
                a = ordered[(i - 1) >> 1]
                b = ordered[i]
                la = adj[a]
                if b not in la:
                    la.add(b)
                    adj[b].add(a)
                    d = len(la) - init_deg[a]
                    if d > peak_delta:
                        peak_delta = d
                    d = len(adj[b]) - init_deg[b]
                    if d > peak_delta:
                        peak_delta = d
                # A G′ slot gets its set at its first heal edge.
                pa = padj[a]
                if pa is EDGELESS:
                    pa = padj[a] = set()
                pa.add(b)
                pb = padj[b]
                if pb is EDGELESS:
                    pb = padj[b] = set()
                pb.add(a)

            # MINID propagation (Algorithm 1, step 5): union all touched
            # components; the survivor root takes the minimum class label.
            roots = []
            if gp and old_root >= 0:
                roots.append(old_root)
            for u in cvalues():
                r = parent[u]
                while parent[r] != r:
                    r = parent[r]
                if r not in roots:
                    roots.append(r)
            if len(roots) > 1:
                fo = lab_origin[roots[0]]
                big = roots[0]
                bl = size[big]
                for r in roots[1:]:
                    o = lab_origin[r]
                    if rand[o] < rand[fo] or (rand[o] == rand[fo] and o < fo):
                        fo = o
                    L = size[r]
                    if L > bl:
                        big = r
                        bl = L
                tot = 0
                for r in roots:
                    tot += size[r]
                    if r != big:
                        parent[r] = big
                size[big] = tot
                lab_origin[big] = fo
        rounds += 1

    # Repair what the fused loop bypassed, so the graphs and the network
    # leave this function with accurate state.
    graph._n_alive = n_alive
    graph._num_edges = sum(len(s) for s in adj if s is not None) // 2
    healing_graph._n_alive = n_alive
    healing_graph._num_edges = (
        sum(len(s) for s in padj if s is not None) // 2
    )
    network.peak_delta = peak_delta
    network.deleted_nodes.extend(victims)
    # Survivors' degrees moved without the network's settling: drop both
    # indexes, and each one's first query rebuilds it.
    network._degree_index = network._delta_index = None
    if not random_attack:  # churn ops bypassed the survivors too
        network._survivors = None

    insertions = len(network.inserted_nodes)
    return SimulationResult(
        initial_n=network.initial_n,
        deletions=len(victims),
        final_alive=n_alive,
        peak_delta=peak_delta,
        values={} if random_attack else {"insertions": float(insertions)},
        events=None,
        network=None,
        insertions=insertions,
    )
