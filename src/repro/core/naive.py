"""Baseline healers from the paper's experiments, plus the lower-bound healer.

Section 4.3 compares DASH against two naive locality-aware strategies:

* **GraphHeal** — reconnect *all* neighbors of the deleted node into a
  binary tree "regardless of whether we introduced any cycles"; it
  ignores component information and wastes edges.
* **BinaryTreeHeal** — component-aware (uses the random IDs to rewire one
  node per healing-edge component) but δ-oblivious: the tree layout
  ignores previous degree increase.

We additionally implement:

* **LineHeal** — the simple line reconnection of the earlier work DASH
  builds on (Boman et al. 2006, refs [5, 6]); component-aware path.
* **StarHeal** — component-aware star centered at the min-δ participant;
  an instructive extreme (one node absorbs everything).
* **NoHeal** — no edges at all; the control that quantifies what healing
  buys (connectivity fails almost immediately).
* **RandomOrderDash** — ablation: DASH's exact mechanics but with the RT
  layout order shuffled instead of δ-sorted. Isolates the value of
  degree-based placement (benchmark ``bench_ablation_order``).
* **DegreeBoundedHealer(M)** — a locality-aware healer that never
  increases any node's degree by more than M in one round (complete
  M-ary RT in ascending-δ order). This is the algorithm class that
  Theorem 2's LEVELATTACK defeats; the lower-bound experiments run it.

Performance: the non-component-safe healers here (GraphHeal,
DeltaOrderedGraphHeal, NoHeal) used to force an honest BFS over the
affected region every round — O(region) per round, quadratic full-kill
campaigns once the healed blob grows. Their rounds now resolve through
the same traversal-free quotient merge as the component-safe healers:
GraphHeal's rewire-everyone trees cover every shattered piece of the
dead G′ tree, and NoHeal's G′ never has edges, so baseline sweeps scale
like DASH sweeps (byte-identical accounting vs. the eager reference
tracker in ``tests/core/_eager_tracker.py`` —
``benchmarks/bench_naive_healers.py`` and the differential suite in
``tests/core/test_naive_fast_path.py``).
"""

from __future__ import annotations

import random
from typing import ClassVar

from repro.core.base import (
    Healer,
    NeighborhoodSnapshot,
    ReconnectionPlan,
    empty_plan,
)
from repro.core.binary_tree import (
    complete_binary_tree_edges,
    complete_tree_edges,
    path_edges,
    star_edges,
)
from repro.errors import ConfigurationError
from repro.utils.rng import make_rng, rng_state_from_json, rng_state_to_json

__all__ = [
    "NoHeal",
    "GraphHeal",
    "DeltaOrderedGraphHeal",
    "BinaryTreeHeal",
    "LineHeal",
    "StarHeal",
    "RandomOrderDash",
    "DegreeBoundedHealer",
]


class NoHeal(Healer):
    """Control strategy: never add an edge."""

    name: ClassVar[str] = "none"

    def plan(self, snapshot: NeighborhoodSnapshot) -> ReconnectionPlan:
        return empty_plan(snapshot, component_safe=False)


class GraphHeal(Healer):
    """Naive: binary tree over *all* neighbors, cycles be damned.

    Deterministic layout order: ascending initial ID (the paper specifies
    no order for the naive healers).
    """

    name: ClassVar[str] = "graph-heal"

    def plan(self, snapshot: NeighborhoodSnapshot) -> ReconnectionPlan:
        ordered = sorted(
            snapshot.g_neighbors, key=lambda u: snapshot.initial_ids[u]
        )
        return ReconnectionPlan(
            participants=tuple(ordered),
            edges=tuple(complete_binary_tree_edges(ordered)),
            kind="binary-tree",
            component_safe=False,
        )


class DeltaOrderedGraphHeal(Healer):
    """Ablation: δ-ordered binary tree over *all* neighbors (no components).

    Pairs with DASH to isolate the value of component tracking: both lay
    out a δ-sorted complete binary tree; this one rewires every neighbor
    instead of one per component (Section 3.1 argues such healers must
    accumulate degree). Benchmark ``bench_ablation_components`` uses it.
    """

    name: ClassVar[str] = "graph-heal-delta"

    def plan(self, snapshot: NeighborhoodSnapshot) -> ReconnectionPlan:
        ordered = snapshot.sort_by_delta(sorted(snapshot.g_neighbors))
        return ReconnectionPlan(
            participants=tuple(ordered),
            edges=tuple(complete_binary_tree_edges(ordered)),
            kind="binary-tree",
            component_safe=False,
        )


class BinaryTreeHeal(Healer):
    """Component-aware binary tree, but δ-oblivious (initial-ID order)."""

    name: ClassVar[str] = "binary-tree-heal"

    def plan(self, snapshot: NeighborhoodSnapshot) -> ReconnectionPlan:
        ordered = sorted(
            snapshot.participants(), key=lambda u: snapshot.initial_ids[u]
        )
        return ReconnectionPlan(
            participants=tuple(ordered),
            edges=tuple(complete_binary_tree_edges(ordered)),
            kind="binary-tree",
            component_safe=True,
        )


class LineHeal(Healer):
    """Component-aware path (the earlier line-healing algorithm [5, 6])."""

    name: ClassVar[str] = "line-heal"

    def plan(self, snapshot: NeighborhoodSnapshot) -> ReconnectionPlan:
        ordered = sorted(
            snapshot.participants(), key=lambda u: snapshot.initial_ids[u]
        )
        return ReconnectionPlan(
            participants=tuple(ordered),
            edges=tuple(path_edges(ordered)),
            kind="line",
            component_safe=True,
        )


class StarHeal(Healer):
    """Component-aware star centered at the minimum-δ participant."""

    name: ClassVar[str] = "star-heal"

    def plan(self, snapshot: NeighborhoodSnapshot) -> ReconnectionPlan:
        participants = snapshot.participants()
        if not participants:
            return empty_plan(snapshot, component_safe=True)
        ordered = snapshot.sort_by_delta(participants)
        center = ordered[0]
        return ReconnectionPlan(
            participants=tuple(ordered),
            edges=tuple(star_edges(center, ordered[1:])),
            kind="star",
            component_safe=True,
            center=center,
        )


class RandomOrderDash(Healer):
    """Ablation: DASH with a shuffled (not δ-sorted) RT layout.

    Seeded so runs are reproducible; ``reset()`` rewinds the stream.
    """

    name: ClassVar[str] = "dash-random-order"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng: random.Random = make_rng(seed)

    def reset(self) -> None:
        self._rng = make_rng(self._seed)

    def export_state(self) -> dict:
        return {"rng": rng_state_to_json(self._rng)}

    def import_state(self, state: dict) -> None:
        rng_state_from_json(state["rng"], self._rng)

    def plan(self, snapshot: NeighborhoodSnapshot) -> ReconnectionPlan:
        ordered = sorted(
            snapshot.participants(), key=lambda u: snapshot.initial_ids[u]
        )
        self._rng.shuffle(ordered)
        return ReconnectionPlan(
            participants=tuple(ordered),
            edges=tuple(complete_binary_tree_edges(ordered)),
            kind="binary-tree",
            component_safe=True,
        )


class DegreeBoundedHealer(Healer):
    """M-degree-bounded locality-aware healer (Theorem 2's victim class).

    Reconnects ``UN(v,G) ∪ N(v,G′)`` as a complete M-ary tree in
    ascending-δ heap order. Net per-round degree increase: the root gains
    M children and loses its edge to the deleted node (net M−1); an
    internal node gains one parent and ≤M children and loses one (net
    ≤ M); leaves gain a parent and lose one (net 0). So no node's degree
    grows by more than M in a round, the definition of M-degree-bounded
    (Section 3.2).
    """

    name: ClassVar[str] = "degree-bounded"

    def __init__(self, max_increase: int = 1) -> None:
        if max_increase < 1:
            raise ConfigurationError(
                f"max_increase must be >= 1, got {max_increase}"
            )
        self.max_increase = max_increase

    def plan(self, snapshot: NeighborhoodSnapshot) -> ReconnectionPlan:
        ordered = snapshot.sort_by_delta(snapshot.participants())
        edges = complete_tree_edges(ordered, branching=self.max_increase)
        return ReconnectionPlan(
            participants=tuple(ordered),
            edges=tuple(edges),
            kind="kary-tree",
            component_safe=True,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DegreeBoundedHealer(max_increase={self.max_increase})"
