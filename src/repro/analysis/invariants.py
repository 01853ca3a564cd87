"""Executable paper invariants.

Each check raises :class:`~repro.errors.InvariantViolation` with a
diagnostic message on failure, so tests and paranoid simulation runs can
pinpoint the exact broken lemma.
"""

from __future__ import annotations

from typing import Hashable

from repro.analysis.theory import dash_degree_bound
from repro.core.network import SelfHealingNetwork
from repro.errors import InvariantViolation, SimulationError
from repro.graph.forest import is_forest
from repro.graph.graph import Graph
from repro.graph.traversal import is_connected

__all__ = [
    "check_forest_invariant",
    "check_connectivity_invariant",
    "check_component_labels",
    "check_degree_index",
    "check_degree_bound",
    "check_healing_subset",
    "lemma10_degree_sum_delta",
]

Node = Hashable


def check_forest_invariant(network: SelfHealingNetwork) -> None:
    """Lemma 1: the healing-edge graph G′ is a forest."""
    if not is_forest(network.healing_graph):
        raise InvariantViolation(
            "Lemma 1 violated: healing graph contains a cycle"
        )


def check_connectivity_invariant(network: SelfHealingNetwork) -> None:
    """Theorem 1 headline: the surviving network is connected."""
    if not is_connected(network.graph):
        raise InvariantViolation(
            f"connectivity lost with {network.num_alive} nodes alive "
            f"after {len(network.deleted_nodes)} deletions"
        )


def check_component_labels(network: SelfHealingNetwork) -> None:
    """Algorithm 1, step 5: the MINID labels the tracker maintains with
    its O(α) union-find match the true connected components of G′.

    Delegates to
    :meth:`~repro.core.components.ComponentTracker.check_consistency`,
    the full-BFS ground-truth check (O(n + m)).
    """
    try:
        network.tracker.check_consistency()
    except SimulationError as exc:
        raise InvariantViolation(
            f"component labels disagree with G' ground truth: {exc}"
        ) from exc


def check_degree_index(network: SelfHealingNetwork) -> None:
    """The degree-bucket and δ-bucket indexes agree with fresh scans.

    The targeted adversaries pick victims through
    :meth:`~repro.graph.graph.Graph.max_degree_node` /
    :meth:`~repro.graph.graph.Graph.min_degree_node` /
    :meth:`~repro.core.network.SelfHealingNetwork.max_delta_node` instead
    of scanning every node, so the incremental bucket indexes behind
    those queries must track :meth:`~repro.graph.graph.Graph.degrees`
    and :meth:`~repro.core.network.SelfHealingNetwork.deltas` exactly —
    including cursors and smallest-label tie-breaks. O(n) per call.
    """
    try:
        network.graph.check_degree_index()
        network.check_delta_index()
    except SimulationError as exc:
        raise InvariantViolation(
            f"bucket index disagrees with fresh degree/δ scan: {exc}"
        ) from exc


def check_degree_bound(
    network: SelfHealingNetwork, factor: float = 1.0
) -> None:
    """Lemma 6: peak degree increase ≤ 2·log₂ n (times ``factor`` slack)."""
    bound = factor * dash_degree_bound(max(network.initial_n, 2))
    if network.peak_delta > bound + 1e-9:
        raise InvariantViolation(
            f"degree bound violated: peak δ={network.peak_delta} > "
            f"{bound:.2f} = {factor}·2·log₂({network.initial_n})"
        )


def check_healing_subset(network: SelfHealingNetwork) -> None:
    """E′ ⊆ E: every healing edge is also a real network edge."""
    for a, b in network.healing_graph.edges():
        if not network.graph.has_edge(a, b):
            raise InvariantViolation(
                f"healing edge ({a!r},{b!r}) absent from the real network"
            )


def lemma10_degree_sum_delta(
    graph_before: Graph, graph_after: Graph, deleted: Node
) -> int:
    """Measured change in Σ degree over the deleted node's ex-neighbors.

    Lemma 10: for a tree healed by a locality-aware *acyclic* strategy,
    deleting a degree-d node raises its neighbors' total degree by d−2.
    This helper returns the observed change so tests can assert it.
    """
    if not graph_before.has_node(deleted):
        raise InvariantViolation(f"{deleted!r} not in pre-deletion graph")
    nbrs = graph_before.neighbors(deleted)
    before = sum(graph_before.degree(u) for u in nbrs)
    after = sum(
        graph_after.degree(u) for u in nbrs if graph_after.has_node(u)
    )
    return after - before
