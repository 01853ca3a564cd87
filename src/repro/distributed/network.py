"""Distributed self-healing network: processes + oracle + bootstrap.

:class:`DistributedNetwork` plays the roles the paper assumes exist
outside the algorithm: it bootstraps NoN knowledge (citing [14, 18], the
paper takes efficient NoN maintenance as given), acts as the
failure-detection oracle (each deletion is announced to the victim's
neighbors), and runs the engine to quiescence between deletions (the
adversary "can only delete a small number of nodes" per time step, so the
network always finishes reacting first).

It exposes reconstruction helpers (:meth:`graph`, :meth:`healing_graph`,
:meth:`labels`) used by the equivalence tests, which assert that the
distributed protocol and the centralized
:class:`~repro.core.network.SelfHealingNetwork` produce *identical*
topology, labels, δ, and ID-change counts for the same seeds and attack
sequence.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.core.base import Healer
from repro.core.components import NodeId, make_node_ids
from repro.distributed.engine import SyncEngine
from repro.distributed.messages import Message, MsgKind
from repro.distributed.node import NodeProcess
from repro.errors import NodeNotFoundError, ProtocolError
from repro.graph.graph import Graph
from repro.utils.rng import make_rng

__all__ = ["DistributedNetwork"]

Node = Hashable


class DistributedNetwork:
    """A network of message-passing node processes healing themselves.

    Parameters
    ----------
    graph:
        Initial topology (read once; not retained).
    healer_factory:
        Zero-argument callable producing a :class:`Healer`; every node
        gets its own instance. Healers must be deterministic pure
        functions of the snapshot for the protocol to converge (all of
        the paper's healers are; the seeded random-order ablation is not
        and is rejected by the equivalence tests rather than here).
    seed:
        Seed for initial node IDs. Uses the same derivation as
        :class:`~repro.core.network.SelfHealingNetwork`, so equal seeds
        give equal IDs.
    """

    def __init__(
        self,
        graph: Graph,
        healer_factory: Callable[[], Healer],
        *,
        seed: int | None = 0,
        jitter: int = 0,
        jitter_seed: int = 0,
    ) -> None:
        """``jitter > 0`` runs the protocol on the asynchronous engine:
        every protocol message is delayed a seeded-random extra 0..jitter
        rounds. Versioned state snapshots make the outcome independent of
        delivery order — asserted by the equivalence tests."""
        self.engine = SyncEngine(jitter=jitter, seed=jitter_seed)
        rng = make_rng(seed)
        self.initial_ids: dict[Node, NodeId] = make_node_ids(
            graph.nodes(), rng
        )
        self.processes: dict[Node, NodeProcess] = {}
        for u in graph.nodes():
            proc = NodeProcess(
                node=u,
                initial_id=self.initial_ids[u],
                neighbors=graph.neighbors(u),
                healer=healer_factory(),
                engine=self.engine,
            )
            self.processes[u] = proc
            self.engine.register(u, proc)
        self._bootstrap_non()
        self.deleted_nodes: list[Node] = []

    def _bootstrap_non(self) -> None:
        """Install 1- and 2-hop state knowledge directly (the paper assumes
        the NoN tables already exist when the algorithm starts)."""
        states = {u: p.state() for u, p in self.processes.items()}
        for proc in self.processes.values():
            for nbr in proc.g_adj:
                proc.learn(states[nbr])
                for second in states[nbr].g_adj:
                    if second != proc.node:
                        proc.learn(states[second])

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def delete(self, victim: Node, *, max_rounds: int = 10_000) -> int:
        """Crash ``victim``, notify its neighbors, run to quiescence.

        Returns the number of engine rounds the reaction took (the
        *latency* of this heal in the synchronous model).
        """
        proc = self.processes.get(victim)
        if proc is None:
            raise NodeNotFoundError(victim)
        final_state = proc.state()
        del self.processes[victim]
        self.engine.unregister(victim)
        self.deleted_nodes.append(victim)
        for nbr in final_state.g_adj:
            self.engine.post(
                Message(
                    kind=MsgKind.DELETION,
                    src=victim,
                    dst=nbr,
                    payload=final_state,
                )
            )
        return self.engine.run_until_quiescent(max_rounds=max_rounds)

    def delete_many(self, victims) -> list[int]:
        """Sequential deletions; returns per-deletion quiescence rounds."""
        return [self.delete(v) for v in victims]

    # ------------------------------------------------------------------
    # Global reconstruction (oracle-side views for tests/metrics)
    # ------------------------------------------------------------------
    @property
    def num_alive(self) -> int:
        return len(self.processes)

    def graph(self) -> Graph:
        """Reassemble G from per-node adjacency; verifies symmetry."""
        g = Graph(self.processes.keys())
        for u, proc in self.processes.items():
            for v in proc.g_adj:
                other = self.processes.get(v)
                if other is None:
                    raise ProtocolError(f"{u!r} lists dead neighbor {v!r}")
                if u not in other.g_adj:
                    raise ProtocolError(f"asymmetric adjacency {u!r}→{v!r}")
                if not g.has_edge(u, v):
                    g.add_edge(u, v)
        return g

    def healing_graph(self) -> Graph:
        """Reassemble G′ from per-node healing adjacency."""
        g = Graph(self.processes.keys())
        for u, proc in self.processes.items():
            for v in proc.gp_adj:
                other = self.processes.get(v)
                if other is None:
                    raise ProtocolError(f"{u!r} lists dead G' neighbor {v!r}")
                if u not in other.gp_adj:
                    raise ProtocolError(f"asymmetric G' adjacency {u!r}→{v!r}")
                if not g.has_edge(u, v):
                    g.add_edge(u, v)
        return g

    def labels(self) -> dict[Node, NodeId]:
        return {u: p.label for u, p in self.processes.items()}

    def deltas(self) -> dict[Node, int]:
        return {u: p.delta for u, p in self.processes.items()}

    def id_messages_sent(self, node: Node) -> int:
        return self.engine.messages_sent(node, MsgKind.ID_UPDATE)

    def non_overhead_messages(self) -> int:
        """Total NoN-maintenance traffic (STATE messages)."""
        return self.engine.total_sent(MsgKind.STATE)
