"""Metric trackers for the attack/heal loop.

Each metric observes every :class:`~repro.core.network.HealEvent` and
contributes named scalars to the simulation result. The set matches what
the paper reports:

========================  =====================================
paper artifact            metric
========================  =====================================
Fig. 8 (degree increase)  :class:`DegreeMetric`
Fig. 9(a) (ID changes)    :class:`IdChangeMetric`
Fig. 9(b) (messages)      :class:`MessageMetric`
Fig. 10 (stretch)         :class:`StretchMetric`
Thm. 1 (latency)          :class:`LatencyMetric`
connectivity invariant    :class:`ConnectivityMetric`
healing edge budget       :class:`EdgeBudgetMetric`
========================  =====================================

:class:`ConnectivityMetric` costs O(1) per check while every heal since
its last BFS passed the network's local connectivity certificate (see
:mod:`repro.core.network`), and the O(n+m) BFS otherwise: under the
paper's healers an observed campaign runs one BFS, not one per round.

Every metric is registered in :data:`METRICS` (a
:class:`~repro.registry.Registry`), so experiment specs, campaign
requests and tests name them as spec strings — ``"connectivity:period=4"``,
``"capacity:headroom=2"``. ``"stretch"`` also needs the pristine
``original`` graph, which :func:`~repro.service.request.run_request`
supplies; a sweep asks for it through ``measure_stretch``.
"""

from __future__ import annotations

import abc
import weakref
from typing import TYPE_CHECKING, ClassVar

from repro.errors import CheckpointError, ConfigurationError
from repro.graph.graph import Graph
from repro.graph.traversal import connected_components, is_connected
from repro.registry import Registry
from repro.sim.stretch import StretchComputer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.network import HealEvent, SelfHealingNetwork

__all__ = [
    "Metric",
    "METRICS",
    "DegreeMetric",
    "IdChangeMetric",
    "MessageMetric",
    "LatencyMetric",
    "ConnectivityMetric",
    "ComponentMetric",
    "CapacityMetric",
    "EdgeBudgetMetric",
    "StretchMetric",
    "default_metrics",
]


class Metric(abc.ABC):
    """Observes heal events; reports named scalar results."""

    #: whether mid-campaign state round-trips through
    #: :meth:`export_state`/:meth:`import_state` (metrics holding
    #: non-serializable machinery — e.g. stretch's APSP computer over the
    #: pristine graph — set this False and block checkpointed campaigns)
    checkpointable: ClassVar[bool] = True

    def on_event(
        self, network: "SelfHealingNetwork", event: "HealEvent"
    ) -> None:
        """Called after each deletion+heal round."""

    @abc.abstractmethod
    def finalize(self, network: "SelfHealingNetwork") -> dict[str, float]:
        """Called once at run end; returns {metric_name: value}."""

    def export_state(self) -> dict:
        """JSON-serializable accumulated state (checkpoint protocol).

        The default captures the instance ``__dict__`` wholesale, which
        covers every metric in this module: their state is counters,
        rounds, and scalar accumulators. A metric with non-serializable
        attributes must override (or declare ``checkpointable = False``).
        """
        if not self.checkpointable:
            raise CheckpointError(
                f"metric {type(self).__name__} is not checkpointable"
            )
        return dict(vars(self))

    def import_state(self, state: dict) -> None:
        """Restore :meth:`export_state` output on a fresh instance."""
        self.__dict__.update(state)


class DegreeMetric(Metric):
    """Fig. 8: maximum degree increase of any node over the whole run."""

    def finalize(self, network: "SelfHealingNetwork") -> dict[str, float]:
        return {
            "max_degree_increase": float(network.peak_delta),
            "final_max_degree_increase": float(network.max_delta()),
            "final_max_degree": float(network.max_degree()),
        }


class IdChangeMetric(Metric):
    """Fig. 9(a): per-node ID-change counts (max and mean over nodes)."""

    def finalize(self, network: "SelfHealingNetwork") -> dict[str, float]:
        changes = network.tracker.id_changes
        vals = list(changes.values())
        n = len(vals) or 1
        return {
            "max_id_changes": float(max(vals, default=0)),
            "mean_id_changes": float(sum(vals)) / n,
            "total_id_changes": float(sum(vals)),
        }


class MessageMetric(Metric):
    """Fig. 9(b): ID-maintenance messages per node (sent + received)."""

    def finalize(self, network: "SelfHealingNetwork") -> dict[str, float]:
        tr = network.tracker
        per_node = {
            u: tr.messages_sent.get(u, 0) + tr.messages_received.get(u, 0)
            for u in tr.messages_sent
        }
        vals = list(per_node.values())
        n = len(vals) or 1
        return {
            "max_messages": float(max(vals, default=0)),
            "mean_messages": float(sum(vals)) / n,
            "total_messages_sent": float(sum(tr.messages_sent.values())),
        }


class LatencyMetric(Metric):
    """Theorem 1 latency accounting.

    Reconnection latency is O(1) per round by construction (all healing
    edges join ex-neighbors — one hop). Propagation latency per round is
    the number of ID-change transmissions, the quantity the paper
    amortizes to O(log n) per deletion over Θ(n) deletions. It keeps a
    running count, total and maximum, so its checkpoint state does not
    grow with the campaign.
    """

    def __init__(self) -> None:
        self._rounds = 0
        self._total = 0
        self._max = 0

    def on_event(
        self, network: "SelfHealingNetwork", event: "HealEvent"
    ) -> None:
        changes = event.id_changes
        self._rounds += 1
        self._total += changes
        if changes > self._max:
            self._max = changes

    def finalize(self, network: "SelfHealingNetwork") -> dict[str, float]:
        return {
            "amortized_propagation": self._total / (self._rounds or 1),
            "max_round_propagation": float(self._max),
            "total_propagation": float(self._total),
        }

    def import_state(self, state: dict) -> None:
        """Restore :meth:`export_state` output, or fold the one count per
        heal (``_per_round``) that older snapshots hold."""
        if "_per_round" in state:
            per = state["_per_round"]
            state = dict(
                _rounds=len(per), _total=sum(per), _max=max(per, default=0)
            )
        super().import_state(state)


def _check_period(period: int) -> int:
    if period < 1:
        raise ConfigurationError(f"period must be >= 1, got {period}")
    return period


class ConnectivityMetric(Metric):
    """The central invariant: does healing preserve connectivity?

    The graph is checked every ``period`` rounds and at the end; the
    first failing step is recorded, and a graph that shrank to ≤1 node
    counts as connected. A check is O(1) while the network's
    :attr:`~repro.core.network.SelfHealingNetwork.uncertified_heals` has
    not moved since the last BFS that proved the graph connected (each
    certified heal keeps a connected graph connected); otherwise it runs
    the O(n+m) BFS and, on success, marks the counter again.
    """

    #: (weak reference to the network, its ``uncertified_heals``) at the
    #: last BFS that proved the graph connected. Never exported: a
    #: restored metric (``__new__`` + :meth:`import_state` finds this
    #: class default) or one observing another network has no mark for
    #: it, so its first check runs the BFS.
    _mark: tuple[weakref.ref, int] | None = None

    def __init__(self, period: int = 1) -> None:
        self.period = _check_period(period)
        self.first_disconnect: int | None = None
        self._round = 0

    def _connected(self, network: "SelfHealingNetwork") -> bool:
        mark = self._mark
        if (
            mark is not None
            and mark[0]() is network
            and mark[1] == network.uncertified_heals
        ):
            return True
        if not is_connected(network.graph):
            return False
        self._mark = (weakref.ref(network), network.uncertified_heals)
        return True

    def on_event(
        self, network: "SelfHealingNetwork", event: "HealEvent"
    ) -> None:
        self._round += 1
        if self.first_disconnect is not None:
            return
        if self._round % self.period == 0 and not self._connected(network):
            self.first_disconnect = self._round

    def finalize(self, network: "SelfHealingNetwork") -> dict[str, float]:
        if self.first_disconnect is None and not self._connected(network):
            self.first_disconnect = self._round
        first = self.first_disconnect
        return {
            "always_connected": 1.0 if first is None else 0.0,
            "first_disconnect_step": -1.0 if first is None else float(first),
        }

    def export_state(self) -> dict:
        state = super().export_state()
        state.pop("_mark", None)
        return state


class ComponentMetric(Metric):
    """Tracks fragmentation (interesting for NoHeal and broken healers)."""

    def __init__(self, period: int = 1) -> None:
        self.period = _check_period(period)
        self.max_components = 1
        self._round = 0

    def on_event(
        self, network: "SelfHealingNetwork", event: "HealEvent"
    ) -> None:
        self._round += 1
        if self._round % self.period == 0 and network.graph.num_nodes:
            c = len(connected_components(network.graph))
            self.max_components = max(self.max_components, c)

    def finalize(self, network: "SelfHealingNetwork") -> dict[str, float]:
        return {"max_components": float(self.max_components)}


class EdgeBudgetMetric(Metric):
    """How many edges the healer spends (GraphHeal wastes many)."""

    def __init__(self) -> None:
        self.total_planned = 0
        self.total_new_in_g = 0
        self.max_per_round = 0

    def on_event(
        self, network: "SelfHealingNetwork", event: "HealEvent"
    ) -> None:
        planned = len(event.new_edges)
        self.total_planned += planned
        self.total_new_in_g += event.edges_added_to_g
        self.max_per_round = max(self.max_per_round, planned)

    def finalize(self, network: "SelfHealingNetwork") -> dict[str, float]:
        return {
            "healing_edges_planned": float(self.total_planned),
            "healing_edges_new": float(self.total_new_in_g),
            "max_edges_per_round": float(self.max_per_round),
        }


class StretchMetric(Metric):
    """Fig. 10: running max (and last) stretch vs. the original graph.

    Not checkpointable: it owns a :class:`StretchComputer` over the
    pristine original graph (APSP caches and all), which has no JSON
    representation — run stretch campaigns straight through.

    Parameters
    ----------
    original:
        Pristine copy of the initial graph (the simulator provides it).
    period:
        Measure every ``period`` deletions (each measurement costs an
        APSP on the survivors).
    sample_sources:
        Forwarded to :class:`~repro.sim.stretch.StretchComputer`.
    min_alive_fraction:
        Stop measuring once fewer than this fraction of nodes survive —
        with only a handful of survivors stretch ratios degenerate (the
        paper's plots likewise show stretch while the network is
        meaningfully large).
    """

    checkpointable: ClassVar[bool] = False

    def __init__(
        self,
        original: Graph,
        *,
        period: int = 1,
        sample_sources: int | None = None,
        seed: int = 0,
        min_alive_fraction: float = 0.1,
    ) -> None:
        self._computer = StretchComputer(
            original, sample_sources=sample_sources, seed=seed
        )
        self.period = _check_period(period)
        self.min_alive = max(2, int(original.num_nodes * min_alive_fraction))
        self.max_stretch = 0.0
        self.last_stretch = float("nan")
        self.ever_disconnected = False
        self._round = 0

    def on_event(
        self, network: "SelfHealingNetwork", event: "HealEvent"
    ) -> None:
        self._round += 1
        if self._round % self.period:
            return
        if network.graph.num_nodes < self.min_alive:
            return
        report = self._computer.measure(network.graph)
        if report.disconnected_pairs:
            self.ever_disconnected = True
        if report.pairs and report.max_stretch == report.max_stretch:  # not nan
            self.max_stretch = max(self.max_stretch, report.max_stretch)
            self.last_stretch = report.max_stretch

    def finalize(self, network: "SelfHealingNetwork") -> dict[str, float]:
        return {
            "max_stretch": self.max_stretch,
            "last_stretch": self.last_stretch,
            "stretch_ever_disconnected": (
                1.0 if self.ever_disconnected else 0.0
            ),
        }


class CapacityMetric(Metric):
    """When does the adversary *win*? (Section 4.2's victory condition.)

    "The aim of the adversary is to collapse the network by trying to
    overload a node beyond it's maximum capacity." We model node capacity
    as ``headroom`` extra connections beyond the initial degree: a node
    collapses when δ(u) > headroom. The metric records the first round at
    which any node collapses (−1 = the healer never let it happen), which
    turns the paper's motivation into a measurable survival time.
    """

    def __init__(self, headroom: int) -> None:
        if headroom < 0:
            raise ConfigurationError(f"headroom must be >= 0, got {headroom}")
        self.headroom = headroom
        self.first_collapse: int | None = None
        self.collapsed_nodes = 0
        self._round = 0

    def on_event(
        self, network: "SelfHealingNetwork", event: "HealEvent"
    ) -> None:
        self._round += 1
        over = 0
        for u in event.participants:
            if network.graph.has_node(u):
                delta = network.graph.degree(u) - network.initial_degree[u]
                if delta > self.headroom:
                    over += 1
        if over:
            self.collapsed_nodes += over
            if self.first_collapse is None:
                self.first_collapse = self._round

    def finalize(self, network: "SelfHealingNetwork") -> dict[str, float]:
        return {
            "first_collapse_step": float(
                self.first_collapse if self.first_collapse is not None else -1
            ),
            "survived_rounds": float(
                self._round
                if self.first_collapse is None
                else self.first_collapse - 1
            ),
        }


#: Name → metric registry: one more pluggable component family, so
#: "add a scenario statistic" is one ``register`` call and a spec string.
METRICS: Registry = Registry(
    "metric",
    {
        "degree": DegreeMetric,
        "id-changes": IdChangeMetric,
        "messages": MessageMetric,
        "latency": LatencyMetric,
        "connectivity": ConnectivityMetric,
        "components": ComponentMetric,
        "edge-budget": EdgeBudgetMetric,
        "capacity": CapacityMetric,
        "stretch": StretchMetric,
    },
)


def default_metrics() -> list[Metric]:
    """The always-on metric set (everything except stretch, which needs
    the original graph and is costly)."""
    return [
        DegreeMetric(),
        IdChangeMetric(),
        MessageMetric(),
        LatencyMetric(),
        EdgeBudgetMetric(),
    ]


def default_metric_names() -> set[str]:
    """Registry names of the :func:`default_metrics` set (kept derived
    so the fail-fast duplicate check in
    :class:`~repro.service.request.CampaignRequest` cannot drift from
    the actual defaults)."""
    default_types = {type(m) for m in default_metrics()}
    return {
        name for name, factory in METRICS.items() if factory in default_types
    }
