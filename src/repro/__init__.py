"""repro — self-healing reconfigurable networks (Saia & Trehan, IPPS 2008).

A full reproduction of the paper "Picking up the Pieces: Self-Healing in
Reconfigurable Networks": the DASH and SDASH healing algorithms, the
naive baselines they are compared against, the adversaries (including the
Theorem 2 LEVELATTACK), a centralized simulator with the paper's cost
accounting, a message-passing distributed implementation of the protocol,
and the full experiment harness regenerating every figure.

Quick start
-----------
>>> from repro import preferential_attachment, SelfHealingNetwork, Dash
>>> from repro import NeighborOfMaxAttack, run_campaign, default_metrics
>>> g = preferential_attachment(100, 2, seed=1)
>>> result = run_campaign(g, Dash(), NeighborOfMaxAttack(seed=2),
...                       metrics=default_metrics())
>>> result.peak_delta <= 2 * 7  # ≤ 2·log2(100) ≈ 13.3
True

The same engine drives wave campaigns (footnote 1's simultaneous
multi-node failures) — any component can be named by a registry spec
string:

>>> from repro import make_adversary, make_healer
>>> g = preferential_attachment(100, 2, seed=1)
>>> wave = make_adversary("random-wave:size=8,schedule=geometric", seed=3)
>>> result = run_campaign(g, make_healer("dash"), wave)
>>> result.final_alive
0
"""

from repro.adversary import (
    ADVERSARIES,
    Adversary,
    LevelAttack,
    MaxDeltaNeighborAttack,
    MaxNodeAttack,
    MinDegreeAttack,
    NeighborOfMaxAttack,
    RandomAttack,
    RandomWaveAttack,
    ScriptedAttack,
    TargetedWaveAttack,
    WaveAdversary,
    make_adversary,
    make_wave_schedule,
)
from repro.core import (
    HEALERS,
    PAPER_HEALERS,
    BinaryTreeHeal,
    ComponentTracker,
    Dash,
    DegreeBoundedHealer,
    GraphHeal,
    HealEvent,
    Healer,
    LineHeal,
    NeighborhoodSnapshot,
    NoHeal,
    RandomOrderDash,
    ReconnectionPlan,
    Sdash,
    SelfHealingNetwork,
    StarHeal,
    make_healer,
)
from repro.distributed import DistributedNetwork
from repro.errors import ReproError
from repro.registry import Registry, component_registries, parse_spec
from repro.graph import (
    Graph,
    complete_kary_tree,
    erdos_renyi,
    is_connected,
    is_forest,
    preferential_attachment,
    random_tree,
)
from repro.sim import (
    METRICS,
    ExperimentSpec,
    ResultSet,
    SimulationResult,
    StretchComputer,
    default_metrics,
    run_campaign,
    run_experiment,
)
from repro.version import PAPER, __version__

__all__ = [
    "ADVERSARIES",
    "Adversary",
    "LevelAttack",
    "MaxDeltaNeighborAttack",
    "MaxNodeAttack",
    "MinDegreeAttack",
    "NeighborOfMaxAttack",
    "RandomAttack",
    "RandomWaveAttack",
    "ScriptedAttack",
    "TargetedWaveAttack",
    "WaveAdversary",
    "make_adversary",
    "make_wave_schedule",
    "HEALERS",
    "PAPER_HEALERS",
    "BinaryTreeHeal",
    "ComponentTracker",
    "Dash",
    "DegreeBoundedHealer",
    "GraphHeal",
    "HealEvent",
    "Healer",
    "LineHeal",
    "NeighborhoodSnapshot",
    "NoHeal",
    "RandomOrderDash",
    "ReconnectionPlan",
    "Sdash",
    "SelfHealingNetwork",
    "StarHeal",
    "make_healer",
    "DistributedNetwork",
    "ReproError",
    "Registry",
    "component_registries",
    "parse_spec",
    "Graph",
    "complete_kary_tree",
    "erdos_renyi",
    "is_connected",
    "is_forest",
    "preferential_attachment",
    "random_tree",
    "METRICS",
    "ExperimentSpec",
    "ResultSet",
    "SimulationResult",
    "StretchComputer",
    "default_metrics",
    "run_campaign",
    "run_experiment",
    "PAPER",
    "__version__",
]
