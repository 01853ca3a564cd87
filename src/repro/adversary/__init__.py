"""Attack strategies: the paper's adversaries and the lower-bound LEVELATTACK.

:data:`ADVERSARIES` is a :class:`~repro.registry.Registry`, so any
adversary can be built from a spec string —
``make_adversary("random-wave:size=8,schedule=geometric")`` — with seeds
injected centrally by callers that derive them (experiment runner, CLI).
"""

from repro.adversary.base import Adversary
from repro.adversary.classic import (
    MaxDeltaNeighborAttack,
    MaxNodeAttack,
    MinDegreeAttack,
    NeighborOfMaxAttack,
    RandomAttack,
)
from repro.adversary.levelattack import LevelAttack, prune_order
from repro.adversary.scripted import ScriptedAttack
from repro.adversary.waves import (
    WAVE_SCHEDULES,
    RandomWaveAttack,
    TargetedWaveAttack,
    WaveAdversary,
    constant_schedule,
    fraction_schedule,
    geometric_schedule,
    make_wave_schedule,
)
from repro.registry import Registry

__all__ = [
    "Adversary",
    "MaxNodeAttack",
    "NeighborOfMaxAttack",
    "RandomAttack",
    "MinDegreeAttack",
    "MaxDeltaNeighborAttack",
    "LevelAttack",
    "ScriptedAttack",
    "WaveAdversary",
    "RandomWaveAttack",
    "TargetedWaveAttack",
    "constant_schedule",
    "geometric_schedule",
    "fraction_schedule",
    "make_wave_schedule",
    "prune_order",
    "ADVERSARIES",
    "WAVE_SCHEDULES",
    "make_adversary",
]

#: Name → factory registry (a :class:`~repro.registry.Registry`; accepts
#: spec strings everywhere a name is accepted).
ADVERSARIES: Registry = Registry(
    "adversary",
    {
        MaxNodeAttack.name: MaxNodeAttack,
        NeighborOfMaxAttack.name: NeighborOfMaxAttack,
        RandomAttack.name: RandomAttack,
        MinDegreeAttack.name: MinDegreeAttack,
        MaxDeltaNeighborAttack.name: MaxDeltaNeighborAttack,
        LevelAttack.name: LevelAttack,
        ScriptedAttack.name: ScriptedAttack,
        RandomWaveAttack.name: RandomWaveAttack,
        TargetedWaveAttack.name: TargetedWaveAttack,
    },
)


def make_adversary(spec: str, **kwargs) -> Adversary:
    """Instantiate an adversary from a name or spec string.

    ``kwargs`` override any arguments carried by the spec string.
    """
    return ADVERSARIES.make(spec, overrides=kwargs)


# The churn adversaries (``churn`` / ``trace-churn``) register
# themselves into ADVERSARIES when their module executes. Bottom import
# for the same reason as repro.core.registry's: repro.churn.adversaries
# imports repro.adversary.base, re-entering this package mid-init, and a
# module-object bind (no attribute access) is safe in any entry order.
from repro.churn import adversaries as _churn_adversaries  # noqa: E402,F401
