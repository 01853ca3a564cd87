"""Wave adversaries: simultaneous multi-victim rounds (footnote 1).

The paper's adversary deletes one node per time step; footnote 1 notes
DASH "can easily handle the situation where any number of nodes are
removed" at once. These strategies model that massive-failure regime
(the regime Trehan's dissertation, arXiv:1305.4675, develops): instead
of naming a single victim they name a *wave* — a set of nodes that die
simultaneously and are healed by
:meth:`~repro.core.network.SelfHealingNetwork.delete_batch_and_heal`.

Wave sizes follow a pluggable **schedule**, a callable
``(wave_index, survivors) -> size`` published through the
:data:`WAVE_SCHEDULES` registry:

* ``constant_schedule(k)`` — every wave kills ``k`` nodes;
* ``geometric_schedule(k0, ratio)`` — wave ``i`` kills ``k0 · ratioⁱ``
  (rounded down, at least 1), the escalating-catastrophe scenario;
* ``fraction_schedule(frac)`` — every wave kills ``⌈frac · survivors⌉``,
  a constant *proportional* bite.

:func:`make_wave_schedule` coerces ints, floats, tuples, callables, and
registry spec strings (``"constant:8"``, ``"geometric:initial=2,ratio=3"``,
``"fraction:0.1"``) to schedules, so a whole wave campaign can be named
by one adversary spec string — ``"random-wave:size=8,schedule=geometric"``
builds a geometric schedule starting at 8 victims per wave.

Schedules are clamped to the surviving population, so every campaign
terminates (a full kill ends with the last survivors in one wave).

Determinism mirrors the single-victim adversaries: the random strategy
takes an explicit seed and samples the network's survivors in label
order (:meth:`~repro.core.network.SelfHealingNetwork.survivors`, kept
exact by every heal, so nothing is re-sorted); the targeted
strategy is fully deterministic — the ``k`` highest-degree survivors,
smallest label on ties, read from the network's degree-bucket index by
walking buckets downward from the O(1) maximum, so no round ever scans
all nodes.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Callable, ClassVar, Hashable, Sequence

from repro.adversary.base import Adversary
from repro.errors import ConfigurationError
from repro.registry import Registry
from repro.utils.rng import make_rng, rng_state_from_json, rng_state_to_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.network import SelfHealingNetwork

__all__ = [
    "WaveSchedule",
    "WAVE_SCHEDULES",
    "constant_schedule",
    "geometric_schedule",
    "fraction_schedule",
    "make_wave_schedule",
    "WaveAdversary",
    "RandomWaveAttack",
    "TargetedWaveAttack",
]

Node = Hashable

#: ``(wave_index, survivors) -> wave size`` (clamped to [1, survivors]
#: by the driver; a schedule may return anything ≥ 0).
WaveSchedule = Callable[[int, int], int]


def constant_schedule(size: int) -> WaveSchedule:
    """Every wave kills ``size`` nodes."""
    if size < 1:
        raise ConfigurationError(f"wave size must be >= 1, got {size}")

    def schedule(wave_index: int, survivors: int) -> int:
        return size

    schedule.spec_string = f"constant:size={size}"
    return schedule


def geometric_schedule(initial: int, ratio: float = 2.0) -> WaveSchedule:
    """Wave ``i`` kills ``⌊initial · ratioⁱ⌋`` nodes (at least 1)."""
    if initial < 1:
        raise ConfigurationError(
            f"initial wave size must be >= 1, got {initial}"
        )
    if ratio <= 0:
        raise ConfigurationError(f"ratio must be > 0, got {ratio}")

    def schedule(wave_index: int, survivors: int) -> int:
        return max(1, int(initial * ratio**wave_index))

    schedule.spec_string = f"geometric:initial={initial},ratio={ratio}"
    return schedule


def fraction_schedule(fraction: float) -> WaveSchedule:
    """Every wave kills ``⌈fraction · survivors⌉`` nodes (at least 1)."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(
            f"fraction must be in (0, 1], got {fraction}"
        )

    def schedule(wave_index: int, survivors: int) -> int:
        return max(1, math.ceil(fraction * survivors))

    schedule.spec_string = f"fraction:fraction={fraction}"
    return schedule


#: Name → schedule-factory registry; spec strings like ``"constant:8"``
#: or ``"geometric:initial=2,ratio=3"`` resolve through it.
WAVE_SCHEDULES: Registry = Registry(
    "wave schedule",
    {
        "constant": constant_schedule,
        "geometric": geometric_schedule,
        "fraction": fraction_schedule,
    },
)

#: the schedule parameter a bare wave ``size`` maps onto, per kind
#: (``fraction`` takes no size — a proportional bite has no fixed count)
_SIZE_PARAM = {"constant": "size", "geometric": "initial"}


def make_wave_schedule(
    spec: object = None, *, size: int | None = None
) -> WaveSchedule:
    """Coerce a schedule spec to a :data:`WaveSchedule`.

    Accepted specs: a callable (used as-is), an ``int`` (constant), a
    ``float`` in (0, 1] (fraction of survivors), a tuple
    ``("constant", k)`` / ``("geometric", k0[, ratio])`` /
    ``("fraction", f)``, a :data:`WAVE_SCHEDULES` spec string
    (``"geometric:initial=2,ratio=3"``), or ``None`` (constant default).

    ``size`` is the adversary-level nominal wave size: it fills the
    schedule's size-like parameter (``constant``'s ``size``,
    ``geometric``'s ``initial``) when the spec leaves it open, and is
    ignored where it does not apply (``fraction``, callables, fully
    explicit specs).
    """
    if spec is None:
        return constant_schedule(8 if size is None else size)
    if isinstance(spec, bool):
        raise ConfigurationError(f"not a wave schedule: {spec!r}")
    if callable(spec):
        return spec  # type: ignore[return-value]
    if isinstance(spec, int):
        return constant_schedule(spec)
    if isinstance(spec, float):
        return fraction_schedule(spec)
    if isinstance(spec, str):
        kind, args, kwargs = WAVE_SCHEDULES.parse(spec)
        size_param = _SIZE_PARAM.get(kind)
        if size is not None and size_param and not args:
            kwargs.setdefault(size_param, size)
        try:
            return WAVE_SCHEDULES[kind](*args, **kwargs)
        except TypeError as exc:
            raise ConfigurationError(
                f"bad wave schedule spec {spec!r}: {exc}"
            ) from exc
    if isinstance(spec, Sequence) and spec and isinstance(spec[0], str):
        kind, *args = spec
        if kind in WAVE_SCHEDULES:
            return WAVE_SCHEDULES[kind](*args)
    raise ConfigurationError(f"not a wave schedule: {spec!r}")


class WaveAdversary(Adversary):
    """A deletion strategy that names whole waves of simultaneous victims.

    Subclasses implement :meth:`_pick`; the base class runs the schedule
    (clamping to the surviving population) and counts waves. The campaign
    engine drives wave adversaries through the same
    :meth:`~repro.adversary.base.Adversary.choose_round` protocol as
    everything else — :attr:`batch_rounds` routes each round through
    :meth:`~repro.core.network.SelfHealingNetwork.delete_batch_and_heal`.

    ``schedule`` accepts everything :func:`make_wave_schedule` does
    (including registry spec strings); ``size`` is the nominal wave size
    a bare spec leaves open, so the adversary spec string
    ``"random-wave:size=8,schedule=geometric"`` works end to end.
    """

    name: ClassVar[str] = "abstract-wave"
    batch_rounds: ClassVar[bool] = True

    def __init__(
        self, schedule: object = None, *, size: int | None = None
    ) -> None:
        self.schedule = make_wave_schedule(schedule, size=size)
        #: normalized schedule description (surfaced as a sweep parameter
        #: in :class:`~repro.sim.results.ResultSet` rows)
        self.schedule_spec: str = getattr(
            self.schedule,
            "spec_string",
            f"custom:{getattr(schedule, '__name__', 'callable')}",
        )
        self._wave_index = 0

    def reset(self, network: "SelfHealingNetwork") -> None:
        super().reset(network)
        self._wave_index = 0

    @property
    def waves_launched(self) -> int:
        return self._wave_index

    def choose_wave(self, network: "SelfHealingNetwork") -> list[Node] | None:
        """Name the next wave of victims, or ``None`` to stop attacking."""
        survivors = network.num_alive
        if survivors == 0:
            return None
        size = min(
            max(1, self.schedule(self._wave_index, survivors)), survivors
        )
        wave = self._pick(network, size)
        self._wave_index += 1
        return wave

    def choose_round(
        self, network: "SelfHealingNetwork"
    ) -> list[Node] | None:
        """The engine's round protocol: one round = one wave."""
        return self.choose_wave(network)

    def _pick(self, network: "SelfHealingNetwork", size: int) -> list[Node]:
        raise NotImplementedError

    def export_state(self) -> dict:
        # The schedule itself is reconstructed from constructor
        # provenance at resume (it is a closure); only the position in
        # it is dynamic state.
        state = super().export_state()
        state["wave_index"] = self._wave_index
        return state

    def import_state(self, state: dict) -> None:
        super().import_state(state)
        self._wave_index = state["wave_index"]


class RandomWaveAttack(WaveAdversary):
    """Kill a uniformly random set of survivors each wave (mass failure).

    Like :class:`~repro.adversary.classic.RandomAttack`, one draw per
    wave: a ``sample`` of the network's survivors
    (:meth:`~repro.core.network.SelfHealingNetwork.survivors`). Beyond
    the schedule's position the only state is the RNG.
    """

    name: ClassVar[str] = "random-wave"

    def __init__(
        self,
        schedule: object = None,
        *,
        size: int | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(schedule, size=size)
        self._seed = seed
        self._rng: random.Random = make_rng(seed)

    def reset(self, network: "SelfHealingNetwork") -> None:
        super().reset(network)
        self._rng = make_rng(self._seed)

    def _pick(self, network: "SelfHealingNetwork", size: int) -> list[Node]:
        return self._rng.sample(network.survivors(), size)

    def export_state(self) -> dict:
        state = super().export_state()
        state["rng"] = rng_state_to_json(self._rng)
        return state

    def import_state(self, state: dict) -> None:
        super().import_state(state)
        rng_state_from_json(state["rng"], self._rng)


class TargetedWaveAttack(WaveAdversary):
    """Kill the ``k`` highest-degree survivors each wave (decapitation).

    The wave analogue of MaxNode: every wave removes the current top-k
    hubs simultaneously — ties broken by smallest label, so campaigns
    are fully deterministic. Victims are read from the network's
    degree-bucket index by walking buckets downward from the O(1)
    maximum degree, so the per-wave cost is O(Δ_max + k log k), never a
    full node scan.
    """

    name: ClassVar[str] = "targeted-wave"

    def _pick(self, network: "SelfHealingNetwork", size: int) -> list[Node]:
        picked: list[Node] = []
        degree = network.max_degree()
        while len(picked) < size and degree >= 0:
            bucket = network.degree_bucket(degree)
            if bucket:
                take = size - len(picked)
                picked.extend(sorted(bucket)[:take])
            degree -= 1
        return picked
