"""Name → healer factory registry.

Experiment specs and the CLI refer to healers by short string names; this
module is the single source of truth for that mapping. Factories (not
instances) are registered because some healers carry per-run state.

:data:`HEALERS` is a :class:`~repro.registry.Registry`, so healers can be
built from spec strings too (``"degree-bounded:max_increase=3"``) and
seed injection is centralized in the callers that derive seeds.
"""

from __future__ import annotations

from repro.core.base import Healer
from repro.core.dash import Dash
from repro.core.naive import (
    BinaryTreeHeal,
    DegreeBoundedHealer,
    DeltaOrderedGraphHeal,
    GraphHeal,
    LineHeal,
    NoHeal,
    RandomOrderDash,
    StarHeal,
)
from repro.core.sdash import Sdash
from repro.registry import Registry

__all__ = ["HEALERS", "make_healer", "healer_names", "PAPER_HEALERS"]

HEALERS: Registry = Registry(
    "healer",
    {
        NoHeal.name: NoHeal,
        GraphHeal.name: GraphHeal,
        DeltaOrderedGraphHeal.name: DeltaOrderedGraphHeal,
        BinaryTreeHeal.name: BinaryTreeHeal,
        LineHeal.name: LineHeal,
        StarHeal.name: StarHeal,
        Dash.name: Dash,
        Sdash.name: Sdash,
        RandomOrderDash.name: RandomOrderDash,
        DegreeBoundedHealer.name: DegreeBoundedHealer,
    },
)

#: The healers compared in the paper's figures (Section 4.3), in the
#: order the legends list them.
PAPER_HEALERS: tuple[str, ...] = (
    GraphHeal.name,
    BinaryTreeHeal.name,
    LineHeal.name,
    Dash.name,
    Sdash.name,
)


def healer_names() -> list[str]:
    """All registered healer names, sorted."""
    return HEALERS.names()


def make_healer(spec: str, **kwargs) -> Healer:
    """Instantiate a healer from a registry name or spec string.

    ``kwargs`` override any arguments carried by the spec string (e.g.
    ``make_healer("degree-bounded", max_increase=3)`` and
    ``make_healer("degree-bounded:max_increase=3")`` are equivalent).
    """
    return HEALERS.make(spec, overrides=kwargs)


# The churn healers (Forgiving Tree / Forgiving Graph) register
# themselves into HEALERS when their module executes. The import sits at
# the bottom — after HEALERS exists — because repro.churn.healers imports
# repro.core.base, which initializes repro.core and re-enters this
# module; at that point the bottom import merely binds the (possibly
# still-initializing) module object without touching its attributes, so
# every import entry order resolves.
from repro.churn import healers as _churn_healers  # noqa: E402,F401
