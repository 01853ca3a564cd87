"""Scripted (replay) adversary.

Used to (a) reproduce a previously recorded deletion sequence exactly,
(b) drive tests with handcrafted worst cases, and (c) compare healers on
*identical* attack sequences (the paper averages over random instances;
replay removes attack-order variance when isolating healer effects).

Recorded churn rounds replay through
:class:`~repro.churn.adversaries.ScriptedChurn`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Hashable, Sequence

from repro.adversary.base import Adversary
from repro.errors import AdversaryError, ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.network import SelfHealingNetwork

__all__ = ["ScriptedAttack"]

Node = Hashable


class ScriptedAttack(Adversary):
    """Delete a fixed sequence of nodes, in order.

    The position in the script is an explicit cursor (not a suspended
    generator), so a mid-campaign checkpoint can freeze and resume a
    replay exactly — the one thing agenda-style adversaries cannot do.

    Parameters
    ----------
    sequence:
        Victims in deletion order: node labels (non-negative ints, not
        bools), else :class:`~repro.errors.ConfigurationError`.
    strict:
        When ``True`` (default) a victim missing from the graph raises
        :class:`~repro.errors.AdversaryError` — replays must match
        exactly. When ``False`` missing victims are skipped silently,
        which is convenient for cross-healer comparisons where an earlier
        deletion may have already isolated a node.
    """

    name: ClassVar[str] = "scripted"

    def __init__(self, sequence: Sequence[Node], strict: bool = True) -> None:
        self.sequence = tuple(sequence)
        for victim in self.sequence:
            if type(victim) is not int or victim < 0:
                raise ConfigurationError(
                    f"scripted victims must be node labels (non-negative "
                    f"ints), got {victim!r}"
                )
        self.strict = strict
        self._pos = 0

    def reset(self, network: "SelfHealingNetwork") -> None:
        super().reset(network)
        self._pos = 0

    def choose_target(self, network: "SelfHealingNetwork") -> Node | None:
        while self._pos < len(self.sequence):
            victim = self.sequence[self._pos]
            self._pos += 1
            if network.graph.has_node(victim):
                return victim
            if self.strict:
                raise AdversaryError(
                    f"scripted victim {victim!r} is not in the graph"
                )
        return None

    def export_state(self) -> dict:
        state = super().export_state()
        state["pos"] = self._pos
        return state

    def import_state(self, state: dict) -> None:
        super().import_state(state)
        self._pos = state["pos"]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScriptedAttack(len={len(self.sequence)}, "
            f"strict={self.strict})"
        )
