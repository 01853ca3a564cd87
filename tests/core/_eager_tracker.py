"""The eager BFS reference tracker, for the differential suites.

:class:`~repro.core.components.ComponentTracker` settles a
non-component-safe single-victim round by the quotient merge whenever
the plan rewires every G′-neighbor of the victim, and a wave round by
the quotient merge whenever its preconditions hold. :class:`EagerTracker`
keeps only the merge every tracker ever took — component-safe
single-victim rounds — and settles every other round by the honest BFS
over the affected region. The two must agree byte for byte, so the
wave, naive and lazy-label suites and the benchmarks replay campaigns
against this reference.

:func:`swap_tracker` wires :class:`~repro.core.network.SelfHealingNetwork`
to another tracker class for the duration of a block. The network
builds its tracker on first use, so the first ``net.tracker`` read —
usually the first round — must happen inside the block.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import repro.core.network as network_module
from repro.core.components import ComponentTracker, RoundStats

__all__ = ["EagerTracker", "eager_tracker", "swap_tracker"]


class EagerTracker(ComponentTracker):
    """A tracker whose non-component-safe and wave rounds take the BFS."""

    def round(
        self,
        deleted,
        deleted_label,
        participants,
        gprime_neighbors,
        component_safe,
        plan_edges,
    ) -> RoundStats:
        if component_safe:
            return super().round(
                deleted,
                deleted_label,
                participants,
                gprime_neighbors,
                component_safe,
                plan_edges,
            )
        self.remove_node(deleted, deleted_label)
        self.slow_rounds += 1
        return self._bfs_round({deleted_label}, participants)

    def fast_batch_round(self, *args, **kwargs) -> None:
        """Hand every wave round to :meth:`batch_round`."""
        return None


@contextmanager
def swap_tracker(tracker_cls: type) -> Iterator[None]:
    """Build every network tracker inside the block as ``tracker_cls``."""
    original = network_module.ComponentTracker
    network_module.ComponentTracker = tracker_cls
    try:
        yield
    finally:
        network_module.ComponentTracker = original


def eager_tracker(enabled: bool = True):
    """:func:`swap_tracker` to :class:`EagerTracker` when ``enabled``
    (the reference side of a fast/eager pair), a no-op otherwise."""
    return swap_tracker(EagerTracker if enabled else ComponentTracker)
