"""Stretch: how much healing lengthens shortest paths (Section 4.6.1).

    "The stretch for any two nodes is the ratio between their distance in
    the new healed network and their distance in the original network.
    Stretch for the network is the maximum stretch over all pairs."

The original-graph distances are computed once; each measurement then
computes current distances over the survivors and forms the ratio matrix
with numpy. Both modes run the numpy multi-source BFS of
:func:`~repro.graph.distance.distance_rows`: the exact mode from every
survivor, the sampled mode from ``k`` drawn sources only — an unbiased
*lower* bound on the max stretch that tracks the exact value closely on
the paper's workloads (cross-checked in tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.distance import UNREACHABLE, distance_matrix, distance_rows
from repro.graph.graph import Graph
from repro.utils.rng import make_rng

__all__ = ["StretchReport", "StretchComputer"]

Node = Hashable


@dataclass(frozen=True)
class StretchReport:
    """One stretch measurement over the surviving nodes."""

    #: max over measured pairs of d_now/d_orig; inf when a measured pair
    #: connected originally is now disconnected; nan when no pairs exist
    max_stretch: float
    #: mean of the ratio over measured (finite) pairs; nan when none
    mean_stretch: float
    #: number of finite measured pairs
    pairs: int
    #: originally-connected pairs now disconnected (healing failed them)
    disconnected_pairs: int

    @property
    def connected(self) -> bool:
        return self.disconnected_pairs == 0


class StretchComputer:
    """Measures stretch of evolving graphs against a fixed original.

    Parameters
    ----------
    original:
        The pristine network; distances are precomputed on it.
    sample_sources:
        ``None`` → exact all-pairs stretch. An integer ``k`` → measure
        only pairs whose first endpoint is one of ``k`` seeded-random
        sample sources (re-drawn among survivors at each measurement).
    seed:
        RNG seed for the sampled mode.
    """

    def __init__(
        self,
        original: Graph,
        *,
        sample_sources: int | None = None,
        seed: int = 0,
    ) -> None:
        if sample_sources is not None and sample_sources < 1:
            raise ConfigurationError(
                f"sample_sources must be >= 1 or None, got {sample_sources}"
            )
        self._order: list[Node] = sorted(original.nodes())
        self._index = {u: i for i, u in enumerate(self._order)}
        self._d0, _ = distance_matrix(original, self._order)
        self._sample = sample_sources
        self._rng = make_rng(seed)

    def measure(self, current: Graph) -> StretchReport:
        """Stretch of ``current`` (a mutated descendant of the original).

        Nodes of ``current`` must be a subset of the original's nodes;
        unknown labels raise ``ConfigurationError``.
        """
        alive = [u for u in self._order if current.has_node(u)]
        if len(alive) != current.num_nodes:
            raise ConfigurationError(
                "current graph contains nodes unknown to the original"
            )
        if len(alive) < 2:
            return StretchReport(
                max_stretch=float("nan"),
                mean_stretch=float("nan"),
                pairs=0,
                disconnected_pairs=0,
            )

        alive_ix = np.array([self._index[u] for u in alive], dtype=np.intp)
        if self._sample is None or self._sample >= len(alive):
            d_now, _ = distance_matrix(current, alive)
            d_orig = self._d0[np.ix_(alive_ix, alive_ix)]
        else:
            picks = sorted(self._rng.sample(range(len(alive)), self._sample))
            d_now = distance_rows(current, alive, picks)
            d_orig = self._d0[np.ix_(alive_ix[picks], alive_ix)]

        return _stretch_from_matrices(d_now, d_orig)


def _stretch_from_matrices(
    d_now: np.ndarray, d_orig: np.ndarray
) -> StretchReport:
    """Form the stretch statistics from aligned distance matrices."""
    # Pairs that were connected originally and are distinct nodes.
    originally = (d_orig > 0) & (d_orig != UNREACHABLE)
    now_reachable = (d_now > 0) & (d_now != UNREACHABLE)
    finite = originally & now_reachable
    broken = int(
        np.count_nonzero(originally & ~now_reachable & (d_now == UNREACHABLE))
    )

    n_pairs = int(np.count_nonzero(finite))
    if n_pairs == 0:
        return StretchReport(
            max_stretch=float("inf") if broken else float("nan"),
            mean_stretch=float("nan"),
            pairs=0,
            disconnected_pairs=broken,
        )
    ratios = d_now[finite].astype(np.float64) / d_orig[finite].astype(
        np.float64
    )
    max_s = float(ratios.max())
    if broken:
        max_s = math.inf
    return StretchReport(
        max_stretch=max_s,
        mean_stretch=float(ratios.mean()),
        pairs=n_pairs,
        disconnected_pairs=broken,
    )
