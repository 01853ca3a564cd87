"""Tests for stretch computation."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.graph.generators import (
    cycle_graph,
    path_graph,
    preferential_attachment,
)
from repro.graph.graph import Graph
from repro.sim.stretch import StretchComputer


class TestExactStretch:
    def test_identity_is_one(self):
        g = path_graph(6)
        sc = StretchComputer(g)
        rep = sc.measure(g.copy())
        assert rep.max_stretch == 1.0
        assert rep.mean_stretch == 1.0
        assert rep.connected

    def test_cycle_chord_removal(self):
        """Cycle C6: removing one edge makes opposite ends 5 apart
        instead of 1 → stretch 5. (Simulate by passing a mutated copy.)"""
        g = cycle_graph(6)
        sc = StretchComputer(g)
        h = g.copy()
        h.remove_edge(0, 5)
        rep = sc.measure(h)
        assert rep.max_stretch == 5.0

    def test_subset_of_nodes(self):
        g = path_graph(5)
        sc = StretchComputer(g)
        h = g.copy()
        h.remove_node(4)
        rep = sc.measure(h)
        assert rep.max_stretch == 1.0
        assert rep.pairs == 4 * 3  # ordered pairs among 4 survivors

    def test_disconnection_reported(self):
        g = path_graph(4)
        sc = StretchComputer(g)
        h = g.copy()
        h.remove_node(1)  # splits {0} from {2,3}
        rep = sc.measure(h)
        assert rep.disconnected_pairs > 0
        assert rep.max_stretch == math.inf
        assert not rep.connected

    def test_tiny_graphs(self):
        g = path_graph(3)
        sc = StretchComputer(g)
        h = Graph([0])
        rep = sc.measure(h)
        assert rep.pairs == 0
        assert math.isnan(rep.max_stretch)

    def test_unknown_node_rejected(self):
        g = path_graph(3)
        sc = StretchComputer(g)
        h = Graph([99])
        with pytest.raises(ConfigurationError):
            sc.measure(h)

    def test_healing_shortcut_keeps_stretch_low(self):
        """Path 0-1-2-3-4; deleting 2 and bridging 1-3 gives max stretch
        of exactly 1 (the bridge replaces the two-hop detour)."""
        g = path_graph(5)
        sc = StretchComputer(g)
        h = g.copy()
        h.remove_node(2)
        h.add_edge(1, 3)
        rep = sc.measure(h)
        assert rep.max_stretch == 1.0


class TestSampledStretch:
    def test_sampled_is_lower_bound_of_exact(self):
        g = preferential_attachment(60, 2, seed=1)
        h = g.copy()
        # perturb: delete a few nodes and patch with a hub
        for v in (50, 51, 52):
            nbrs = sorted(h.neighbors(v))
            h.remove_node(v)
            for i in range(1, len(nbrs)):
                h.add_edge(nbrs[0], nbrs[i])
        exact = StretchComputer(g).measure(h)
        sampled = StretchComputer(g, sample_sources=10, seed=3).measure(h)
        assert sampled.max_stretch <= exact.max_stretch + 1e-9

    def test_sample_larger_than_alive_falls_back_to_exact(self):
        g = path_graph(5)
        exact = StretchComputer(g).measure(g.copy())
        sampled = StretchComputer(g, sample_sources=100, seed=0).measure(
            g.copy()
        )
        assert sampled == exact

    def test_invalid_sample_count(self):
        with pytest.raises(ConfigurationError):
            StretchComputer(path_graph(3), sample_sources=0)


def test_measures_without_scipy():
    """Stretch needs numpy alone: with scipy's import blocked, an exact
    and a sampled measurement both run."""
    code = textwrap.dedent(
        """
        import sys

        sys.modules["scipy"] = None
        from repro.graph.generators import preferential_attachment
        from repro.sim.stretch import StretchComputer

        g = preferential_attachment(40, 2, seed=1)
        h = g.copy()
        h.remove_node(39)
        for sample in (None, 5):
            report = StretchComputer(g, sample_sources=sample).measure(h)
            assert report.pairs > 0, report
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
