"""Micro-benchmarks of the substrate hot paths.

Not a paper artifact — these guard the performance assumptions the sweep
harness relies on (per the guides: measure before optimizing, keep the
fast paths fast).
"""

from __future__ import annotations

import random

import pytest

from repro.graph.distance import all_pairs_distances, distance_matrix
from repro.graph.generators import preferential_attachment
from repro.graph.traversal import bfs_distances, connected_components
from repro.sim.stretch import StretchComputer

N = 400


def make_graph():
    return preferential_attachment(N, 2, seed=7)


def test_graph_mutation_throughput(benchmark):
    """Edge add/remove churn (the healers' dominant substrate op)."""
    g = make_graph()
    nodes = sorted(g.nodes())
    rng = random.Random(0)
    pairs = [
        (rng.choice(nodes), rng.choice(nodes)) for _ in range(2000)
    ]
    pairs = [(a, b) for a, b in pairs if a != b]

    def churn():
        added = []
        for a, b in pairs:
            if g.add_edge(a, b):
                added.append((a, b))
        for a, b in added:
            g.remove_edge(a, b)

    benchmark(churn)


def test_bfs_single_source(benchmark):
    g = make_graph()
    benchmark(lambda: bfs_distances(g, 0))


def test_connected_components(benchmark):
    g = make_graph()
    benchmark(lambda: connected_components(g))


@pytest.mark.parametrize("n", [N, 2000])
def test_apsp_numpy_bfs(benchmark, n):
    """The multi-source BFS behind stretch; the n=2,000 case keeps its
    scaling measured."""
    g = preferential_attachment(n, 2, seed=7)
    benchmark(lambda: distance_matrix(g))


def test_apsp_pure_python_reference(benchmark):
    g = preferential_attachment(120, 2, seed=7)  # smaller: this is the slow path
    benchmark(lambda: all_pairs_distances(g))


def test_stretch_measurement(benchmark):
    g = make_graph()
    sc = StretchComputer(g)
    h = g.copy()
    h.remove_node(N - 1)
    benchmark(lambda: sc.measure(h))


def test_stretch_sampled(benchmark):
    g = make_graph()
    sc = StretchComputer(g, sample_sources=16, seed=1)
    h = g.copy()
    h.remove_node(N - 1)
    benchmark(lambda: sc.measure(h))


@pytest.mark.parametrize("backend", ["object", "array"])
def test_substrate_memory_per_node(bench_recorder, backend):
    """Bytes per node of the full campaign substrate (graph + healing
    graph + tracker + indexes), via tracemalloc — the number that
    decides the sweep-scale ceiling. Recorded to
    ``results/BENCH_core.json``; no floor, this is a tracked trajectory.
    The ``array`` row measures the slot store, the ``object`` row a
    reference copy of the same graph (the dict-of-sets graph in
    ``tests/graph/_reference_graph.py``; the original is freed before
    the reading). Both keep Python-set adjacency and the one dict-keyed
    component tracker; the slot store's fresh G′ holds one shared
    edgeless marker per slot where the reference holds an empty set
    (216 B) per node: 1,402 B/node array vs 1,647 object on a 2-core
    Xeon, Python 3.11."""
    import resource
    import tracemalloc

    from repro.adversary.classic import RandomAttack
    from repro.core.network import SelfHealingNetwork
    from repro.core.registry import make_healer
    from tests.graph._reference_graph import reference_copy

    n = 50_000
    tracemalloc.start()
    g = preferential_attachment(n, 3, seed=7)
    if backend == "object":
        g = reference_copy(g)
    network = SelfHealingNetwork(g, make_healer("dash"), seed=0)
    network.tracker  # built on first use; every generic campaign builds it
    adversary = RandomAttack(seed=1)
    adversary.reset(network)
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert network.initial_n == n
    bench_recorder.record(
        f"substrate_memory_{backend}_pa50000_m3",
        seconds=0.0,
        rounds=0,
        n=n,
        topology="preferential-attachment-m3",
        backend=backend,
        bytes_per_node=round(current / n, 1),
        peak_traced_mb=round(peak / 2**20, 1),
        peak_rss_mb=round(peak_rss_kb / 1024, 1),
    )
    print(
        f"\nsubstrate memory [{backend}] pa50000: {current / n:.0f} "
        f"B/node steady, {peak / 2**20:.1f} MB traced peak"
    )
