"""Figure 9(b) — per-node ID-maintenance messages (sent + received).

Message counts stay within the Theorem 1 style envelope
2(d_max + 2·log₂ n)·ln n for every strategy. (See EXPERIMENTS.md for why
the paper's cross-healer ordering is noise-dominated at these sizes.)
"""

from __future__ import annotations

import math

from benchmarks.bench_fig9a_id_changes import run_fig9_cached
from benchmarks.conftest import emit

from repro.graph.generators import preferential_attachment
from repro.harness.common import DEFAULT_SEED


def test_fig9b_messages(benchmark, results_dir):
    _, fig_b = benchmark.pedantic(run_fig9_cached, rounds=1, iterations=1)
    emit(fig_b)
    for i, n in enumerate(fig_b.x_values):
        n_int = int(n)
        d_max = max(
            preferential_attachment(n_int, 2, seed=DEFAULT_SEED)
            .degrees()
            .values()
        )
        envelope = 2 * (d_max + 2 * math.log2(n_int)) * math.log(n_int)
        for healer, ys in fig_b.series.items():
            assert ys[i] <= envelope, (healer, n)
