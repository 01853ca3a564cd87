"""Theorem 1 — measured DASH costs vs. the proven envelopes.

For each size we run DASH to network exhaustion under the harshest attack
(NeighborOfMax) and compare:

* max degree increase            vs 2·log₂ n           (Lemma 6)
* max per-node ID changes        vs 2·ln n             (Lemma 8 w.h.p.)
* max per-node messages          vs 2(d_max + 2·log₂ n)·ln n (Lemma 8)
* amortized ID propagation/round vs O(log n)           (Lemma 9)

Every measured column must sit below its envelope; the margin columns in
the emitted table make the slack visible (EXPERIMENTS.md records them).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

from repro.analysis.theory import (
    dash_degree_bound,
    id_change_bound,
    message_bound,
)
from repro.graph.generators import preferential_attachment
from repro.harness.common import DEFAULT_SEED, FigureResult
from repro.sim.experiment import ExperimentSpec, run_experiment
from repro.utils.tables import format_table, write_csv

__all__ = ["run_theorem1", "DEFAULT_SIZES"]

DEFAULT_SIZES: tuple[int, ...] = (50, 100, 200, 350, 500)


def run_theorem1(
    sizes: Sequence[int] = DEFAULT_SIZES,
    repetitions: int = 10,
    *,
    master_seed: int = DEFAULT_SEED,
    jobs: int | None = None,
    out_dir: str | Path | None = None,
    progress: bool = False,
) -> FigureResult:
    spec = ExperimentSpec(
        name="theorem1",
        generator="preferential_attachment",
        generator_params={"m": 2},
        sizes=tuple(sizes),
        healers=("dash",),
        adversary="neighbor-of-max",
        repetitions=repetitions,
        master_seed=master_seed,
    )
    results = run_experiment(spec, jobs=jobs, progress=progress)

    xs = sorted(sizes)
    delta_meas = [
        results.aggregate(("size",), "max_degree_increase")[(n,)].maximum
        for n in xs
    ]
    id_meas = [
        results.aggregate(("size",), "max_id_changes")[(n,)].maximum
        for n in xs
    ]
    msg_meas = [
        results.aggregate(("size",), "max_messages")[(n,)].maximum for n in xs
    ]
    amort = [
        results.aggregate(("size",), "amortized_propagation")[(n,)].mean
        for n in xs
    ]
    # Message envelope uses the max initial degree of each instance family;
    # regenerate the graphs (cheap) to get a representative d_max.
    d_max = [
        max(preferential_attachment(n, 2, seed=master_seed).degrees().values())
        for n in xs
    ]

    headers = [
        "n",
        "max δ",
        "2log2(n)",
        "max idΔ",
        "2ln(n)",
        "max msgs",
        "msg bound",
        "amort prop",
        "log2(n)",
    ]
    rows = []
    series: dict[str, list[float]] = {
        "measured max δ": [],
        "2log2(n)": [],
        "measured idΔ": [],
        "2ln(n)": [],
    }
    for i, n in enumerate(xs):
        rows.append(
            [
                n,
                delta_meas[i],
                dash_degree_bound(n),
                id_meas[i],
                id_change_bound(n),
                msg_meas[i],
                message_bound(d_max[i], n),
                amort[i],
                math.log2(n),
            ]
        )
        series["measured max δ"].append(delta_meas[i])
        series["2log2(n)"].append(dash_degree_bound(n))
        series["measured idΔ"].append(id_meas[i])
        series["2ln(n)"].append(id_change_bound(n))

    fig = FigureResult(
        name="theorem1",
        description="DASH measured costs vs. Theorem 1 envelopes "
        f"(worst case over {repetitions} runs)",
        x_values=[float(n) for n in xs],
        series=series,
        results=results,
    )
    fig.table = format_table(
        headers, rows, title="Theorem 1: measured vs. proven bounds"
    )
    if out_dir is not None:
        fig.csv_path = write_csv(Path(out_dir) / "theorem1.csv", headers, rows)
    return fig
