"""Extension experiments beyond the paper's figures.

* **capacity collapse** — Section 4.2 motivates the adversary as trying
  to "overload a node beyond its maximum capacity". We give every node a
  capacity of ``headroom`` extra connections and measure how many rounds
  each healer survives before any node collapses, under NeighborOfMax.
  DASH/SDASH should survive the whole campaign once
  ``headroom ≥ 2·log₂ n``; naive healers collapse quickly.
* **topology matrix** — Theorem 1 holds "irrespective of the topology of
  the initial network". We run DASH to total destruction under NMS on
  every generator family and report peak δ next to the 2·log₂ n bound.
* **batch deletion** — footnote 1's simultaneous-failure regime: waves of
  k simultaneous deletions; connectivity must hold after each wave.
* **wave schedules** — the same regime driven by the wave adversaries
  (random mass failure vs. targeted decapitation) under constant,
  geometric, and fraction-of-survivors wave-size schedules, reporting
  the quotient fast path's share of batch rounds next to peak δ.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.adversary import (
    NeighborOfMaxAttack,
    RandomWaveAttack,
    TargetedWaveAttack,
)
from repro.analysis.theory import dash_degree_bound
from repro.core.dash import Dash
from repro.core.registry import make_healer
from repro.graph.generators import (
    complete_kary_tree,
    erdos_renyi,
    grid_graph,
    preferential_attachment,
    random_tree,
    watts_strogatz,
)
from repro.graph.traversal import is_connected
from repro.harness.common import DEFAULT_SEED, FigureResult
from repro.sim.metrics import CapacityMetric, ConnectivityMetric
from repro.sim.engine import run_campaign
from repro.utils.rng import derive_seed
from repro.utils.stats import summarize
from repro.utils.tables import format_table, write_csv

__all__ = [
    "run_capacity_collapse",
    "run_topology_matrix",
    "run_batch_waves",
    "run_wave_schedules",
]


def run_capacity_collapse(
    n: int = 200,
    headrooms: Sequence[int] = (2, 4, 8),
    healers: Sequence[str] = (
        "graph-heal",
        "binary-tree-heal",
        "dash",
        "sdash",
    ),
    repetitions: int = 10,
    *,
    master_seed: int = DEFAULT_SEED,
    out_dir: str | Path | None = None,
) -> FigureResult:
    """Survival time (rounds before any node exceeds its capacity)."""
    rows = []
    series: dict[str, list[float]] = {h: [] for h in healers}
    for headroom in headrooms:
        cells: dict[str, list[float]] = {h: [] for h in healers}
        for rep in range(repetitions):
            gseed = derive_seed(master_seed, "cap", n, rep)
            for h in healers:
                graph = preferential_attachment(n, 2, seed=gseed)
                res = run_campaign(
                    graph,
                    make_healer(h),
                    NeighborOfMaxAttack(
                        seed=derive_seed(master_seed, "capa", rep)
                    ),
                    id_seed=derive_seed(master_seed, "capi", rep),
                    metrics=[CapacityMetric(headroom=headroom)],
                )
                cells[h].append(res.values["survived_rounds"])
        row = [headroom]
        for h in healers:
            mean = summarize(cells[h]).mean
            series[h].append(mean)
            row.append(mean)
        rows.append(row)

    fig = FigureResult(
        name="capacity",
        description=f"rounds survived before first node collapse (n={n}, NMS)",
        x_values=[float(h) for h in headrooms],
        series=series,
    )
    fig.table = format_table(
        ["headroom"] + list(healers),
        rows,
        title=f"Capacity collapse: survival rounds (n={n}, "
        f"{repetitions} reps; full campaign = {n} rounds)",
    )
    if out_dir is not None:
        fig.csv_path = write_csv(
            Path(out_dir) / "capacity.csv", ["headroom"] + list(healers), rows
        )
    return fig


_TOPOLOGIES = {
    "ba(m=2)": lambda n, seed: preferential_attachment(n, 2, seed=seed),
    "er(p=8/n)": lambda n, seed: erdos_renyi(n, min(1.0, 8.0 / n), seed=seed),
    "random-tree": lambda n, seed: random_tree(n, seed=seed),
    "grid": lambda n, seed: grid_graph(
        max(2, int(n**0.5)), max(2, int(n**0.5))
    ),
    "small-world": lambda n, seed: watts_strogatz(n, 4, 0.2, seed=seed),
    "3-ary-tree": lambda n, seed: complete_kary_tree(3, 4),
}


def run_topology_matrix(
    n: int = 150,
    repetitions: int = 5,
    *,
    master_seed: int = DEFAULT_SEED,
    out_dir: str | Path | None = None,
) -> FigureResult:
    """DASH's guarantees across topology families (NMS, full destruction)."""
    rows = []
    series: dict[str, list[float]] = {"peak δ": [], "bound": []}
    names = list(_TOPOLOGIES)
    for topo in names:
        deltas = []
        connected = True
        actual_n = None
        for rep in range(repetitions):
            seed = derive_seed(master_seed, "topo", topo, rep)
            graph = _TOPOLOGIES[topo](n, seed)
            if not is_connected(graph):  # pragma: no cover - all are
                continue
            actual_n = graph.num_nodes
            res = run_campaign(
                graph,
                Dash(),
                NeighborOfMaxAttack(seed=seed + 1),
                id_seed=seed + 2,
                metrics=[ConnectivityMetric()],
            )
            deltas.append(res.peak_delta)
            connected &= bool(res.values["always_connected"])
        bound = dash_degree_bound(actual_n or n)
        worst = max(deltas)
        rows.append(
            [topo, actual_n or n, worst, summarize(deltas).mean, bound,
             "yes" if connected else "NO"]
        )
        series["peak δ"].append(float(worst))
        series["bound"].append(bound)

    fig = FigureResult(
        name="topology_matrix",
        description="DASH across topology families (worst peak δ vs bound)",
        x_values=list(range(len(names))),
        series=series,
    )
    fig.table = format_table(
        [
            "topology",
            "n",
            "worst peak δ",
            "mean peak δ",
            "2log2(n)",
            "connected",
        ],
        rows,
        title="Topology robustness matrix (DASH, NeighborOfMax, full kill)",
    )
    if out_dir is not None:
        fig.csv_path = write_csv(
            Path(out_dir) / "topology_matrix.csv",
            ["topology", "n", "worst", "mean", "bound", "connected"],
            rows,
        )
    return fig


def run_batch_waves(
    n: int = 120,
    wave_sizes: Sequence[int] = (1, 2, 4, 8),
    repetitions: int = 5,
    *,
    master_seed: int = DEFAULT_SEED,
    out_dir: str | Path | None = None,
) -> FigureResult:
    """Footnote 1: simultaneous deletion waves; peak δ and connectivity."""
    rows = []
    series: dict[str, list[float]] = {"peak δ (worst)": []}
    for wave in wave_sizes:
        deltas = []
        always_connected = True
        for rep in range(repetitions):
            seed = derive_seed(master_seed, "batch", wave, rep)
            res = run_campaign(
                preferential_attachment(n, 2, seed=seed),
                Dash(),
                RandomWaveAttack(size=wave, seed=seed + 2),
                id_seed=seed + 1,
                metrics=[ConnectivityMetric()],
                stop_alive=wave,
            )
            always_connected &= bool(res.values["always_connected"])
            deltas.append(res.peak_delta)
        worst = max(deltas)
        rows.append(
            [wave, worst, summarize(deltas).mean,
             "yes" if always_connected else "NO"]
        )
        series["peak δ (worst)"].append(float(worst))

    fig = FigureResult(
        name="batch_waves",
        description=f"simultaneous-deletion waves (n={n}, random victims)",
        x_values=[float(w) for w in wave_sizes],
        series=series,
    )
    fig.table = format_table(
        ["wave size", "worst peak δ", "mean peak δ", "connected"],
        rows,
        title=f"Batch deletion waves (DASH, n={n}, {repetitions} reps, "
        f"bound 2log2(n)={dash_degree_bound(n):.1f})",
    )
    if out_dir is not None:
        fig.csv_path = write_csv(
            Path(out_dir) / "batch_waves.csv",
            ["wave", "worst", "mean", "connected"],
            rows,
        )
    return fig


#: wave-size schedules under test, as registry spec strings (see
#: :data:`repro.adversary.waves.WAVE_SCHEDULES`)
_WAVE_SCHEDULES: dict[str, str] = {
    "constant-4": "constant:4",
    "constant-8": "constant:8",
    "geometric-2x": "geometric:initial=2,ratio=2.0",
    "fraction-10%": "fraction:0.1",
}

_WAVE_ADVERSARIES = {
    "random-wave": lambda schedule, seed: RandomWaveAttack(
        schedule, seed=seed
    ),
    "targeted-wave": lambda schedule, seed: TargetedWaveAttack(schedule),
}


def run_wave_schedules(
    n: int = 120,
    schedules: Sequence[str] = tuple(_WAVE_SCHEDULES),
    repetitions: int = 3,
    *,
    master_seed: int = DEFAULT_SEED,
    out_dir: str | Path | None = None,
) -> FigureResult:
    """Wave adversaries × wave-size schedules (DASH, full kill).

    Every campaign must stay connected after each wave; the table also
    reports how many batch rounds the tracker resolved with the quotient
    fast path vs. the honest traversal (the fast share should dominate).
    """
    rows = []
    series: dict[str, list[float]] = {
        adv: [] for adv in _WAVE_ADVERSARIES
    }
    for sched_name in schedules:
        spec = _WAVE_SCHEDULES[sched_name]
        for adv_name, factory in _WAVE_ADVERSARIES.items():
            deltas = []
            connected = True
            fast = slow = 0
            for rep in range(repetitions):
                seed = derive_seed(
                    master_seed, "wavesched", sched_name, adv_name, rep
                )
                graph = preferential_attachment(n, 2, seed=seed)
                res = run_campaign(
                    graph,
                    Dash(),
                    factory(spec, seed + 1),
                    id_seed=seed + 2,
                    metrics=[ConnectivityMetric()],
                    keep_network=True,
                )
                deltas.append(res.peak_delta)
                connected &= bool(res.values["always_connected"])
                fast += res.network.tracker.fast_batch_rounds
                slow += res.network.tracker.slow_batch_rounds
            worst = max(deltas)
            series[adv_name].append(float(worst))
            rows.append(
                [sched_name, adv_name, worst, summarize(deltas).mean,
                 fast, slow, "yes" if connected else "NO"]
            )

    fig = FigureResult(
        name="wave_schedules",
        description=f"wave adversaries × schedules (DASH, n={n}, full kill)",
        x_values=list(range(len(schedules))),
        series=series,
    )
    fig.table = format_table(
        ["schedule", "adversary", "worst peak δ", "mean peak δ",
         "fast rounds", "slow rounds", "connected"],
        rows,
        title=f"Wave schedules (DASH, n={n}, {repetitions} reps, "
        f"bound 2log2(n)={dash_degree_bound(n):.1f})",
    )
    if out_dir is not None:
        fig.csv_path = write_csv(
            Path(out_dir) / "wave_schedules.csv",
            ["schedule", "adversary", "worst", "mean", "fast", "slow",
             "connected"],
            rows,
        )
    return fig
