"""Simulation layer: the campaign engine, metrics, experiments, sweeps."""

from repro.sim.engine import SimulationResult, run_campaign
from repro.sim.experiment import (
    ExperimentSpec,
    expand_tasks,
    run_experiment,
    run_task,
)
from repro.sim.metrics import (
    METRICS,
    ComponentMetric,
    ConnectivityMetric,
    DegreeMetric,
    EdgeBudgetMetric,
    IdChangeMetric,
    LatencyMetric,
    MessageMetric,
    Metric,
    StretchMetric,
    default_metrics,
)
from repro.sim.parallel import default_jobs, run_tasks
from repro.sim.results import ResultRow, ResultSet
from repro.sim.stretch import StretchComputer, StretchReport

__all__ = [
    "run_campaign",
    "ExperimentSpec",
    "expand_tasks",
    "run_experiment",
    "run_task",
    "METRICS",
    "ComponentMetric",
    "ConnectivityMetric",
    "DegreeMetric",
    "EdgeBudgetMetric",
    "IdChangeMetric",
    "LatencyMetric",
    "MessageMetric",
    "Metric",
    "StretchMetric",
    "default_metrics",
    "default_jobs",
    "run_tasks",
    "ResultRow",
    "ResultSet",
    "SimulationResult",
    "StretchComputer",
    "StretchReport",
]
