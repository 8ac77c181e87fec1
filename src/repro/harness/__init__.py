"""Experiment harness regenerating the paper's tables and figures."""

from repro.harness.experiment import (
    ExperimentError,
    RunResult,
    WorkloadExperiment,
    heuristic_config,
    ordering_config,
)
from repro.harness.occupancy import OccupancyReport, occupancy_report
from repro.harness.selfcheck import run_fault_drill, run_selfcheck
from repro.harness.tables import (
    RegressionResult,
    TableResult,
    figure7,
    table1,
    table2,
    table3,
)

__all__ = [
    "ExperimentError",
    "OccupancyReport",
    "occupancy_report",
    "RegressionResult",
    "RunResult",
    "TableResult",
    "WorkloadExperiment",
    "figure7",
    "run_fault_drill",
    "run_selfcheck",
    "heuristic_config",
    "ordering_config",
    "table1",
    "table2",
    "table3",
]
