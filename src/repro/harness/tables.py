"""Drivers that regenerate every table and figure of the paper.

- :func:`table1` — cycle improvement of phase orderings (microbenchmarks)
- :func:`table2` — VLIW/DF/BF heuristics (microbenchmarks)
- :func:`table3` — block-count improvement on the SPEC surrogates
- :func:`figure7` — cycle-count vs block-count reduction regression
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.harness.experiment import (
    RunResult,
    WorkloadExperiment,
    heuristic_config,
)
from repro.workloads.microbench import MICROBENCH_ORDER, MICROBENCHMARKS
from repro.workloads.spec import SPEC_ORDER, SPEC_BENCHMARKS

TABLE1_ORDERINGS = ("UPIO", "IUPO", "(IUP)O", "(IUPO)")
TABLE2_HEURISTICS = ("VLIW", "Convergent VLIW", "DF", "BF")


@dataclass
class TableResult:
    """Rows of one regenerated table."""

    title: str
    configs: tuple[str, ...]
    #: workload -> {config -> RunResult}
    rows: dict[str, dict[str, RunResult]] = field(default_factory=dict)
    metric: str = "cycles"  # or "blocks"

    def improvement(self, workload: str, config: str) -> float:
        row = self.rows[workload]
        base = row["BB"]
        if self.metric == "cycles":
            return row[config].improvement_over(base)
        return row[config].block_improvement_over(base)

    def average(self, config: str) -> float:
        values = [self.improvement(w, config) for w in self.rows]
        return sum(values) / len(values) if values else 0.0

    # -- presentation -----------------------------------------------------

    def format(self) -> str:
        unit = "cycle" if self.metric == "cycles" else "block-count"
        lines = [self.title, ""]
        base_hdr = "BB " + ("cycles" if self.metric == "cycles" else "blocks")
        header = f"{'benchmark':16s} {base_hdr:>12s}"
        for config in self.configs:
            header += f" | {config:>16s} {'m/t/u/p':>12s}"
        lines.append(header)
        lines.append("-" * len(header))
        for workload in self.rows:
            row = self.rows[workload]
            base = row["BB"]
            base_value = (
                base.cycles if self.metric == "cycles" else base.dynamic_blocks
            )
            line = f"{workload:16s} {base_value:12d}"
            for config in self.configs:
                result = row[config]
                mtup = "/".join(str(x) for x in result.mtup)
                line += (
                    f" | {self.improvement(workload, config):15.1f}%"
                    f" {mtup:>12s}"
                )
            lines.append(line)
        lines.append("-" * len(header))
        line = f"{'Average':16s} {'':12s}"
        for config in self.configs:
            line += f" | {self.average(config):15.1f}% {'':>12s}"
        lines.append(line)
        lines.append("")
        lines.append(f"(percent {unit} improvement over basic blocks; "
                     f"m/t/u/p = merges/tail-dups/unrolls/peels)")
        return "\n".join(lines)


def _run_table(
    title: str,
    workloads,
    configs,
    timing: bool,
    metric: str,
    subset: Optional[list[str]] = None,
) -> TableResult:
    table = TableResult(title=title, configs=tuple(configs), metric=metric)
    names = subset if subset is not None else list(workloads)
    if isinstance(workloads, dict):
        unknown = [name for name in names if name not in workloads]
        if unknown:
            raise SystemExit(
                f"unknown workload(s): {', '.join(unknown)}; "
                f"available: {', '.join(workloads)}"
            )
    for name in names:
        experiment = WorkloadExperiment(
            workload=workloads[name] if isinstance(workloads, dict) else name,
            timing=timing,
        )
        experiment.run({c: heuristic_config(c) for c in configs})
        table.rows[name] = experiment.results
    return table


def table1(subset: Optional[list[str]] = None) -> TableResult:
    """Table 1: phase orderings, cycle counts on the microbenchmarks."""
    names = subset or MICROBENCH_ORDER
    return _run_table(
        "Table 1: % cycle improvement over basic blocks (phase orderings)",
        MICROBENCHMARKS,
        TABLE1_ORDERINGS,
        timing=True,
        metric="cycles",
        subset=names,
    )


def table2(subset: Optional[list[str]] = None) -> TableResult:
    """Table 2: VLIW vs EDGE heuristics, cycle counts."""
    names = subset or MICROBENCH_ORDER
    return _run_table(
        "Table 2: % cycle improvement over basic blocks (heuristics)",
        MICROBENCHMARKS,
        TABLE2_HEURISTICS,
        timing=True,
        metric="cycles",
        subset=names,
    )


def table3(subset: Optional[list[str]] = None) -> TableResult:
    """Table 3: block counts on the SPEC surrogates (functional sim)."""
    names = subset or SPEC_ORDER
    return _run_table(
        "Table 3: % block-count improvement over basic blocks (SPEC "
        "surrogates, functional simulation)",
        SPEC_BENCHMARKS,
        TABLE1_ORDERINGS,
        timing=False,
        metric="blocks",
        subset=names,
    )


@dataclass
class RegressionResult:
    """Figure 7: cycle reduction vs block reduction."""

    points: list[tuple[str, str, int, int]]  # workload, config, dblocks, dcycles
    slope: float
    intercept: float
    r_squared: float

    def format(self) -> str:
        lines = [
            "Figure 7: cycle-count reduction vs block-count reduction",
            "",
            f"{'benchmark':16s} {'config':>8s} {'block redux':>12s} {'cycle redux':>12s}",
        ]
        for workload, config, db, dc in self.points:
            lines.append(f"{workload:16s} {config:>8s} {db:12d} {dc:12d}")
        lines.append("")
        lines.append(
            f"linear fit: dcycles = {self.slope:.2f} * dblocks "
            f"+ {self.intercept:.1f}   (r^2 = {self.r_squared:.3f})"
        )
        return "\n".join(lines)


def figure7(table1_result: Optional[TableResult] = None) -> RegressionResult:
    """Regenerate Figure 7 from Table 1's runs."""
    result = table1_result if table1_result is not None else table1()
    points = []
    xs, ys = [], []
    for workload, row in result.rows.items():
        base = row["BB"]
        for config in result.configs:
            r = row[config]
            dblocks = base.dynamic_blocks - r.dynamic_blocks
            dcycles = base.cycles - r.cycles
            points.append((workload, config, dblocks, dcycles))
            xs.append(dblocks)
            ys.append(dcycles)
    # Ordinary least squares, degree 1, in closed form.
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx else 0.0
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    return RegressionResult(points, float(slope), float(intercept), r_squared)
