"""Block-occupancy reporting: how full did formation pack the blocks?

The whole point of convergent formation is to "fill each block as full as
possible to amortize the runtime cost of mapping each fixed-size block"
(paper Section 1).  This module measures exactly that: static and
dynamically-weighted block occupancy against the 128-instruction format,
before and after formation — the most direct view of convergence quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.constraints import TripsConstraints, estimate_block
from repro.analysis.liveness import Liveness
from repro.ir.function import Module
from repro.sim.functional import SimStats


@dataclass
class OccupancyReport:
    """Occupancy statistics for one module."""

    #: per block: (size incl. estimated overheads, dynamic executions)
    blocks: list[tuple[str, int, int]] = field(default_factory=list)
    slot_size: int = 128

    @property
    def static_mean(self) -> float:
        if not self.blocks:
            return 0.0
        return sum(size for _, size, _ in self.blocks) / len(self.blocks)

    @property
    def dynamic_mean(self) -> float:
        """Execution-weighted mean block size (what the window really holds)."""
        total_execs = sum(n for _, _, n in self.blocks)
        if total_execs == 0:
            return self.static_mean
        return sum(size * n for _, size, n in self.blocks) / total_execs

    @property
    def static_utilization(self) -> float:
        return self.static_mean / self.slot_size

    @property
    def dynamic_utilization(self) -> float:
        return self.dynamic_mean / self.slot_size

    def histogram(self, buckets: int = 8) -> list[int]:
        """Dynamic-weighted histogram of block occupancy (equal buckets)."""
        counts = [0] * buckets
        width = self.slot_size / buckets
        for _, size, execs in self.blocks:
            index = min(int(size / width), buckets - 1)
            counts[index] += max(execs, 1)
        return counts

    def format(self) -> str:
        lines = [
            f"blocks: {len(self.blocks)}  "
            f"static occupancy: {self.static_mean:.1f}/{self.slot_size} "
            f"({100 * self.static_utilization:.0f}%)  "
            f"dynamic occupancy: {self.dynamic_mean:.1f}/{self.slot_size} "
            f"({100 * self.dynamic_utilization:.0f}%)",
        ]
        counts = self.histogram()
        peak = max(counts) or 1
        width = self.slot_size // len(counts)
        for index, count in enumerate(counts):
            bar = "#" * max(1 if count else 0, round(24 * count / peak))
            lines.append(
                f"  {index * width:3d}-{(index + 1) * width - 1:3d} "
                f"instrs | {bar} {count}"
            )
        return "\n".join(lines)


def occupancy_report(
    module: Module,
    stats: Optional[SimStats] = None,
    constraints: Optional[TripsConstraints] = None,
) -> OccupancyReport:
    """Measure block occupancy (with estimator overheads included).

    ``stats`` from a functional run supplies dynamic execution counts; when
    omitted, every block is weighted equally.
    """
    constraints = constraints or TripsConstraints()
    report = OccupancyReport(slot_size=constraints.max_instructions)
    counts = stats.block_counts if stats is not None else {}
    for func in module:
        live = Liveness(func)
        items = [
            (block, live.live_out[name])
            for name, block in func.blocks.items()
        ]
        estimates = [
            estimate_block(block, live_out, constraints)
            for block, live_out in items
        ]
        for (block, _), estimate in zip(items, estimates):
            execs = counts.get((func.name, block.name), 0)
            report.blocks.append((f"{func.name}/{block.name}",
                                  estimate.total_instructions, execs))
    return report
