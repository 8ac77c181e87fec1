"""Experiment runner: compiles and simulates workloads under the paper's
configurations, checking semantic equivalence of every compiled variant.

This is the machinery behind Tables 1-3 and Figure 7; the table-specific
drivers live in :mod:`repro.harness.tables`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.constraints import TripsConstraints
from repro.core.convergent import form_module
from repro.core.merge import MergeStats
from repro.core.phases import compile_with_ordering, phase_unroll_peel_bb
from repro.core.policies import (
    BreadthFirstPolicy,
    DepthFirstPolicy,
    VLIWPolicy,
)
from repro.ir.function import Module
from repro.ir.verify import verify_module
from repro.opt.pipeline import optimize_module
from repro.profiles.collect import collect_profile
from repro.profiles.data import ProfileData
from repro.sim.functional import run_module
from repro.sim.machine import MachineConfig
from repro.sim.timing import TimingSimulator
from repro.workloads.microbench import Workload


class ExperimentError(Exception):
    """Raised when a compiled configuration changes program behaviour."""


@dataclass
class RunResult:
    """One (workload, configuration) measurement."""

    workload: str
    config: str
    cycles: int
    dynamic_blocks: int
    mispredictions: int
    static_blocks: int
    mtup: tuple[int, int, int, int] = (0, 0, 0, 0)

    def improvement_over(self, baseline: "RunResult") -> float:
        """Percent cycle improvement relative to ``baseline``."""
        if baseline.cycles == 0:
            return 0.0
        return 100.0 * (baseline.cycles - self.cycles) / baseline.cycles

    def block_improvement_over(self, baseline: "RunResult") -> float:
        if baseline.dynamic_blocks == 0:
            return 0.0
        return (
            100.0
            * (baseline.dynamic_blocks - self.dynamic_blocks)
            / baseline.dynamic_blocks
        )


#: A configuration: name plus a transform applied to (module, profile).
Configurator = Callable[[Module, ProfileData], MergeStats]


def ordering_config(ordering: str) -> Configurator:
    def apply(module: Module, profile: ProfileData) -> MergeStats:
        return compile_with_ordering(module, ordering, profile)

    return apply


def heuristic_config(name: str) -> Configurator:
    """Table 2 configurations."""

    def vliw(optimize_during: bool) -> Configurator:
        # The discrete VLIW column and Convergent VLIW share the
        # block-selection heuristic and the unroll prepass; the latter
        # adds iterative optimization inside the merge loop, isolating the
        # paper's "with iterative optimization" comparison (Table 2,
        # columns 3 vs 4).
        def apply(module: Module, profile: ProfileData) -> MergeStats:
            constraints = TripsConstraints()
            phase_unroll_peel_bb(module, profile, constraints)
            stats = form_module(
                module,
                profile=profile,
                policy=VLIWPolicy(),
                constraints=constraints,
                optimize_during=optimize_during,
                allow_head_dup=False,
            )
            optimize_module(module)
            return stats

        return apply

    def convergent(policy_factory) -> Configurator:
        def apply(module: Module, profile: ProfileData) -> MergeStats:
            stats = form_module(
                module,
                profile=profile,
                policy=policy_factory(),
                constraints=TripsConstraints(),
                optimize_during=True,
                allow_head_dup=True,
            )
            optimize_module(module)
            return stats

        return apply

    table = {
        "VLIW": vliw(optimize_during=False),
        "Convergent VLIW": vliw(optimize_during=True),
        "DF": convergent(DepthFirstPolicy),
        "BF": convergent(BreadthFirstPolicy),
    }
    return table[name]


@dataclass
class WorkloadExperiment:
    """Runs one workload under many configurations with cross-checking."""

    workload: Workload
    machine: Optional[MachineConfig] = None
    timing: bool = True  # False = functional block counts only (Table 3)
    max_blocks: int = 5_000_000
    results: dict[str, RunResult] = field(default_factory=dict)
    _reference: object = None

    def _measure(self, module: Module, config_name: str, mtup) -> RunResult:
        wl = self.workload
        preload = {k: list(v) for k, v in wl.preload.items()}
        if self.timing:
            # The timing model drives the interpreter, so its run is the
            # functional run too.
            sim = TimingSimulator(module, config=self.machine)
            tstats = sim.run(
                args=wl.args, preload=preload, max_blocks=self.max_blocks
            )
            result, fstats, memory = sim.functional
            cycles, mispredictions = tstats.cycles, tstats.mispredictions
        else:
            result, fstats, memory = run_module(
                module, args=wl.args, preload=preload, max_blocks=self.max_blocks
            )
            cycles = mispredictions = 0
        if self._reference is None:
            self._reference = (result, memory)
        elif (result, memory) != self._reference:
            raise ExperimentError(
                f"{wl.name}/{config_name}: compiled program output differs "
                f"({result!r} != {self._reference[0]!r})"
            )
        run = RunResult(
            workload=wl.name,
            config=config_name,
            cycles=cycles,
            dynamic_blocks=fstats.blocks_executed,
            mispredictions=mispredictions,
            static_blocks=sum(len(f.blocks) for f in module),
            mtup=mtup,
        )
        self.results[config_name] = run
        return run

    def run(self, configs: dict[str, Configurator]) -> dict[str, RunResult]:
        base = self.workload.module()
        profile = collect_profile(
            base,
            args=self.workload.args,
            preload={k: list(v) for k, v in self.workload.preload.items()},
            max_blocks=self.max_blocks,
        )
        self._measure(base, "BB", (0, 0, 0, 0))
        for name, configure in configs.items():
            module = base.copy()
            stats = configure(module, profile)
            verify_module(module)
            self._measure(module, name, stats.mtup)
        return self.results
