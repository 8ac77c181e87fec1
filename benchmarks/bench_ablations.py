"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation flips one mechanism and measures the effect on a slice of
the microbenchmark suite, answering "does this piece actually carry the
result?":

- iterative optimization inside the merge loop (the O in (IUPO)),
- head duplication (peeling/unrolling integrated into formation),
- the fixed-size block-slot fetch overhead of the EDGE microarchitecture,
- the guard simplification that keeps merge points off test chains,
- the structural constraints themselves (unlimited vs TRIPS limits).
"""

from __future__ import annotations

from repro.core.constraints import TripsConstraints
from repro.core.convergent import form_module
from repro.opt.pipeline import optimize_module
from repro.profiles import collect_profile
from repro.sim.machine import MachineConfig
from repro.sim.timing import simulate_cycles
from repro.workloads.microbench import MICROBENCHMARKS

SLICE = ["ammp_1", "bzip2_3", "twolf_1"]

#: cache of (workload name, machine id) -> (base module, profile, BB cycles)
_BASELINES: dict = {}


def _baseline(name, machine):
    key = (name, id(machine) if machine is not None else None)
    cached = _BASELINES.get(key)
    if cached is None:
        workload = MICROBENCHMARKS[name]
        base = workload.module()
        profile = collect_profile(
            base.copy(), args=workload.args,
            preload={k: list(v) for k, v in workload.preload.items()},
        )
        bb = simulate_cycles(
            base.copy(), args=workload.args,
            preload={k: list(v) for k, v in workload.preload.items()},
            config=machine,
        ).cycles
        cached = _BASELINES[key] = (base, profile, bb)
    return cached


def _avg_improvement(**form_kwargs):
    """Average % cycle improvement over BB for the slice."""
    machine = form_kwargs.pop("machine", None)
    total = 0.0
    for name in SLICE:
        workload = MICROBENCHMARKS[name]
        base, profile, bb = _baseline(name, machine)
        formed = base.copy()
        form_module(formed, profile=profile, **form_kwargs)
        optimize_module(formed)
        cycles = simulate_cycles(
            formed, args=workload.args,
            preload={k: list(v) for k, v in workload.preload.items()},
            config=machine,
        ).cycles
        total += 100.0 * (bb - cycles) / bb
    return total / len(SLICE)


def test_ablation_iterative_optimization(benchmark):
    """Optimize-inside-the-merge-loop vs optimize-at-the-end."""

    def run():
        with_opt = _avg_improvement(optimize_during=True)
        without_opt = _avg_improvement(optimize_during=False)
        return with_opt, without_opt

    with_opt, without_opt = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\niterative opt: {with_opt:+.1f}%  end-only: {without_opt:+.1f}%")
    # Iterative optimization should not be a large regression; the paper
    # finds it adds ~2% on average.
    assert with_opt > without_opt - 6.0


def test_ablation_head_duplication(benchmark):
    """Peel/unroll integration vs acyclic-only if-conversion."""

    def run():
        with_hd = _avg_improvement(allow_head_dup=True)
        without_hd = _avg_improvement(allow_head_dup=False)
        return with_hd, without_hd

    with_hd, without_hd = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nhead dup: {with_hd:+.1f}%  acyclic only: {without_hd:+.1f}%")
    assert with_hd > 0


def test_ablation_fixed_size_blocks(benchmark):
    """The fixed-format block-slot overhead is what merging amortizes: on
    an idealized machine whose fetch cost scales with actual block size,
    merging buys much less."""

    def run():
        real = _avg_improvement()
        ideal = _avg_improvement(
            machine=MachineConfig(fixed_size_blocks=False)
        )
        return real, ideal

    real, ideal = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nfixed-size slots: {real:+.1f}%  idealized fetch: {ideal:+.1f}%")
    assert real > ideal - 3.0


def test_ablation_structural_constraints(benchmark):
    """Relaxed limits (4x block size/memory budget) vs TRIPS limits: the
    formation must stay correct and profitable under both."""
    relaxed = TripsConstraints(
        max_instructions=512, max_memory_ops=128,
        reads_per_bank=32, writes_per_bank=32,
    )

    def run():
        trips = _avg_improvement(constraints=TripsConstraints())
        big = _avg_improvement(constraints=relaxed)
        return trips, big

    trips, big = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nTRIPS limits: {trips:+.1f}%  4x limits: {big:+.1f}%")
    assert trips > 0
