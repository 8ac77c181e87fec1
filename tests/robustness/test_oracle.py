"""The differential oracle detects wrong code and blesses correct code."""

from __future__ import annotations

import pytest

from repro.core.convergent import form_module
from repro.ir import FunctionBuilder, build_module
from repro.ir.printer import format_module
from repro.profiles import collect_profile
from repro.robustness import oracle
from repro.robustness.faultinject import FaultPlane
from repro.robustness.guard import FunctionStatus
from repro.robustness.oracle import (
    ORACLE_MAX_STEPS,
    BehaviorProbe,
    OracleDivergenceError,
    assert_equivalent,
    default_probes,
    differential_check,
)
from repro.sim.functional import Interpreter, SimulationError
from repro.workloads.generators import random_program
from repro.workloads.spec import SPEC_BENCHMARKS


def _probes(workload):
    return [BehaviorProbe(args=workload.args, preload=dict(workload.preload))]


def test_identical_modules_pass():
    module = random_program(3)
    report = differential_check(module, module.copy())
    assert report.ok
    assert report.probes == len(default_probes(module))


def test_result_corruption_is_detected():
    from repro.ir.opcodes import Opcode

    before = random_program(3)
    after = before.copy()
    # Corrupt: redirect main's RET to an unwritten register (reads as 0),
    # the canonical use-after-rename wrong-code bug.
    func = after.function("main")
    for block in func.blocks.values():
        for instr in block.instrs:
            if instr.op is Opcode.RET and instr.srcs:
                instr.srcs = (func.max_reg() + 1,)
                block.touch()
    assert format_module(after) != format_module(before)
    report = differential_check(before, after)
    assert not report.ok
    assert report.divergences[0].observable in ("result", "memory", "calls")
    with pytest.raises(OracleDivergenceError):
        assert_equivalent(before, after)


def test_simulation_errors_are_observables_not_crashes():
    module = random_program(4)
    # A step budget this tight fails on both sides identically -> equal.
    report = differential_check(module, module.copy(), max_steps=3)
    assert report.ok
    # Failing only on one side is a divergence.
    baseline = [{"result": 0, "memory": {}, "calls": {}}]
    probes = [BehaviorProbe(args=(0,) * len(module.function("main").params))]
    report = differential_check(
        module, module.copy(), probes=probes, baseline=baseline, max_steps=3
    )
    assert not report.ok
    assert report.divergences[0].observable == "error"


def test_interpreter_max_steps_budget():
    module = SPEC_BENCHMARKS["mcf"].module()
    workload = SPEC_BENCHMARKS["mcf"]
    interp = Interpreter(module, max_steps=10)
    for base, values in workload.preload.items():
        interp.preload(base, list(values))
    with pytest.raises(SimulationError, match="step limit"):
        interp.run("main", workload.args)


def test_selfcheck_function_mode_passes_clean_formation():
    workload = SPEC_BENCHMARKS["bzip2"]
    module = workload.module()
    profile = collect_profile(
        workload.module(), args=workload.args, preload=workload.preload
    )
    report = form_module(module, profile=profile, probes=_probes(workload))
    assert report.all_ok
    assert_equivalent(workload.module(), module, probes=_probes(workload))


def test_selfcheck_catches_silent_corruption_and_rolls_back():
    """Operand/predicate faults produce *wrong* code, not crashes — only
    the oracle can catch them, and it must roll the function back."""
    workload = SPEC_BENCHMARKS["ammp"]
    pristine = format_module(workload.module())
    module = workload.module()
    profile = collect_profile(
        workload.module(), args=workload.args, preload=workload.preload
    )
    plane = FaultPlane(rate=1.0, seed=0, kinds=("operand",))
    report = form_module(
        module, profile=profile, probes=_probes(workload), faults=plane
    )
    assert plane.fired
    # The corrupted function must not have shipped: either the trial
    # transaction or the per-function oracle rolled it back.
    for func_report in report.functions.values():
        assert func_report.status is not FunctionStatus.OK
    final = differential_check(
        workload.module(), module, probes=_probes(workload)
    )
    assert final.ok, final.describe()
    assert format_module(module) == pristine


def test_default_probes_match_main_arity():
    module = SPEC_BENCHMARKS["gzip"].module()
    probes = default_probes(module)
    nparams = len(module.function("main").params)
    assert len(probes) == 2
    assert all(len(p.args) == nparams for p in probes)


def _spin_module(returns: bool):
    """``main`` counts a register up forever, or returns after one pass."""
    fb = FunctionBuilder("main")
    fb.block("entry", entry=True)
    counter = fb.movi(0)
    fb.br("loop")
    fb.block("loop")
    fb.mov_to(counter, fb.add(counter, fb.movi(1)))
    if returns:
        fb.ret(counter)
    else:
        fb.br("loop")
    return build_module(fb.finish())


def _spy_budgets(monkeypatch) -> list:
    """Record the ``max_steps`` of every probe the oracle runs."""
    budgets = []
    probe_behavior = oracle.probe_behavior

    def spied(module, probe, max_steps, max_blocks):
        budgets.append(max_steps)
        return probe_behavior(module, probe, max_steps, max_blocks)

    monkeypatch.setattr(oracle, "probe_behavior", spied)
    return budgets


def test_runaway_formed_module_stops_at_the_derived_budget(monkeypatch):
    (baseline,) = oracle.snapshot_behavior(
        _spin_module(returns=True), [BehaviorProbe()]
    )
    assert baseline["steps"] > 0
    budgets = _spy_budgets(monkeypatch)
    report = differential_check(
        _spin_module(returns=True), _spin_module(returns=False),
        probes=[BehaviorProbe()],
    )
    (divergence,) = report.divergences
    assert divergence.observable == "error"
    assert divergence.after == "SimulationError: dynamic step limit exceeded"
    assert budgets == [
        ORACLE_MAX_STEPS,
        oracle.FORMED_STEP_FACTOR * baseline["steps"]
        + oracle.FORMED_STEP_SLACK,
    ]


def test_erroring_baseline_keeps_the_full_step_budget(monkeypatch):
    budgets = _spy_budgets(monkeypatch)
    # Both sides spin until the block limit: the same error, so equal.
    report = differential_check(
        _spin_module(returns=False), _spin_module(returns=False),
        probes=[BehaviorProbe()], max_blocks=1_000,
    )
    assert report.ok, report.describe()
    assert budgets == [ORACLE_MAX_STEPS, ORACLE_MAX_STEPS]
