"""The differential oracle detects wrong code and blesses correct code."""

from __future__ import annotations

import pytest

from repro.core.convergent import form_module
from repro.ir.printer import format_module
from repro.profiles import collect_profile
from repro.robustness.faultinject import FaultPlane
from repro.robustness.guard import FunctionStatus
from repro.robustness.oracle import (
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
    report = form_module(
        module, profile=profile, selfcheck="function",
        oracle_probes=_probes(workload),
    )
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
        module, profile=profile, selfcheck="function",
        oracle_probes=_probes(workload), faults=plane,
    )
    assert plane.fired
    # The corrupted function must not have shipped: either the per-commit
    # containment or the per-function oracle rolled it back.
    for func_report in report.functions.values():
        assert func_report.status is not FunctionStatus.OK
    final = differential_check(
        workload.module(), module, probes=_probes(workload)
    )
    assert final.ok, final.describe()
    assert format_module(module) == pristine


def test_selfcheck_commit_mode_gates_every_commit():
    workload = SPEC_BENCHMARKS["mcf"]
    module = workload.module()
    profile = collect_profile(
        workload.module(), args=workload.args, preload=workload.preload
    )
    control = workload.module()
    control_report = form_module(control, profile=profile)
    report = form_module(
        module, profile=profile, selfcheck="commit",
        oracle_probes=_probes(workload),
    )
    # A clean run must form identically with the commit gate armed.
    assert report.stats.mtup == control_report.stats.mtup
    assert format_module(module) == format_module(control)


def test_selfcheck_rejects_unknown_mode():
    with pytest.raises(ValueError, match="selfcheck"):
        form_module(random_program(2), selfcheck="bogus")


def test_default_probes_match_main_arity():
    module = SPEC_BENCHMARKS["gzip"].module()
    probes = default_probes(module)
    nparams = len(module.function("main").params)
    assert len(probes) == 2
    assert all(len(p.args) == nparams for p in probes)
