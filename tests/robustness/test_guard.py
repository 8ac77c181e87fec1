"""Trial transactions contain any exception; formation degrades, never
crashes."""

from __future__ import annotations

from repro.analysis.depgraph import dependence_height
from repro.analysis.predimpl import exposed_mask
from repro.core import convergent
from repro.core.convergent import attempt_merge, form_module
from repro.core.merge import FormationContext, MergeStats
from repro.core.policies import BreadthFirstPolicy
from repro.harness.experiment import heuristic_config
from repro.ir import build_module
from repro.ir.printer import format_block, format_function, format_module
from repro.profiles import collect_profile
from repro.robustness.faultinject import FaultPlane
from repro.robustness.guard import FunctionStatus
from repro.robustness.oracle import assert_equivalent
from repro.workloads.generators import random_program
from repro.workloads.spec import SPEC_BENCHMARKS, SPEC_ORDER
from tests.conftest import (
    assert_shapes_match_fresh,
    make_counting_loop,
    profiled_program,
)

ALL_RAISING = FaultPlane(rate=1.0, seed=0, kinds=("optimizer",))


def _blocks(func):
    """Each block in order: name, object, version stamp, printed payload."""
    return [
        (name, block, block.version, format_block(block))
        for name, block in func.blocks.items()
    ]


def _watch_trials(monkeypatch) -> dict:
    """Check every trial transaction against the checkpoint's premise.

    A rejected or rolled-back trial leaves every block as it was: the same
    object, in the same place, under the same version stamp, printing the
    same.  A committed one only swaps the hyperblock's entry and may
    delete the candidate's; every other block, and the replaced
    hyperblock object itself, is left as it was.  Returns the number of
    trials checked per outcome.
    """
    seen = {"rejected": 0, "restored": 0, "committed": 0}

    def watched(ctx, hb_name, cand_name):
        func = ctx.func
        before = _blocks(func)
        failures = len(ctx.failures)
        result = attempt_merge(ctx, hb_name, cand_name)
        after = _blocks(func)
        where = (func.name, hb_name, cand_name)
        if result is None:
            assert after == before, where
            restored = len(ctx.failures) > failures
            seen["restored" if restored else "rejected"] += 1
            return result
        assert set(func.blocks) <= {name for name, *_ in before}, where
        kept = [entry for entry in before if entry[0] in func.blocks]
        assert [e for e in after if e[0] != hb_name] == [
            e for e in kept if e[0] != hb_name
        ], where
        assert {name for name, *_ in before} - set(func.blocks) <= {cand_name}
        (_, old_hb, version, payload), = (e for e in before if e[0] == hb_name)
        assert (old_hb.version, format_block(old_hb)) == (version, payload)
        seen["committed"] += 1
        return result

    monkeypatch.setattr(convergent, "attempt_merge", watched)
    return seen


def test_trials_never_mutate_committed_blocks(monkeypatch):
    seen = _watch_trials(monkeypatch)
    names = list(SPEC_ORDER) + ["scaled-440-2006", "scaled-440-2007"]
    for name in names:
        module, _, _, profile = profiled_program(name)
        heuristic_config("BF")(module.copy(), profile)
    assert seen["rejected"] and seen["committed"], seen


def _workload(name="mcf"):
    workload = SPEC_BENCHMARKS[name]
    module = workload.module()
    profile = collect_profile(
        workload.module(), args=workload.args, preload=workload.preload
    )
    return workload, module, profile


def test_every_trial_raising_leaves_the_function_unformed_but_alive():
    workload, module, profile = _workload()
    pristine = format_module(workload.module())
    report = form_module(module, profile=profile, faults=ALL_RAISING)
    # Every merge trial crashed; each transaction contained its crash.
    assert report.merges == 0
    assert format_module(module) == pristine
    for func_report in report.functions.values():
        assert func_report.status is not FunctionStatus.OK
        assert func_report.failures
        failure = func_report.failures[0]
        assert failure.error_type == "InjectedFault"
        assert failure.stage == "trial"
        assert failure.seed is not None and failure.candidate is not None
        assert failure.ir_hash
        assert failure.fault_kind == "optimizer"
    assert_equivalent(workload.module(), module)


def test_commit_stage_fault_rolls_back_the_mutated_cfg(monkeypatch):
    """The hardest rollback: the fault fires *after* the CFG was mutated.
    Each restore puts back the same block objects, in the same order."""
    seen = _watch_trials(monkeypatch)
    workload, module, profile = _workload("gzip")
    pristine = format_module(workload.module())
    plane = FaultPlane(rate=1.0, seed=0, kinds=("commit",))
    report = form_module(module, profile=profile, faults=plane)
    assert report.merges == 0
    assert format_module(module) == pristine
    assert plane.fired  # the commit faults really fired mid-commit
    assert seen["restored"] == len(plane.fired)
    assert_equivalent(workload.module(), module)


def _cached_facts(func) -> dict:
    """Each block's object, cached shape and the per-version facts on it."""
    out = {}
    for name, block in func.blocks.items():
        shape = block._shape
        out[name] = (block, shape) + (
            ()
            if shape is None
            else (shape.exposed_mask, shape.kill_mask, shape.height)
        )
    return out


def test_rollback_keeps_the_facts_cached_before_the_trial(monkeypatch):
    """A rolled-back commit puts back the pre-trial block objects under
    their pre-trial stamps, so each block's exposed mask, kill mask and
    dependence height are still the ones computed before the trial, and
    still equal a fresh computation."""
    restored = 0

    def watched(ctx, hb_name, cand_name):
        nonlocal restored
        func = ctx.func
        for block in func.blocks.values():
            exposed_mask(block)
            block.kill_mask()
            dependence_height(block)
        before = _cached_facts(func)
        failures = len(ctx.failures)
        result = attempt_merge(ctx, hb_name, cand_name)
        if len(ctx.failures) > failures:
            where = (func.name, hb_name, cand_name)
            assert _cached_facts(func) == before, where
            assert_shapes_match_fresh(func, str(where))
            restored += 1
        return result

    monkeypatch.setattr(convergent, "attempt_merge", watched)
    workload, module, profile = _workload("gzip")
    plane = FaultPlane(rate=1.0, seed=0, kinds=("commit",))
    form_module(module, profile=profile, faults=plane)
    assert restored == len(plane.fired) > 0


def test_rollback_restores_the_saved_unroll_bodies():
    """An unroll trial saves the loop's single-iteration body before it
    optimizes; when the trial is rolled back, that body goes too."""
    func = make_counting_loop()
    ctx = FormationContext(func)
    assert attempt_merge(ctx, "head", "body") is not None
    assert ctx.saved_bodies == {}
    ctx.faults = FaultPlane(rate=1.0, kinds=("optimizer",))
    assert attempt_merge(ctx, "head", "head") is None
    (failure,) = ctx.failures
    assert (failure.seed, failure.candidate) == ("head", "head")
    assert failure.fault_kind == "optimizer"
    assert ctx.blacklist == {("head", "head")}
    assert list(ctx.saved_bodies) == []


def test_partial_faults_degrade_and_blacklist_only_the_hit_pairs():
    workload, module, profile = _workload("crafty")
    control = workload.module()
    control_report = form_module(control, profile=profile)
    plane = FaultPlane(rate=0.25, seed=3, kinds=("optimizer",))
    report = form_module(module, profile=profile, faults=plane)
    assert plane.fired, "rate 0.25 must fire on this workload"
    # Faults cost merges but never the function.
    assert 0 < report.merges <= control_report.merges
    for func_report in report.functions.values():
        assert func_report.status in (
            FunctionStatus.OK, FunctionStatus.DEGRADED
        )
    hit = {f.function for f in plane.fired}
    assert set(report.degraded_functions) == hit
    assert_equivalent(workload.module(), module)


def test_escaping_policy_error_fails_safe_and_restores_the_function():
    class _BombPolicy(BreadthFirstPolicy):
        def select(self, ctx, hb_name, candidates):
            raise RuntimeError("policy exploded outside any trial")

    func = random_program(6).function("main")
    pristine = format_function(func)
    report = form_module(build_module(func), policy=_BombPolicy())
    report = report.functions["main"]
    assert report.status is FunctionStatus.FAILED_SAFE
    assert format_function(func) == pristine
    assert report.failures[-1].stage == "function"
    assert report.failures[-1].error_type == "RuntimeError"
    assert report.merges == 0


def test_failed_safe_function_does_not_sink_its_module_siblings():
    from repro.ir.function import Module

    module = Module("combo")
    for i, seed in enumerate((3, 5, 8)):
        func = random_program(seed).function("main")
        func.name = f"f{i}"
        module.add_function(func)
    plane = FaultPlane(
        rate=1.0, seed=0, kinds=("optimizer",), functions=frozenset({"f1"})
    )
    control = Module("combo")
    for i, seed in enumerate((3, 5, 8)):
        func = random_program(seed).function("main")
        func.name = f"f{i}"
        control.add_function(func)
    control_report = form_module(control)
    report = form_module(module, faults=plane)
    assert report.status_of("f1") is not FunctionStatus.OK
    for name in ("f0", "f2"):
        assert report.status_of(name) is FunctionStatus.OK
        assert format_function(module.functions[name]) == format_function(
            control.functions[name]
        )
        assert report.functions[name].mtup == (
            control_report.functions[name].mtup
        )


def test_report_totals_are_the_sum_of_its_functions():
    workload, module, profile = _workload("gap")
    report = form_module(module, profile=profile)
    assert report.all_ok
    assert report.failures == []
    assert len(report.functions) == 4
    total = MergeStats()
    for func_report in report.functions.values():
        assert func_report.cache is not None
        total.add(func_report)
    counters = ("mtup", "attempts", "rejected_illegal", "cache")
    assert total.merges > 0
    for counter in counters:
        assert getattr(report, counter) == getattr(total, counter), counter
    summary = report.summary()
    for name, (status, mtup) in summary.items():
        assert status == "ok"
        assert mtup == report.functions[name].mtup
