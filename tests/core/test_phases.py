"""Tests for the phase-ordering drivers and factor selection."""

import pytest

from repro.analysis import LoopForest
from repro.core import merge
from repro.core.constraints import TripsConstraints
from repro.core.merge import MergeStats
from repro.core.phases import (
    ORDERINGS,
    choose_factors,
    compile_with_ordering,
    phase_unroll_peel_bb,
    phase_unroll_peel_hyper,
)
from repro.ir import build_module, verify_module
from repro.profiles import collect_profile
from repro.robustness.guard import (
    FormationReport,
    FunctionReport,
    FunctionStatus,
)
from repro.sim import run_module
from tests.conftest import make_counting_loop, make_while_loop


def loop_and_profile(maker, args=()):
    module = build_module(maker())
    profile = collect_profile(module.copy(), args=args)
    func = module.function("main")
    loop = LoopForest(func).loop_of_header("head")
    return module, func, loop, profile


def test_choose_factors_unrolls_high_trip_loops():
    module, func, loop, profile = loop_and_profile(make_counting_loop)
    factors = choose_factors(
        func, loop, profile, TripsConstraints(), body_size=10
    )
    assert factors.unroll > 0
    assert factors.peel == 0  # common trip count (11) is above the limit


def test_choose_factors_peels_low_trip_loops():
    module, func, loop, profile = loop_and_profile(
        lambda: make_counting_loop(bound=3)
    )
    factors = choose_factors(
        func, loop, profile, TripsConstraints(), body_size=10
    )
    assert factors.peel == 3


def test_choose_factors_capacity_bound():
    module, func, loop, profile = loop_and_profile(make_counting_loop)
    factors = choose_factors(
        func, loop, profile, TripsConstraints(), body_size=100
    )
    assert factors.unroll == 0  # 2 * 100 instructions would never fit


def test_choose_factors_ignore_capacity():
    module, func, loop, profile = loop_and_profile(make_counting_loop)
    factors = choose_factors(
        func, loop, profile, TripsConstraints(), body_size=100,
        ignore_capacity=True,
    )
    assert factors.unroll > 0


def test_choose_factors_zero_for_unprofiled_loop():
    module, func, loop, profile = loop_and_profile(make_counting_loop)
    from repro.profiles import ProfileData

    factors = choose_factors(
        func, loop, ProfileData(), TripsConstraints(), body_size=10
    )
    assert factors.peel == 0 and factors.unroll == 0


def test_phase_unroll_peel_bb_duplicates_cfg():
    module = build_module(make_counting_loop(bound=30))
    profile = collect_profile(module.copy())
    before = len(module.function("main").blocks)
    stats = MergeStats()
    phase_unroll_peel_bb(module, profile, TripsConstraints(), stats)
    after = len(module.function("main").blocks)
    assert after > before
    assert stats.unrolls > 0
    verify_module(module)
    assert run_module(module)[0] == sum(range(30))


def test_phase_unroll_peel_hyper_requires_self_loops():
    """On an unformed CFG the hyper unroller finds no self-loops, but
    peeling still applies to headers with a unique outside predecessor."""
    module = build_module(make_while_loop())
    profile = collect_profile(module.copy(), args=(6,))
    report = FormationReport()
    report.add_function(
        FunctionReport(function="main", status=FunctionStatus.OK)
    )
    phase_unroll_peel_hyper(module, profile, TripsConstraints(), report)
    main = report.functions["main"]
    assert report.unrolls == main.unrolls == 0
    assert report.peels == main.peels
    assert main.status is FunctionStatus.OK
    verify_module(module)
    assert run_module(module, args=(6,))[0] == 8


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_all_orderings_preserve_semantics(ordering):
    module = build_module(make_while_loop())
    profile = collect_profile(module.copy(), args=(27,))
    reference = run_module(module.copy(), args=(27,))[0]
    compile_with_ordering(module, ordering, profile)
    verify_module(module)
    assert run_module(module, args=(27,))[0] == reference


def test_unknown_ordering_rejected():
    module = build_module(make_counting_loop())
    with pytest.raises(ValueError, match="unknown ordering"):
        compile_with_ordering(module, "OIPU", collect_profile(module.copy()))


def test_bb_ordering_is_identity():
    module = build_module(make_counting_loop())
    size_before = module.size()
    stats = compile_with_ordering(
        module, "BB", collect_profile(module.copy())
    )
    assert module.size() == size_before
    assert stats.mtup == (0, 0, 0, 0)


def test_convergent_ordering_reduces_blocks_most():
    base = build_module(make_while_loop())
    profile = collect_profile(base.copy(), args=(27,))

    def blocks_for(ordering):
        module = base.copy()
        compile_with_ordering(module, ordering, profile)
        return run_module(module, args=(27,))[1].blocks_executed

    bb = blocks_for("BB")
    convergent = blocks_for("(IUPO)")
    assert convergent < bb / 3


def test_upio_records_cfg_level_unrolls_in_stats():
    module = build_module(make_counting_loop(bound=30))
    profile = collect_profile(module.copy())
    stats = compile_with_ordering(module, "UPIO", profile)
    assert stats.unrolls > 0


def test_iupo_postpass_contains_a_failing_trial(monkeypatch):
    """IUPO's unroll/peel postpass runs each merge as a trial transaction:
    a trial that raises is contained and reported on its function."""
    real = merge.merge_preview

    def preview(func, hb, target, body_source=None):
        if target is hb:
            raise RuntimeError("self-merge preview crashed")
        return real(func, hb, target, body_source=body_source)

    monkeypatch.setattr(merge, "merge_preview", preview)
    module = build_module(make_counting_loop())
    profile = collect_profile(module.copy())
    reference = run_module(module.copy())[0]
    report = compile_with_ordering(module, "IUPO", profile)
    main = report.functions["main"]
    assert main.status is FunctionStatus.DEGRADED
    (failure,) = main.failures
    assert failure.stage == "trial"
    assert (failure.seed, failure.candidate) == ("head", "head")
    assert failure.error_type == "RuntimeError"
    verify_module(module)
    assert run_module(module)[0] == reference
