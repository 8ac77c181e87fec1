"""Tests for ExpandBlock and the formation drivers."""

from repro.core import convergent
from repro.core.constraints import TripsConstraints
from repro.core.convergent import expand_block, form_function, form_module, _next_seed
from repro.core.merge import FormationContext
from repro.core.policies import BreadthFirstPolicy
from repro.ir import FunctionBuilder, build_module
from repro.ir.printer import format_module
from repro.obs.trace import Tracer
from repro.profiles import ProfileData, collect_profile
from repro.robustness.faultinject import FaultPlane
from repro.sim import run_module
from repro.workloads.spec import SPEC_BENCHMARKS
from tests.conftest import make_counting_loop, make_diamond, make_while_loop


def test_expand_block_converges_diamond_to_one_block():
    func = make_diamond()
    ctx = FormationContext(func)
    merges = expand_block(ctx, BreadthFirstPolicy(), "A")
    func.remove_unreachable_blocks()
    assert merges == 3
    assert list(func.blocks) == ["A"]


def test_expand_block_readds_successors_of_merged_blocks():
    """Merging the loop body re-candidates the (now self-) loop header,
    which is how repeated unrolling falls out of the candidate set."""
    func = make_counting_loop()
    ctx = FormationContext(func)
    merges = expand_block(ctx, BreadthFirstPolicy(), "head")
    assert ctx.stats.unrolls >= 1  # self-merges happened via re-added cands
    assert merges > 1


def test_expand_block_missing_seed_is_noop():
    func = make_diamond()
    ctx = FormationContext(func)
    assert expand_block(ctx, BreadthFirstPolicy(), "ghost") == 0


def test_expand_block_respects_attempt_limit(monkeypatch):
    monkeypatch.setattr(convergent, "MAX_MERGES_PER_BLOCK", 1)
    func = make_counting_loop()
    ctx = FormationContext(func)
    merges = expand_block(ctx, BreadthFirstPolicy(), "head")
    assert merges <= 1
    assert ctx.stats.attempts == 1


def test_next_seed_prefers_hot_blocks():
    func = make_counting_loop()
    profile = collect_profile(build_module(make_counting_loop()))
    ctx = FormationContext(func, profile=profile)
    # head executes 11 times, entry once: head seeds first.
    assert _next_seed(ctx, set()) == "head"
    assert _next_seed(ctx, {"head"}) == "body"
    assert _next_seed(ctx, set(func.blocks)) is None


def test_next_seed_without_profile_uses_rpo():
    func = make_counting_loop()
    ctx = FormationContext(func, profile=ProfileData())
    assert _next_seed(ctx, set()) == "entry"


def test_form_function_removes_unreachable_remnants():
    func = make_diamond()
    form_function(func)
    assert list(func.blocks) == ["A"]


def test_form_module_accumulates_stats_across_functions():
    helper = FunctionBuilder("helper", nparams=1)
    helper.block("a", entry=True)
    c = helper.tlt(0, helper.movi(0))
    helper.br_cond(c, "neg", "pos")
    helper.block("neg")
    helper.ret(helper.movi(-1))
    helper.block("pos")
    helper.ret(helper.movi(1))

    main = FunctionBuilder("main", nparams=1)
    main.block("entry", entry=True)
    main.ret(main.call("helper", 0))

    module = build_module(main.finish(), helper.finish())
    stats = form_module(module)
    assert stats.merges >= 2  # helper's diamond merged
    assert run_module(module.copy(), args=(-5,))[0] == -1
    assert run_module(module.copy(), args=(5,))[0] == 1


def test_formation_is_deterministic():
    def run_once():
        module = build_module(make_while_loop())
        profile = collect_profile(module.copy(), args=(27,))
        stats = form_module(module, profile=profile)
        return stats.mtup, sorted(
            (n, len(b)) for n, b in module.function("main").blocks.items()
        )

    assert run_once() == run_once()


def test_formation_under_tiny_limits_leaves_cfg_unchanged_shape():
    """With a limit below any merge result, nothing merges but the program
    still runs (formation must never be forced to transform)."""
    module = build_module(make_while_loop())
    profile = collect_profile(module.copy(), args=(6,))
    stats = form_module(
        module, profile=profile,
        constraints=TripsConstraints(max_instructions=1),
    )
    assert stats.merges == 0
    assert run_module(module, args=(6,))[0] == 8


def test_tracer_and_fault_plane_reach_only_their_own_run():
    """The tracer and the fault plane are arguments of one run: a later
    run given neither forms exactly like a control run, and the first
    run's plane and tracer record nothing of it."""
    workload = SPEC_BENCHMARKS["bzip2"]
    profile = collect_profile(
        workload.module(), args=workload.args, preload=workload.preload
    )

    def form(**run_state):
        module = workload.module()
        report = form_module(module, profile=profile, **run_state)
        return format_module(module), report.summary()

    control = form()
    plane = FaultPlane(rate=1.0, kinds=("operand",))
    tracer = Tracer()
    faulted = form(tracer=tracer, faults=plane)
    fired = list(plane.fired)
    events = list(tracer.events)
    assert fired and events and faulted != control
    assert form() == control
    assert plane.fired == fired
    assert tracer.events == events
