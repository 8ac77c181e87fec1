"""Tests for block-selection policies."""

from repro.core.merge import FormationContext
from repro.core.policies import (
    BreadthFirstPolicy,
    Candidate,
    DepthFirstPolicy,
    VLIWPolicy,
    policy_by_name,
)
from repro.ir import FunctionBuilder
from repro.profiles import ProfileData, collect_profile
from repro.ir import build_module
from tests.conftest import make_diamond


def _profile_with_steps(steps: dict[tuple[str, str | None], int]) -> ProfileData:
    """A profile of ``main`` whose block ``src`` left ``count`` times along
    each ``(src, dst)`` edge."""
    profile = ProfileData()
    profile.record_edges(
        {("main", src, dst): count for (src, dst), count in steps.items()}
    )
    return profile


def _candidates(*specs):
    return [Candidate(name, depth, seq) for seq, (name, depth) in enumerate(specs)]


def test_breadth_first_is_fifo_by_depth():
    func = make_diamond()
    ctx = FormationContext(func)
    policy = BreadthFirstPolicy()
    cands = _candidates(("D", 2), ("B", 1), ("C", 1))
    index = policy.select(ctx, "A", cands)
    assert cands[index].name == "B"  # shallowest, earliest discovered


def test_depth_first_prefers_deepest():
    func = make_diamond()
    ctx = FormationContext(func)
    policy = DepthFirstPolicy()
    cands = _candidates(("B", 1), ("D", 2))
    assert cands[policy.select(ctx, "A", cands)].name == "D"


def test_depth_first_filters_to_hottest_successor():
    func = make_diamond()
    profile = _profile_with_steps({("B", "D"): 100, ("C", "D"): 3})
    ctx = FormationContext(func, profile=profile)
    policy = DepthFirstPolicy()
    kept = policy.filter_new(ctx, "A", ["B", "C"])
    assert kept == ["B"]
    # Single successors pass through untouched.
    assert policy.filter_new(ctx, "A", ["D"]) == ["D"]


def test_breadth_first_keeps_all_successors():
    func = make_diamond()
    ctx = FormationContext(func)
    assert BreadthFirstPolicy().filter_new(ctx, "A", ["B", "C"]) == ["B", "C"]


def make_branchy_function():
    """hot path A->B->D, cold arm C with big dependent chain."""
    fb = FunctionBuilder("main", nparams=2)
    fb.block("A", entry=True)
    c = fb.tlt(0, 1)
    fb.br_cond(c, "B", "C")
    fb.block("B")
    fb.movi(1)
    fb.br("D")
    fb.block("C")
    acc = fb.movi(1)
    for _ in range(12):
        acc = fb.mul(acc, acc)
    fb.br("D")
    fb.block("D")
    fb.ret(fb.movi(0))
    return fb.finish()


def test_vliw_excludes_cold_high_latency_paths():
    func = make_branchy_function()
    # Edge probabilities drive the path frequencies.
    profile = _profile_with_steps({
        ("A", "B"): 97, ("B", "D"): 97,
        ("A", "C"): 3, ("C", "D"): 3,
        ("D", None): 100,
    })
    ctx = FormationContext(func, profile=profile)
    policy = VLIWPolicy(threshold=0.2)
    policy.begin_block(ctx, "A")
    hot = Candidate("B", 1, 0)
    cold = Candidate("C", 1, 1)
    assert policy.admits(ctx, "A", hot)
    assert not policy.admits(ctx, "A", cold)


def test_vliw_includes_everything_when_balanced():
    func = make_diamond()
    profile = _profile_with_steps({
        ("A", "B"): 50, ("A", "C"): 50,
        ("B", "D"): 50, ("C", "D"): 50,
        ("D", None): 100,
    })
    ctx = FormationContext(func, profile=profile)
    policy = VLIWPolicy(threshold=0.2)
    policy.begin_block(ctx, "A")
    assert policy.admits(ctx, "A", Candidate("B", 1, 0))
    assert policy.admits(ctx, "A", Candidate("C", 1, 1))


def test_vliw_admits_loop_headers_for_head_dup():
    from tests.conftest import make_counting_loop

    func = make_counting_loop()
    profile = collect_profile(build_module(make_counting_loop()))
    ctx = FormationContext(func, profile=profile, allow_head_dup=True)
    policy = VLIWPolicy()
    policy.begin_block(ctx, "entry")
    assert policy.admits(ctx, "entry", Candidate("head", 1, 0))


def test_policy_by_name():
    assert isinstance(policy_by_name("bf"), BreadthFirstPolicy)
    assert isinstance(policy_by_name("breadth-first"), BreadthFirstPolicy)
    assert isinstance(policy_by_name("df"), DepthFirstPolicy)
    assert isinstance(policy_by_name("vliw", threshold=0.5), VLIWPolicy)
    import pytest

    with pytest.raises(ValueError):
        policy_by_name("nonsense")


def test_lookahead_policy_closes_small_diamonds():
    """A diamond that fits the budget is admitted (single-exit restored)."""
    from repro.core.policies import LookaheadPolicy
    from repro.core.constraints import TripsConstraints

    func = make_diamond()
    ctx = FormationContext(func, constraints=TripsConstraints())
    policy = LookaheadPolicy()
    assert policy.admits(ctx, "A", Candidate("B", 1, 0))


def test_lookahead_policy_vetoes_unclosable_exits():
    """When the region past the branch cannot fit, the merge that would
    add a dangling exit is vetoed."""
    from repro.core.policies import LookaheadPolicy
    from repro.core.constraints import TripsConstraints
    from repro.ir import FunctionBuilder

    fb = FunctionBuilder("main", nparams=2)
    fb.block("A", entry=True)
    c = fb.tlt(0, 1)
    fb.br_cond(c, "Branchy", "Other")
    fb.block("Branchy")
    c2 = fb.tlt(1, 0)
    fb.br_cond(c2, "Big1", "Big2")
    for name in ("Big1", "Big2"):
        fb.block(name)
        acc = fb.movi(0)
        for _ in range(30):
            acc = fb.add(acc, acc)
        fb.br("Join")
    fb.block("Other")
    fb.br("Join")
    fb.block("Join")
    fb.ret(fb.movi(0))
    func = fb.finish()

    tight = TripsConstraints(max_instructions=24)
    ctx = FormationContext(func, constraints=tight)
    policy = LookaheadPolicy()
    # Branchy has two successors whose region is far larger than the
    # remaining budget -> vetoed; Other is single-successor -> admitted.
    assert not policy.admits(ctx, "A", Candidate("Branchy", 1, 0))
    assert policy.admits(ctx, "A", Candidate("Other", 1, 1))


def test_lookahead_policy_preserves_semantics():
    from repro.core.convergent import form_module
    from repro.core.policies import LookaheadPolicy
    from repro.profiles import collect_profile
    from repro.sim import run_module
    from repro.workloads.generators import random_inputs, random_program

    for seed in (11, 222, 3333):
        module = random_program(seed)
        args = random_inputs(seed)
        ref, _, refmem = run_module(module.copy(), args=args)
        profile = collect_profile(module.copy(), args=args)
        form_module(module, profile=profile, policy=LookaheadPolicy())
        r, _, mem = run_module(module, args=args)
        assert r == ref and mem == refmem


def test_lookahead_named_in_factory():
    from repro.core.policies import LookaheadPolicy

    assert isinstance(policy_by_name("lookahead"), LookaheadPolicy)
