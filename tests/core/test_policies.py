"""Tests for block-selection policies."""

from repro.core.merge import FormationContext
from repro.core.policies import (
    BreadthFirstPolicy,
    Candidate,
    DepthFirstPolicy,
    VLIWPolicy,
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
    policy = VLIWPolicy()
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
    policy = VLIWPolicy()
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
