"""Tests for MergeBlocks: classification, legality, statistics."""

import pytest

from repro.analysis.depgraph import dependence_height
from repro.core.merge import (
    FormationContext,
    MergeKind,
    MergeStats,
    classify_merge,
    legal_merge,
    merge_blocks,
)
from repro.core.constraints import TripsConstraints
from repro.ir import FunctionBuilder, build_module
from repro.ir.regmask import has
from repro.profiles import collect_profile
from repro.sim import run_module
from tests.conftest import (
    ReferenceFormationContext,
    assert_forest_matches_fresh,
    assert_liveness_matches_fresh,
    fresh_height,
    make_counting_loop,
    make_diamond,
    make_exiting_unroll_loop,
    make_shared_exit_unroll_loop,
    make_while_loop,
)


def ctx_for(func, **kwargs):
    return FormationContext(func, **kwargs)


def test_classify_simple_merge():
    func = make_diamond()
    ctx = ctx_for(func)
    assert classify_merge(ctx, "A", "B") is MergeKind.SIMPLE


def test_classify_tail_duplication():
    func = make_diamond()
    ctx = ctx_for(func)
    # D has two predecessors (B and C).
    assert classify_merge(ctx, "B", "D") is MergeKind.TAIL_DUP


def test_classify_peel():
    func = make_counting_loop()
    ctx = ctx_for(func)
    # head is a loop header; entry->head is not a back edge.
    assert classify_merge(ctx, "entry", "head") is MergeKind.PEEL


def test_classify_unroll():
    fb = FunctionBuilder("main")
    fb.block("entry", entry=True)
    i = fb.movi(0)
    fb.br("loop")
    fb.block("loop")
    fb.mov_to(i, fb.add(i, fb.movi(1)))
    c = fb.tlt(i, fb.movi(4))
    fb.br_cond(c, "loop", "exit")
    fb.block("exit")
    fb.ret(i)
    func = fb.finish()
    ctx = ctx_for(func)
    assert classify_merge(ctx, "loop", "loop") is MergeKind.UNROLL


def test_legal_merge_rejects_entry_target():
    func = make_counting_loop()
    ctx = ctx_for(func)
    assert not legal_merge(ctx, "head", "entry")


def test_legal_merge_rejects_missing_branch():
    func = make_diamond()
    ctx = ctx_for(func)
    assert not legal_merge(ctx, "B", "C")  # B does not branch to C


def test_legal_merge_rejects_calls():
    callee = FunctionBuilder("f")
    callee.block("entry")
    callee.ret(callee.movi(0))
    fb = FunctionBuilder("main")
    fb.block("entry", entry=True)
    fb.br("callsite")
    fb.block("callsite")
    fb.call("f")
    fb.br("after")
    fb.block("after")
    fb.ret(fb.movi(0))
    func = fb.finish()
    ctx = ctx_for(func)
    # Neither merging a call block nor expanding one is legal.
    assert not legal_merge(ctx, "entry", "callsite")
    assert not legal_merge(ctx, "callsite", "after")


def test_legal_merge_head_dup_flag():
    func = make_counting_loop()
    ctx = ctx_for(func, allow_head_dup=False)
    assert not legal_merge(ctx, "entry", "head")  # peel blocked
    ctx2 = ctx_for(func, allow_head_dup=True)
    assert legal_merge(ctx2, "entry", "head")


def test_merge_blocks_returns_new_candidates():
    func = make_diamond()
    ctx = ctx_for(func)
    succs = merge_blocks(ctx, "A", "B")
    assert succs == ["D"]
    assert ctx.stats.merges == 1
    assert "B" not in func.blocks  # simple merge removed the block


def test_block_height_is_recomputed_for_a_merged_block():
    func = make_diamond()
    ctx = ctx_for(func)
    seed = func.blocks["A"]
    before = dependence_height(seed)
    assert seed.shape().height == before == fresh_height(seed)
    assert merge_blocks(ctx, "A", "B") == ["D"]
    merged = func.blocks["A"]
    fresh = fresh_height(merged)
    assert fresh != before
    assert dependence_height(merged) == fresh
    assert seed.shape().height == before  # the old version keeps its own


def test_merge_blocks_failure_keeps_cfg():
    func = make_diamond()
    before = dict(func.blocks)
    ctx = ctx_for(func, constraints=TripsConstraints(max_instructions=2))
    assert merge_blocks(ctx, "A", "B") is None
    assert dict(func.blocks) == before
    assert ctx.stats.rejected_illegal == 1


def test_tail_dup_keeps_original_block():
    func = make_diamond()
    ctx = ctx_for(func)
    merge_blocks(ctx, "A", "B")
    succs = merge_blocks(ctx, "A", "D")
    assert succs == []  # D ends in RET
    assert "D" in func.blocks  # still reachable from C
    assert ctx.stats.tail_dups == 1
    module = build_module(func)
    assert run_module(module.copy(), args=(1, 5))[0] == 3
    assert run_module(module.copy(), args=(9, 5))[0] == 16


def test_unroll_saves_original_body():
    func = make_counting_loop()
    ctx = ctx_for(func)
    merge_blocks(ctx, "head", "body")  # loop becomes a self-loop
    assert "head" in func.blocks["head"].successors()
    size_one = len(func.blocks["head"])
    assert merge_blocks(ctx, "head", "head") is not None
    assert "head" in ctx.saved_bodies
    size_two = len(func.blocks["head"])
    assert merge_blocks(ctx, "head", "head") is not None
    size_three = len(func.blocks["head"])
    # Each unroll appends ~one saved body, not a doubling.
    growth_two = size_two - size_one
    growth_three = size_three - size_two
    assert growth_three <= growth_two + 3
    assert ctx.stats.unrolls == 2
    module = build_module(func)
    assert run_module(module)[0] == 45


def test_stats_mtup_and_add():
    a = MergeStats()
    a.record(MergeKind.SIMPLE)
    a.record(MergeKind.UNROLL)
    b = MergeStats()
    b.record(MergeKind.PEEL)
    b.record(MergeKind.TAIL_DUP)
    a.add(b)
    assert a.mtup == (4, 1, 1, 1)


def test_context_caches_invalidate():
    func = make_counting_loop()
    ctx = ReferenceFormationContext(func)
    loops_before = ctx.loops
    assert ctx.loops is loops_before  # cached
    merge_blocks(ctx, "head", "body")
    assert ctx.loops is not loops_before  # invalidated by the merge


def test_context_caches_updated_in_place_on_fast_path():
    for make, hb, s, kind in (
        (make_counting_loop, "head", "body", MergeKind.SIMPLE),
        (make_diamond, "B", "D", MergeKind.TAIL_DUP),
        (make_counting_loop, "entry", "head", MergeKind.PEEL),
    ):
        func = make()
        ctx = ctx_for(func)
        loops_before = ctx.loops
        cfg_before = ctx.cfg
        assert classify_merge(ctx, hb, s) is kind
        assert merge_blocks(ctx, hb, s) is not None
        # The commit patches the CFG view and the loop forest instead of
        # forcing rebuilds.
        assert ctx.loops is loops_before
        assert ctx.cfg is cfg_before
        fresh = func.cfg()
        assert {n: sorted(x) for n, x in ctx.cfg.succs.items()} == {
            n: sorted(x) for n, x in fresh.succs.items()
        }
        assert_forest_matches_fresh(ctx.loops, func, kind.value)
        assert ctx.cache_stats.loop_patches == 1
        assert ctx.cache_stats.loop_rebuilds == 0


def make_two_entry_cycle():
    """The cycle A <-> B entered at both A and B: no natural loop."""
    fb = FunctionBuilder("main", nparams=1)
    fb.block("entry", entry=True)
    i = fb.movi(0)
    fb.br_cond(fb.tlt(0, fb.movi(0)), "A", "B")
    fb.block("A")
    fb.mov_to(i, fb.addi(i, 1))
    fb.br_cond(fb.tlt(i, fb.movi(10)), "B", "exit")
    fb.block("B")
    fb.mov_to(i, fb.addi(i, 2))
    fb.br("A")
    fb.block("exit")
    fb.ret(i)
    return fb.finish()


def test_tail_dup_turns_two_entry_cycle_into_natural_loop():
    func = make_two_entry_cycle()
    ctx = ctx_for(func)
    loops = ctx.loops
    assert not loops.loops
    assert classify_merge(ctx, "entry", "A") is MergeKind.TAIL_DUP
    assert merge_blocks(ctx, "entry", "A") is not None
    # A is now entered only from B, so B dominates it and A -> B, an edge
    # out of the duplicated block, closes a natural loop.
    assert ctx.loops is loops
    assert loops.idom["A"] == "B"
    assert loops.is_back_edge("A", "B") and loops.is_header("B")
    assert_forest_matches_fresh(loops, func)


def test_peel_of_while_loop_moves_the_header():
    func = make_while_loop()
    ctx = ctx_for(func)
    loops = ctx.loops
    held = loops.loop_of_header("head")
    held_blocks = set(held.blocks)
    assert classify_merge(ctx, "entry", "head") is MergeKind.PEEL
    assert merge_blocks(ctx, "entry", "head") is not None
    # entry now branches straight to body, which dominates the old header:
    # latch -> head is no longer a back edge, head -> body is.
    assert ctx.loops is loops
    assert not loops.is_back_edge("latch", "head")
    assert not loops.is_header("head")
    assert loops.is_back_edge("head", "body")
    assert loops.loop_of_header("body").blocks == held_blocks
    assert_forest_matches_fresh(loops, func)
    # A Loop handed out before the commit is never mutated.
    assert held.header == "head" and held.blocks == held_blocks
    assert held.back_edges == [("latch", "head")]


def test_tail_dup_of_header_into_latch_keeps_the_tree():
    func = make_counting_loop()
    ctx = ctx_for(func)
    loops = ctx.loops
    idom_before = dict(loops.idom)
    assert classify_merge(ctx, "body", "head") is MergeKind.TAIL_DUP
    assert merge_blocks(ctx, "body", "head") is not None
    assert ctx.loops is loops
    assert loops.idom == idom_before
    assert not loops.is_back_edge("body", "head")
    assert loops.is_back_edge("body", "body")
    assert_forest_matches_fresh(loops, func)


def test_unroll_whose_saved_body_adds_an_exit_rebuilds():
    func = make_exiting_unroll_loop()
    ctx = ctx_for(func)
    loops = ctx.loops
    # The first unroll saves loop's body, which branches to exit; loop then
    # absorbs exit, so the second unroll brings the exit edge back.
    assert merge_blocks(ctx, "loop", "loop") is not None
    assert classify_merge(ctx, "loop", "exit") is MergeKind.SIMPLE
    assert merge_blocks(ctx, "loop", "exit") is not None
    assert "exit" not in func.blocks["loop"].successors()
    assert ctx.loops is loops
    assert merge_blocks(ctx, "loop", "loop") is not None
    assert ctx.cache_stats.loop_rebuilds == 1
    assert ctx.cache_stats.loop_patches == 2
    assert ctx.loops is not loops
    assert_forest_matches_fresh(ctx.loops, func)


def test_unroll_adding_a_reachable_exit_keeps_the_tree():
    func = make_shared_exit_unroll_loop()
    ctx = ctx_for(func)
    loops = ctx.loops
    assert merge_blocks(ctx, "loop", "loop") is not None
    assert classify_merge(ctx, "loop", "exit") is MergeKind.TAIL_DUP
    assert merge_blocks(ctx, "loop", "exit") is not None
    assert "exit" not in func.blocks["loop"].successors()
    idom_before = dict(loops.idom)
    # The second unroll adds loop -> exit again; idom(exit) = entry
    # dominates loop, so the tree stands and the edit is patched.
    assert merge_blocks(ctx, "loop", "loop") is not None
    assert "exit" in func.blocks["loop"].successors()
    assert ctx.loops is loops
    assert loops.idom == idom_before
    assert ctx.cache_stats.loop_rebuilds == 0
    assert ctx.cache_stats.loop_patches == 3
    assert ctx.cache_stats.liveness_rebuilds == 0
    assert_forest_matches_fresh(loops, func)
    assert_liveness_matches_fresh(ctx.liveness, func)


def test_live_out_of_uses_successor_live_in():
    func = make_counting_loop()
    ctx = ctx_for(func)
    live_out = ctx.live_out_of(func.blocks["body"])
    # body -> head: the loop counter and accumulator are live.
    entry = func.blocks["entry"]
    assert has(live_out, entry.instrs[0].dest)
