"""Incremental liveness (`Liveness.note_commit`) vs full re-solve.

Each commit case of the patched SCC condensation — the absorbed block
deleted, split off, or kept in its component, an unroll that adds an edge
down in rank or up, and an exhausted rank gap — is driven through a real
merge and compared with a fresh solve and a fresh Tarjan.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.liveness import Liveness, _tarjan_sccs
from repro.core.convergent import expand_block
from repro.core.merge import (
    FormationContext,
    MergeKind,
    classify_merge,
    merge_blocks,
)
from repro.core.policies import BreadthFirstPolicy
from repro.ir import FunctionBuilder
from repro.ir.regmask import has
from repro.ir.instruction import Instruction
from repro.ir.opcodes import Opcode
from repro.workloads.generators import random_program
from tests.conftest import (
    assert_liveness_matches_fresh,
    make_counting_loop,
    make_diamond,
    make_exiting_unroll_loop,
    make_reentering_unroll_loop,
    make_while_loop,
)


# An in-place rewrite of one block that keeps its successors is the shape
# of an unroll that adds no successor: ``note_commit(b, b, ...)``.


def test_refresh_after_block_edit_matches_full_solve():
    func = make_counting_loop()
    cfg = func.cfg()
    live = Liveness(func, cfg=cfg)
    # Read a parameter register inside the loop body (before the branch).
    body = func.blocks["body"]
    extra = Instruction(Opcode.ADD, dest=func.new_reg(), srcs=(0, 1))
    body.instrs.insert(0, extra)
    body.touch()
    assert live.note_commit("body", "body", added=())
    assert_liveness_matches_fresh(live, func)


def test_refresh_propagates_to_predecessor_components():
    # entry -> A -> B -> C: a new use in C must flow all the way up.
    fb = FunctionBuilder("chain")
    fb.block("entry", entry=True)
    v = fb.movi(7)
    fb.br("A")
    fb.block("A")
    fb.br("B")
    fb.block("B")
    fb.br("C")
    fb.block("C")
    fb.ret(fb.movi(0))
    func = fb.finish()
    cfg = func.cfg()
    live = Liveness(func, cfg=cfg)
    assert not has(live.live_out["entry"], v)
    block = func.blocks["C"]
    block.instrs.insert(0, Instruction(Opcode.NEG, dest=func.new_reg(), srcs=(v,)))
    block.touch()
    live.note_commit("C", "C", added=())
    assert has(live.live_out["entry"], v)
    assert has(live.live_in["A"], v)
    assert live.sccs_solved == 4
    assert_liveness_matches_fresh(live, func)


def test_refresh_skips_unaffected_components():
    func = make_diamond()
    cfg = func.cfg()
    live = Liveness(func, cfg=cfg)
    func.blocks["D"].touch()
    live.note_commit("D", "D", added=())
    # D's live-in did not change, so no predecessor component is dirtied.
    assert live.sccs_solved == 1
    assert len(live._members) == 4
    assert_liveness_matches_fresh(live, func)


def _commit(ctx, hb, s, kind):
    assert classify_merge(ctx, hb, s) is kind
    assert merge_blocks(ctx, hb, s) is not None
    assert_liveness_matches_fresh(ctx.liveness, ctx.func, f"{hb} <- {s}")


def test_deleted_singleton_leaves_the_condensation():
    func = make_diamond()
    ctx = FormationContext(func)
    live = ctx.liveness
    _commit(ctx, "A", "B", MergeKind.SIMPLE)
    assert "B" not in func.blocks and "B" not in live._comp_of
    assert len(live._members) == 3
    assert ctx.cache_stats.liveness_rebuilds == 0


def test_deleted_block_leaves_its_loop_component():
    func = make_counting_loop()
    ctx = FormationContext(func)
    live = ctx.liveness
    loop = live._comp_of["head"]
    assert live._comp_of["body"] == loop
    _commit(ctx, "head", "body", MergeKind.SIMPLE)
    # head now loops on itself and keeps the component (and its rank).
    assert live._members[loop] == ["head"]
    assert ctx.cache_stats.liveness_rebuilds == 0


def test_header_tail_duplicated_into_latch_splits_off():
    func = make_while_loop()
    ctx = FormationContext(func)
    live = ctx.liveness
    loop = live._comp_of["head"]
    entry_rank = live._rank[live._comp_of["entry"]]
    _commit(ctx, "latch", "head", MergeKind.TAIL_DUP)
    # head's only predecessor left is entry, outside the loop: it becomes
    # a singleton ranked between the loop (which it branches into) and
    # entry (which branches to it).
    head = live._comp_of["head"]
    assert head != loop and live._members[head] == ["head"]
    assert live._comp_of["latch"] == loop
    assert live._rank[loop] < live._rank[head] < entry_rank
    assert ctx.cache_stats.liveness_rebuilds == 0


def test_block_with_a_second_pred_in_its_component_stays():
    func = make_while_loop()
    ctx = FormationContext(func)
    live = ctx.liveness
    loop = live._comp_of["latch"]
    _commit(ctx, "odd", "latch", MergeKind.TAIL_DUP)
    # even still branches to latch, so latch stays in the loop.
    assert live._comp_of["latch"] == loop
    assert ctx.cache_stats.liveness_rebuilds == 0


def test_unroll_adding_a_successor_below_keeps_the_components():
    func = make_exiting_unroll_loop()
    ctx = FormationContext(func)
    live = ctx.liveness
    _commit(ctx, "loop", "loop", MergeKind.UNROLL)
    _commit(ctx, "loop", "exit", MergeKind.SIMPLE)
    # The saved body branches to exit again: an added edge, which runs
    # down in rank.  exit is unreachable, so the forest still rebuilds.
    _commit(ctx, "loop", "loop", MergeKind.UNROLL)
    assert ctx.cache_stats.liveness_rebuilds == 0
    assert ctx.cache_stats.loop_rebuilds == 1
    assert live._rank[live._comp_of["loop"]] > live._rank[live._comp_of["exit"]]


def test_unroll_adding_a_successor_rediscovers_components():
    func = make_reentering_unroll_loop()
    ctx = FormationContext(func)
    live = ctx.liveness
    _commit(ctx, "loop", "loop", MergeKind.UNROLL)
    _commit(ctx, "loop", "back", MergeKind.SIMPLE)
    assert ctx.cache_stats.liveness_rebuilds == 0
    # back lost its last predecessor and was ranked above loop; the saved
    # body branches to it again, which closes the cycle loop -> back.
    _commit(ctx, "loop", "loop", MergeKind.UNROLL)
    assert ctx.cache_stats.liveness_rebuilds == 1
    assert live._comp_of["loop"] == live._comp_of["back"]
    assert ctx.cache_stats.liveness_rebuilds == ctx.cache_stats.loop_rebuilds


def test_exhausted_rank_gap_rediscovers_components():
    func = make_while_loop()
    ctx = FormationContext(func)
    live = ctx.liveness
    low = live._rank[live._comp_of["head"]]
    # No float lies strictly between the loop's rank and entry's.
    live._rank[live._comp_of["entry"]] = math.nextafter(low, math.inf)
    _commit(ctx, "latch", "head", MergeKind.TAIL_DUP)
    assert ctx.cache_stats.liveness_rebuilds == 1
    assert ctx.cache_stats.loop_rebuilds == 0


@pytest.mark.parametrize(
    "make", [make_diamond, make_counting_loop, make_while_loop]
)
def test_formation_keeps_liveness_exact(make):
    """After every fast-path merge the patched liveness equals a fresh
    solve of the evolving function."""
    func = make()
    ctx = FormationContext(func)
    policy = BreadthFirstPolicy()
    assert ctx.liveness is not None  # materialize before merging
    for seed in list(func.blocks):
        if seed in func.blocks:
            expand_block(ctx, policy, seed)
            if ctx._liveness is not None:
                assert_liveness_matches_fresh(ctx._liveness, func)


@pytest.mark.parametrize("seed", range(8))
def test_formation_keeps_liveness_exact_random(seed):
    func = random_program(seed).function("main")
    ctx = FormationContext(func)
    policy = BreadthFirstPolicy()
    assert ctx.liveness is not None
    for block_name in list(func.blocks):
        if block_name in func.blocks:
            expand_block(ctx, policy, block_name)
    if ctx._liveness is not None:
        assert_liveness_matches_fresh(ctx._liveness, func)


def test_tarjan_emits_successors_first():
    succs = {"a": ["b"], "b": ["c", "b"], "c": []}
    comps = _tarjan_sccs(["a", "b", "c"], succs)
    order = {tuple(sorted(c)): i for i, c in enumerate(comps)}
    assert order[("c",)] < order[("b",)] < order[("a",)]
