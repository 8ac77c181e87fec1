"""Shared fixtures and CFG factories used across the test suite."""

from __future__ import annotations

import pytest

from repro.analysis.dominators import DominatorTree
from repro.analysis.liveness import Liveness, _tarjan_sccs
from repro.analysis.loops import LoopForest
from repro.ir import FunctionBuilder, Function, Module, Opcode, build_module
from repro.profiles.data import root_name


def make_counting_loop(bound: int = 10, name: str = "main") -> Function:
    """``for (i = 0; i < bound; i++) sum += i; return sum`` as a CFG.

    Blocks: entry -> head -> body -> head, head -> exit.
    Registers: the loop counter and accumulator live in fixed registers so
    the loop body writes back via ``mov_to``.
    """
    fb = FunctionBuilder(name)
    fb.block("entry", entry=True)
    i_reg = fb.movi(0)
    sum_reg = fb.movi(0)
    bound_reg = fb.movi(bound)
    fb.br("head")

    fb.block("head")
    cond = fb.tlt(i_reg, bound_reg)
    fb.br_cond(cond, "body", "exit")

    fb.block("body")
    new_sum = fb.add(sum_reg, i_reg)
    fb.mov_to(sum_reg, new_sum)
    one = fb.movi(1)
    new_i = fb.add(i_reg, one)
    fb.mov_to(i_reg, new_i)
    fb.br("head")

    fb.block("exit")
    fb.ret(sum_reg)
    return fb.finish()


def make_diamond(name: str = "main") -> Function:
    """``return (a < b) ? a*2 : b*3`` over params v0, v1 (Figure 2 shape)."""
    fb = FunctionBuilder(name, nparams=2)
    fb.block("A", entry=True)
    cond = fb.tlt(0, 1)
    fb.br_cond(cond, "B", "C")

    result = fb.func.new_reg()

    fb.block("B")
    two = fb.movi(2)
    fb.mov_to(result, fb.mul(0, two))
    fb.br("D")

    fb.block("C")
    three = fb.movi(3)
    fb.mov_to(result, fb.mul(1, three))
    fb.br("D")

    fb.block("D")
    one = fb.movi(1)
    fb.ret(fb.add(result, one))
    return fb.finish()


def make_while_loop(name: str = "main") -> Function:
    """A while loop whose trip count depends on the argument (param v0).

    ``while (n > 1) { if (n odd) n = 3n+1 else n = n/2; count++ } ; return count``
    (a Collatz kernel: data-dependent control flow inside the loop).
    """
    fb = FunctionBuilder(name, nparams=1)
    n = 0
    fb.block("entry", entry=True)
    count = fb.movi(0)
    fb.br("head")

    fb.block("head")
    one = fb.movi(1)
    cond = fb.op(Opcode.TGT, n, one)
    fb.br_cond(cond, "body", "exit")

    fb.block("body")
    two = fb.movi(2)
    rem = fb.op(Opcode.MOD, n, two)
    isodd = fb.tne(rem, fb.movi(0))
    fb.br_cond(isodd, "odd", "even")

    fb.block("odd")
    three = fb.movi(3)
    fb.mov_to(n, fb.add(fb.mul(n, three), fb.movi(1)))
    fb.br("latch")

    fb.block("even")
    fb.mov_to(n, fb.div(n, fb.movi(2)))
    fb.br("latch")

    fb.block("latch")
    fb.mov_to(count, fb.add(count, fb.movi(1)))
    fb.br("head")

    fb.block("exit")
    fb.ret(count)
    return fb.finish()


def make_exiting_unroll_loop(name: str = "main") -> Function:
    """A single-block loop whose exit block the merge loop can absorb.

    Blocks: entry -> loop -> {loop, exit}, exit -> done.  Once ``loop`` is
    unrolled (saving its body, which branches to exit) and then absorbs
    ``exit``, the next unroll brings the exit edge back: a commit that
    adds a successor instead of replacing one.
    """
    fb = FunctionBuilder(name)
    fb.block("entry", entry=True)
    i = fb.movi(0)
    fb.br("loop")
    fb.block("loop")
    fb.mov_to(i, fb.addi(i, 1))
    fb.br_cond(fb.tlt(i, fb.movi(8)), "loop", "exit")
    fb.block("exit")
    fb.mov_to(i, fb.addi(i, 3))
    fb.br("done")
    fb.block("done")
    fb.ret(i)
    return fb.finish()


def assert_forest_matches_fresh(forest: LoopForest, func: Function,
                                where: str = "") -> None:
    """A loop forest kept across commits equals a fresh one: same headers,
    back edges and immediate dominators, compared as sets."""
    tree = DominatorTree(func)
    fresh = LoopForest(func, domtree=tree)

    def facts(f: LoopForest):
        edges = {edge for loop in f.loops.values() for edge in loop.back_edges}
        return set(f.loops), edges

    assert facts(forest) == facts(fresh), where
    assert forest.idom == tree.idom, where


def assert_liveness_matches_fresh(live: Liveness, func: Function,
                                  where: str = "") -> None:
    """A liveness kept across commits equals a fresh solve, its components
    equal a fresh Tarjan's (as sets), and every edge between two
    components runs from the higher rank to the lower."""
    cfg = func.cfg()
    fresh = Liveness(func, cfg)
    assert live.live_in == fresh.live_in, where
    assert live.live_out == fresh.live_out, where
    kept = {frozenset(members) for members in live._members.values()}
    assert kept == {
        frozenset(comp) for comp in _tarjan_sccs(list(func.blocks), cfg.succs)
    }, where
    comp_of, rank = live._comp_of, live._rank
    assert set(comp_of) == set(func.blocks), where
    for src, succs in cfg.succs.items():
        for dst in succs:
            if comp_of[src] != comp_of[dst]:
                assert rank[comp_of[src]] > rank[comp_of[dst]], (where, src, dst)


def scan_edge_probability(profile, func: str, src: str, dst) -> float:
    """``ProfileData.edge_probability`` by its definition: this edge's
    count over the sum of every edge-table row leaving ``src``."""
    src = root_name(src)
    total = sum(
        count
        for (f, s, _), count in profile.edge_counts.items()
        if f == func and s == src
    )
    if total == 0:
        return 0.0
    return profile.edge_count(func, src, dst) / total


@pytest.fixture
def counting_loop_module() -> Module:
    return build_module(make_counting_loop())


@pytest.fixture
def diamond_module() -> Module:
    return build_module(make_diamond())


@pytest.fixture
def collatz_module() -> Module:
    return build_module(make_while_loop())
