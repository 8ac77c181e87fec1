"""Tests for dominator-based global value numbering."""

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import FunctionBuilder, Opcode, Predicate, build_module
from repro.opt.gvn import global_value_numbering
from repro.sim import run_module
from repro.workloads.generators import random_inputs, random_program


def test_dominated_redundancy_becomes_copy():
    fb = FunctionBuilder("main", nparams=2)
    fb.block("A", entry=True)
    a = fb.add(0, 1)
    c = fb.tlt(0, 1)
    fb.br_cond(c, "B", "C")
    fb.block("B")
    b = fb.add(0, 1)  # same computation, dominated by A
    fb.ret(b)
    fb.block("C")
    fb.ret(a)
    func = fb.finish()
    assert global_value_numbering(func) == 1
    rewritten = func.blocks["B"].instrs[0]
    assert rewritten.op is Opcode.MOV and rewritten.srcs == (a,)
    module = build_module(func)
    assert run_module(module.copy(), args=(1, 5))[0] == 6
    assert run_module(module.copy(), args=(9, 5))[0] == 14


def test_dominator_chain_deeper_than_the_recursion_limit(monkeypatch):
    """The dominator-tree walk neither recurses per block nor raises the
    process-wide recursion limit."""
    depth = sys.getrecursionlimit() + 100
    fb = FunctionBuilder("main", nparams=2)
    fb.block("b0", entry=True)
    first = fb.add(0, 1)
    for i in range(depth):
        fb.br(f"b{i + 1}")
        fb.block(f"b{i + 1}")
    fb.ret(fb.add(0, 1))
    func = fb.finish()

    def refuse(limit):
        raise AssertionError(f"setrecursionlimit({limit}) called")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert global_value_numbering(func) == 1
    rewritten = func.blocks[f"b{depth}"].instrs[0]
    assert rewritten.op is Opcode.MOV and rewritten.srcs == (first,)


def test_commutative_match():
    fb = FunctionBuilder("main", nparams=2)
    fb.block("A", entry=True)
    fb.add(0, 1)
    fb.br("B")
    fb.block("B")
    fb.ret(fb.add(1, 0))
    func = fb.finish()
    assert global_value_numbering(func) == 1


def test_sibling_blocks_do_not_share():
    """Values from one branch arm are not available in the other."""
    fb = FunctionBuilder("main", nparams=2)
    fb.block("A", entry=True)
    c = fb.tlt(0, 1)
    fb.br_cond(c, "B", "C")
    fb.block("B")
    fb.mul(0, 1)
    fb.br("D")
    fb.block("C")
    fb.mul(0, 1)  # not dominated by B's computation
    fb.br("D")
    fb.block("D")
    fb.ret(fb.movi(0))
    func = fb.finish()
    assert global_value_numbering(func) == 0


def test_multi_def_sources_not_reused():
    fb = FunctionBuilder("main", nparams=2)
    fb.block("A", entry=True)
    x = fb.func.new_reg()
    fb.movi_to(x, 1)
    first = fb.add(x, 1)
    fb.movi_to(x, 2)  # x redefined between the occurrences
    fb.br("B")
    fb.block("B")
    second = fb.add(x, 1)
    fb.ret(second)
    func = fb.finish()
    assert global_value_numbering(func) == 0
    module = build_module(func)
    assert run_module(module, args=(0, 7))[0] == 9


def test_predicated_occurrences_not_reused():
    fb = FunctionBuilder("main", nparams=2)
    fb.block("A", entry=True)
    p = fb.tlt(0, 1)
    fb.add(0, 1, pred=Predicate(p, True))
    fb.br("B")
    fb.block("B")
    fb.ret(fb.add(0, 1))
    func = fb.finish()
    assert global_value_numbering(func) == 0


def test_loads_not_value_numbered():
    fb = FunctionBuilder("main", nparams=1)
    fb.block("A", entry=True)
    fb.load(0)
    fb.br("B")
    fb.block("B")
    fb.store(0, fb.movi(9))
    fb.ret(fb.load(0))  # must see the store
    func = fb.finish()
    assert global_value_numbering(func) == 0
    module = build_module(func)
    assert run_module(module, args=(100,))[0] == 9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=8000))
def test_gvn_preserves_random_programs(seed):
    module = random_program(seed)
    args = random_inputs(seed)
    ref, _, refmem = run_module(module.copy(), args=args)
    for func in module:
        global_value_numbering(func)
    r, _, mem = run_module(module, args=args)
    assert r == ref and mem == refmem


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=8000))
def test_full_pipeline_with_gvn_preserves_semantics(seed):
    from repro.opt.pipeline import optimize_module

    module = random_program(seed)
    args = random_inputs(seed)
    ref, _, refmem = run_module(module.copy(), args=args)
    optimize_module(module)
    r, _, mem = run_module(module, args=args)
    assert r == ref and mem == refmem
