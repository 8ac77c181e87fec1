"""Unit tests for block splitting."""

import pytest

from repro.ir import FunctionBuilder, Instruction, Opcode, Predicate, build_module
from repro.sim import run_module
from repro.transform.split import SplitError, split_block


def straightline(n=8):
    fb = FunctionBuilder("main", nparams=1)
    fb.block("entry", entry=True)
    acc = 0
    for _ in range(n):
        acc = fb.add(acc, acc)
    fb.ret(acc)
    return fb.finish()


def test_split_halfway_default():
    func = straightline()
    first, second = split_block(func, "entry")
    assert first == "entry" and second.startswith("entry.s")
    assert func.blocks[first].successors() == [second]
    assert run_module(build_module(func), args=(3,))[0] == 3 * 2**8


def test_split_refuses_leading_branch():
    """A block whose first instruction is a branch has no legal cut —
    the regression that once produced two always-firing branches."""
    fb = FunctionBuilder("main", nparams=1)
    fb.block("entry", entry=True)
    c = fb.tlt(0, fb.movi(1))
    fb.br_cond(c, "a", "b")
    fb.block("a")
    fb.current.append(Instruction(Opcode.BR, target="b", pred=Predicate(c, True)))
    fb.current.append(Instruction(Opcode.RET, pred=Predicate(c, False)))
    fb.block("b")
    fb.ret(fb.movi(0))
    func = fb.finish()
    with pytest.raises(SplitError, match="pins the cut"):
        split_block(func, "a")


def test_split_preserves_predicated_exits():
    fb = FunctionBuilder("main", nparams=1)
    fb.block("entry", entry=True)
    x = fb.add(0, fb.movi(1))
    y = fb.mul(x, x)
    c = fb.tlt(y, fb.movi(50))
    fb.br_cond(c, "small", "big")
    fb.block("small")
    fb.ret(fb.movi(1))
    fb.block("big")
    fb.ret(fb.movi(2))
    func = fb.finish()
    # Seven instructions: the halfway cut falls after the multiply.
    assert len(func.blocks["entry"]) == 7
    split_block(func, "entry")
    assert [instr.op for instr in func.blocks["entry"].instrs][-2:] == [
        Opcode.MUL, Opcode.BR,
    ]
    module = build_module(func)
    assert run_module(module.copy(), args=(2,))[0] == 1
    assert run_module(module.copy(), args=(9,))[0] == 2
