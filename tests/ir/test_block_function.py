"""Unit tests for BasicBlock, Function, Module and CFG views."""

import pytest

from repro.ir import (
    BasicBlock,
    FunctionBuilder,
    Instruction,
    Opcode,
    Predicate,
    build_module,
)
from tests.conftest import make_counting_loop, make_diamond


def test_block_successors_in_order_and_deduped():
    blk = BasicBlock("A")
    blk.append(Instruction(Opcode.BR, target="B", pred=Predicate(1, True)))
    blk.append(Instruction(Opcode.BR, target="C", pred=Predicate(1, False)))
    blk.append(Instruction(Opcode.BR, target="B", pred=Predicate(2, True)))
    assert blk.successors() == ["B", "C"]


def test_branches_to_and_retarget():
    blk = BasicBlock("A")
    blk.append(Instruction(Opcode.BR, target="B", pred=Predicate(1, True)))
    blk.append(Instruction(Opcode.BR, target="C", pred=Predicate(1, False)))
    assert len(blk.branches_to("B")) == 1
    assert blk.retarget_branches("B", "B2") == 1
    assert blk.successors() == ["B2", "C"]


def test_block_copy_is_deep():
    func = make_diamond()
    original = func.block("B")
    clone = original.copy("B2")
    assert clone.name == "B2"
    assert len(clone) == len(original)
    assert all(c.uid != o.uid for c, o in zip(clone, original))
    clone.instrs[0].dest = 99
    assert original.instrs[0].dest != 99


def test_function_cfg_preds_succs():
    func = make_counting_loop()
    cfg = func.cfg()
    assert cfg.succs["entry"] == ["head"]
    assert sorted(cfg.preds["head"]) == ["body", "entry"]
    assert cfg.succs["head"] == ["body", "exit"]
    assert cfg.num_preds("exit") == 1


def test_new_reg_never_collides_with_noted_regs():
    fb = FunctionBuilder("f", nparams=3)
    fb.block("entry")
    r = fb.movi(0)
    assert r >= 3
    fb.func.note_reg(100)
    assert fb.func.new_reg() == 101


def test_new_block_name_is_fresh():
    func = make_counting_loop()
    n1 = func.new_block_name("body", tag="d")
    n2 = func.new_block_name("body", tag="d")
    assert n1 != n2
    assert n1 not in func.blocks


def test_duplicate_block_name_rejected():
    func = make_counting_loop()
    with pytest.raises(ValueError):
        func.add_block(BasicBlock("head"))


def test_remove_unreachable_blocks():
    func = make_diamond()
    dead = BasicBlock("dead")
    dead.append(Instruction(Opcode.BR, target="D"))
    func.add_block(dead)
    removed = func.remove_unreachable_blocks()
    assert removed == ["dead"]
    assert "dead" not in func.blocks


def test_cannot_remove_entry():
    func = make_diamond()
    with pytest.raises(ValueError):
        func.remove_block("A")


def test_function_copy_independent():
    func = make_counting_loop()
    clone = func.copy()
    clone.block("body").instrs.clear()
    assert len(func.block("body")) > 0
    assert clone.entry == func.entry
    assert clone._next_reg == func._next_reg


def test_module_copy_and_lookup():
    mod = build_module(make_counting_loop(), make_diamond(name="aux"))
    clone = mod.copy()
    assert "aux" in clone
    assert clone.function("main") is not mod.function("main")
    assert clone.size() == mod.size()
