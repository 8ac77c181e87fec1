"""Version stamps: the cache tokens under the formation fast path."""

from __future__ import annotations

import itertools
import pickle

from repro.analysis.predimpl import exposed_uses
from repro.ir import instruction
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instruction import Instruction, Predicate
from repro.ir.opcodes import Opcode


def _add(dest, a, b):
    return Instruction(Opcode.ADD, dest=dest, srcs=(a, b))


def test_mutating_helpers_bump_versions():
    block = BasicBlock("b")
    seen = {block.version}

    block.append(_add(3, 1, 2))
    assert block.version not in seen
    seen.add(block.version)

    block.extend([_add(4, 3, 3)])
    assert block.version not in seen
    seen.add(block.version)

    block.append(Instruction(Opcode.BR, target="x"))
    seen.add(block.version)
    block.retarget_branches("x", "y")
    assert block.version not in seen
    seen.add(block.version)

    block.touch()
    assert block.version not in seen


def test_versions_are_never_reused_across_blocks():
    stamps = set()
    for i in range(50):
        block = BasicBlock(f"b{i}")
        assert block.version not in stamps
        stamps.add(block.version)
        block.touch()
        assert block.version not in stamps
        stamps.add(block.version)


def test_copy_gets_a_fresh_stamp():
    block = BasicBlock("b", [_add(3, 1, 2)])
    clone = block.copy("c")
    assert clone.version != block.version
    assert [i.origin for i in clone.instrs] == [i.uid for i in block.instrs]
    assert all(c.uid != o.uid for c, o in zip(clone.instrs, block.instrs))


def test_pickle_roundtrip_restamps():
    block = BasicBlock("b", [_add(3, 1, 2)])
    clone = pickle.loads(pickle.dumps(block))
    assert clone.name == block.name
    assert len(clone.instrs) == len(block.instrs)
    assert clone.version != block.version


def test_unpickled_uids_are_never_minted_again(monkeypatch):
    func = Function("f")
    entry = func.add_block(BasicBlock("entry", [_add(3, 1, 2), _add(4, 3, 3)]))
    entry.append(Instruction(Opcode.RET, srcs=(4,)))
    shipped = [i.uid for i in entry.instrs]
    # A fresh worker process starts its counter at 1, below every uid the
    # driver has shipped.
    monkeypatch.setattr(instruction, "_uid_counter", itertools.count(1))
    clone = pickle.loads(pickle.dumps(func))
    assert [i.uid for i in clone.blocks["entry"].instrs] == shipped
    fresh = clone.blocks["entry"].copy("entry.d1")
    assert min(i.uid for i in fresh.instrs) > max(shipped)
    assert Instruction(Opcode.RET).uid > max(shipped)


def test_function_version_bumps_on_structural_changes():
    func = Function("f")
    v0 = func.version
    entry = func.add_block(BasicBlock("entry"))
    entry.append(Instruction(Opcode.RET, srcs=()))
    assert func.version != v0
    v1 = func.version
    func.add_block(BasicBlock("dead"))
    assert func.version != v1
    v2 = func.version
    func.remove_unreachable_blocks()
    assert "dead" not in func.blocks
    assert func.version != v2


def test_exposed_uses_memo_tracks_mutation():
    block = BasicBlock("b")
    block.append(_add(3, 1, 2))
    block.append(Instruction(Opcode.RET, srcs=(3,)))
    assert exposed_uses(block) == {1, 2}
    # Same version: the memoized set comes back (identity is the contract).
    assert exposed_uses(block) is exposed_uses(block)
    block.instrs.insert(0, _add(1, 7, 7))
    block.touch()
    assert exposed_uses(block) == {2, 7}


def test_exposed_uses_memo_predicated_path():
    block = BasicBlock("b")
    block.append(Instruction(Opcode.TLT, dest=9, srcs=(1, 2)))
    block.append(
        Instruction(Opcode.MOVI, dest=5, imm=1, pred=Predicate(9, True))
    )
    block.append(
        Instruction(Opcode.ADD, dest=6, srcs=(5, 5), pred=Predicate(9, True))
    )
    # The guarded read of r5 is covered by the guarded write under the
    # same predicate; the memoized answer must agree with a cold one.
    first = exposed_uses(block)
    assert 5 not in first
    assert first == exposed_uses(block)
