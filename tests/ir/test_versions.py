"""Version stamps: the cache tokens under the formation fast path."""

from __future__ import annotations

import itertools
import pickle

import pytest

from repro.analysis.depgraph import dependence_height
from repro.analysis.predimpl import exposed_mask, exposed_uses
from repro.backend.pipeline import compile_backend
from repro.harness.tables import TABLE2_HEURISTICS
from repro.ir import instruction
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instruction import Instruction, Predicate
from repro.ir.opcodes import Opcode
from repro.ir.printer import format_function
from repro.workloads.generators import random_program
from tests.conftest import assert_shapes_match_fresh, formed_programs


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
    # A fresh process starts its counter at 1, below every uid the
    # pickling process minted.
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
    # The memo is the mask on the version's shape; a touch drops it.
    assert block.shape().exposed_mask == 1 << 1 | 1 << 2
    block.instrs.insert(0, _add(1, 7, 7))
    block.touch()
    assert exposed_uses(block) == {2, 7}
    assert block.shape().exposed_mask == 1 << 2 | 1 << 7


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


def test_function_pickle_restamps_versions():
    func = random_program(2).function("main")
    clone = pickle.loads(pickle.dumps(func))
    assert format_function(clone) == format_function(func)
    for name, block in clone.blocks.items():
        # A shipped-back block must never alias a live local stamp.
        assert block.version != func.blocks[name].version


def test_shape_is_scanned_once_per_version():
    block = BasicBlock("b", [_add(3, 1, 2)])
    block.append(Instruction(Opcode.CALL, dest=4, srcs=(3,), callee="g"))
    block.append(Instruction(Opcode.BR, target="x", pred=Predicate(3, True)))
    block.append(Instruction(Opcode.BR, target="x", pred=Predicate(3, False)))
    shape = block.shape()
    assert block.shape() is shape
    assert shape.succs == ("x",) and shape.has_call
    facts = ("def_mask", "kill_mask", "exposed_mask", "height")
    assert [getattr(shape, fact) for fact in facts] == [None] * 4
    assert block.def_mask() == 1 << 3 | 1 << 4
    assert block.kill_mask() == 1 << 3 | 1 << 4
    assert exposed_mask(block) == 1 << 1 | 1 << 2
    height = dependence_height(block)
    assert height > 0
    # Each fact is filled on first use and kept on this version's shape.
    assert [getattr(shape, fact) for fact in facts] == [
        1 << 3 | 1 << 4, 1 << 3 | 1 << 4, 1 << 1 | 1 << 2, height,
    ]
    shape.exposed_mask, shape.height = -1, -1
    assert exposed_mask(block) == -1 and dependence_height(block) == -1
    succs = block.successors()
    succs.append("y")  # a fresh list: the caller may keep or edit it
    assert block.successors() == ["x"]
    block.retarget_branches("x", "y")
    assert block.shape() is not shape
    assert block.successors() == ["y"]
    assert exposed_mask(block) == 1 << 1 | 1 << 2
    assert dependence_height(block) == height
    block.instrs[1] = _add(3, 3, 3)
    block.instrs[0].pred = Predicate(9, True)
    block.touch()
    assert not block.has_call()
    assert block.def_mask() == 1 << 3
    assert block.kill_mask() == 1 << 3
    assert exposed_mask(block) == 1 << 1 | 1 << 2 | 1 << 3 | 1 << 9
    assert dependence_height(block) == height + 1
    for clone in (block.copy("c"), pickle.loads(pickle.dumps(block))):
        assert clone._shape is None
        assert clone.successors() == ["y"]


@pytest.mark.parametrize("config", TABLE2_HEURISTICS)
def test_shapes_match_a_fresh_scan_after_compile_backend(config):
    """The backend edits blocks (splits, spill code, fanout) after
    formation; every edit re-stamps, so no cached shape goes stale."""
    for name, formed, _, _ in formed_programs(config):
        module = formed.copy()
        for func in module:
            for block in func.blocks.values():
                # Cache every shape and its facts before the backend.
                block.def_mask()
                block.kill_mask()
                exposed_mask(block)
                dependence_height(block)
        compile_backend(module, emit=False)
        for func in module:
            assert_shapes_match_fresh(func, f"{name}/{config}/{func.name}")
