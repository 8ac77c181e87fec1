"""Unit tests for the block-local scalar optimizer."""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import BasicBlock, Instruction, Opcode, Predicate
from repro.opt import local
from repro.opt.local import (
    eliminate_dead_code,
    implicit_predication,
    optimize_block,
    propagate_and_fold,
    value_number,
)


def block_of(*instrs):
    blk = BasicBlock("b")
    for instr in instrs:
        blk.append(instr)
    return blk


def I(op, dest=None, srcs=(), imm=None, pred=None, target=None):
    return Instruction(op, dest=dest, srcs=srcs, imm=imm, pred=pred, target=target)


# -- copy propagation / constant folding -------------------------------------


def test_copy_propagation_rewrites_uses():
    blk = block_of(
        I(Opcode.MOV, dest=2, srcs=(1,)),
        I(Opcode.ADD, dest=3, srcs=(2, 2)),
        I(Opcode.RET, srcs=(3,)),
    )
    assert propagate_and_fold(blk)
    assert blk.instrs[1].srcs == (1, 1)


def test_copy_propagation_stops_at_redefinition():
    blk = block_of(
        I(Opcode.MOV, dest=2, srcs=(1,)),
        I(Opcode.MOVI, dest=1, imm=9),
        I(Opcode.ADD, dest=3, srcs=(2, 2)),  # must NOT become v1
        I(Opcode.RET, srcs=(3,)),
    )
    propagate_and_fold(blk)
    assert blk.instrs[2].srcs == (2, 2)


def test_predicated_copy_not_propagated():
    blk = block_of(
        I(Opcode.MOV, dest=2, srcs=(1,), pred=Predicate(9)),
        I(Opcode.ADD, dest=3, srcs=(2, 2)),
        I(Opcode.RET, srcs=(3,)),
    )
    propagate_and_fold(blk)
    assert blk.instrs[1].srcs == (2, 2)


def test_constant_folding():
    blk = block_of(
        I(Opcode.MOVI, dest=1, imm=6),
        I(Opcode.MOVI, dest=2, imm=7),
        I(Opcode.MUL, dest=3, srcs=(1, 2)),
        I(Opcode.RET, srcs=(3,)),
    )
    propagate_and_fold(blk)
    assert blk.instrs[2].op is Opcode.MOVI and blk.instrs[2].imm == 42


def test_fold_test_ops_and_not():
    blk = block_of(
        I(Opcode.MOVI, dest=1, imm=5),
        I(Opcode.MOVI, dest=2, imm=9),
        I(Opcode.TLT, dest=3, srcs=(1, 2)),
        I(Opcode.NOT, dest=4, srcs=(3,)),
        I(Opcode.RET, srcs=(4,)),
    )
    propagate_and_fold(blk)
    propagate_and_fold(blk)
    assert blk.instrs[2].imm == 1
    assert blk.instrs[3].op is Opcode.MOVI and blk.instrs[3].imm == 0


def test_fold_division_by_zero_left_alone():
    blk = block_of(
        I(Opcode.MOVI, dest=1, imm=6),
        I(Opcode.MOVI, dest=2, imm=0),
        I(Opcode.DIV, dest=3, srcs=(1, 2)),
        I(Opcode.RET, srcs=(3,)),
    )
    propagate_and_fold(blk)
    assert blk.instrs[2].op is Opcode.DIV


def test_predicate_rewritten_through_copies():
    blk = block_of(
        I(Opcode.MOV, dest=2, srcs=(1,)),
        I(Opcode.MOVI, dest=3, imm=7, pred=Predicate(2, False)),
        I(Opcode.RET, srcs=(3,)),
    )
    propagate_and_fold(blk)
    assert blk.instrs[1].pred == Predicate(1, False)


# -- value numbering -----------------------------------------------------------


def test_redundant_computation_becomes_mov():
    blk = block_of(
        I(Opcode.ADD, dest=3, srcs=(1, 2)),
        I(Opcode.ADD, dest=4, srcs=(1, 2)),
        I(Opcode.RET, srcs=(4,)),
    )
    assert value_number(blk)
    assert blk.instrs[1].op is Opcode.MOV and blk.instrs[1].srcs == (3,)


def test_commutative_key_normalized():
    blk = block_of(
        I(Opcode.ADD, dest=3, srcs=(1, 2)),
        I(Opcode.ADD, dest=4, srcs=(2, 1)),
        I(Opcode.RET, srcs=(4,)),
    )
    value_number(blk)
    assert blk.instrs[1].op is Opcode.MOV


def test_redefined_source_invalidates():
    blk = block_of(
        I(Opcode.ADD, dest=3, srcs=(1, 2)),
        I(Opcode.MOVI, dest=1, imm=0),
        I(Opcode.ADD, dest=4, srcs=(1, 2)),
        I(Opcode.RET, srcs=(4,)),
    )
    value_number(blk)
    assert blk.instrs[2].op is Opcode.ADD  # cannot reuse


def test_complementary_instruction_merging():
    """The tail-duplication redundancy: same op on both predicate paths."""
    blk = block_of(
        I(Opcode.ADD, dest=3, srcs=(1, 2), pred=Predicate(9, True)),
        I(Opcode.ADD, dest=3, srcs=(1, 2), pred=Predicate(9, False)),
        I(Opcode.RET, srcs=(3,)),
    )
    assert value_number(blk)
    assert len(blk.instrs) == 2
    assert blk.instrs[0].pred is None  # merged to unconditional


def test_complementary_merge_blocked_by_intervening_read():
    blk = block_of(
        I(Opcode.ADD, dest=3, srcs=(1, 2), pred=Predicate(9, True)),
        I(Opcode.MOV, dest=5, srcs=(3,)),  # observes the old value if !v9
        I(Opcode.ADD, dest=3, srcs=(1, 2), pred=Predicate(9, False)),
        I(Opcode.RET, srcs=(3,)),
    )
    value_number(blk)
    assert len(blk.instrs) == 4


def test_same_predicate_duplicate_removed():
    blk = block_of(
        I(Opcode.ADD, dest=3, srcs=(1, 2), pred=Predicate(9, True)),
        I(Opcode.ADD, dest=3, srcs=(1, 2), pred=Predicate(9, True)),
        I(Opcode.RET, srcs=(3,)),
    )
    value_number(blk)
    assert len(blk.instrs) == 2


def test_predicate_redefinition_invalidates_entry():
    blk = block_of(
        I(Opcode.ADD, dest=3, srcs=(1, 2), pred=Predicate(9, True)),
        I(Opcode.MOVI, dest=9, imm=0),  # predicate register changes!
        I(Opcode.ADD, dest=4, srcs=(1, 2), pred=Predicate(9, True)),
        I(Opcode.RET, srcs=(4,)),
    )
    value_number(blk)
    assert blk.instrs[2].op is Opcode.ADD


def test_load_reuse_blocked_by_store():
    blk = block_of(
        I(Opcode.LOAD, dest=3, srcs=(1,), imm=0),
        I(Opcode.STORE, srcs=(1, 2), imm=0),
        I(Opcode.LOAD, dest=4, srcs=(1,), imm=0),
        I(Opcode.RET, srcs=(4,)),
    )
    value_number(blk)
    assert blk.instrs[2].op is Opcode.LOAD


def test_load_reuse_without_store():
    blk = block_of(
        I(Opcode.LOAD, dest=3, srcs=(1,), imm=0),
        I(Opcode.LOAD, dest=4, srcs=(1,), imm=0),
        I(Opcode.RET, srcs=(4,)),
    )
    value_number(blk)
    assert blk.instrs[1].op is Opcode.MOV


# -- implicit predication -------------------------------------------------------


def test_head_only_predication():
    """Only the head of a dependence chain needs the predicate."""
    blk = block_of(
        I(Opcode.ADD, dest=3, srcs=(1, 2), pred=Predicate(9, True)),
        I(Opcode.MUL, dest=4, srcs=(3, 3), pred=Predicate(9, True)),
        I(Opcode.RET, srcs=(4,), pred=Predicate(9, True)),
        I(Opcode.RET, pred=Predicate(9, False)),
    )
    implicit_predication(blk, live_out=set())
    assert blk.instrs[0].pred is None  # v3 consumed only under v9
    # v4 feeds a RET predicated on v9: droppable too.
    assert blk.instrs[1].pred is None


def test_implicit_predication_respects_live_out():
    blk = block_of(
        I(Opcode.ADD, dest=3, srcs=(1, 2), pred=Predicate(9, True)),
        I(Opcode.MUL, dest=4, srcs=(3, 3), pred=Predicate(9, True)),
        I(Opcode.RET, srcs=(4,)),
    )
    implicit_predication(blk, live_out={3})
    assert blk.instrs[0].pred is not None  # v3 escapes the block


def test_implicit_predication_respects_weaker_consumers():
    blk = block_of(
        I(Opcode.ADD, dest=3, srcs=(1, 2), pred=Predicate(9, True)),
        I(Opcode.MUL, dest=4, srcs=(3, 3)),  # unpredicated consumer
        I(Opcode.RET, srcs=(4,)),
    )
    implicit_predication(blk, live_out=set())
    assert blk.instrs[0].pred is not None


def test_implicit_predication_through_and_chain():
    blk = block_of(
        I(Opcode.AND, dest=8, srcs=(9, 7)),  # v8 implies v9
        I(Opcode.ADD, dest=3, srcs=(1, 2), pred=Predicate(9, True)),
        I(Opcode.MUL, dest=4, srcs=(3, 3), pred=Predicate(8, True)),
        I(Opcode.RET, srcs=(4,), pred=Predicate(8, True)),
        I(Opcode.RET, pred=Predicate(8, False)),
    )
    implicit_predication(blk, live_out=set())
    assert blk.instrs[1].pred is None


def test_implicit_predication_multi_def_predicate_blocked():
    """Unrolled loops redefine test registers; implication must not fire."""
    blk = block_of(
        I(Opcode.ADD, dest=3, srcs=(1, 2), pred=Predicate(9, True)),
        I(Opcode.MOVI, dest=9, imm=0),
        I(Opcode.MUL, dest=4, srcs=(3, 3), pred=Predicate(9, True)),
        I(Opcode.RET, srcs=(4,)),
    )
    implicit_predication(blk, live_out=set())
    assert blk.instrs[0].pred is not None


# -- dead code elimination --------------------------------------------------------


def test_dce_removes_unused_pure():
    blk = block_of(
        I(Opcode.MOVI, dest=1, imm=5),
        I(Opcode.ADD, dest=2, srcs=(1, 1)),  # dead
        I(Opcode.RET, srcs=(1,)),
    )
    assert eliminate_dead_code(blk, live_out=set())
    assert len(blk.instrs) == 2


def test_dce_keeps_live_out():
    blk = block_of(
        I(Opcode.MOVI, dest=1, imm=5),
        I(Opcode.ADD, dest=2, srcs=(1, 1)),
        I(Opcode.BR, target="x"),
    )
    eliminate_dead_code(blk, live_out={2})
    assert len(blk.instrs) == 3


def test_dce_keeps_stores_and_branches():
    blk = block_of(
        I(Opcode.MOVI, dest=1, imm=5),
        I(Opcode.STORE, srcs=(1, 1)),
        I(Opcode.RET),
    )
    eliminate_dead_code(blk, live_out=set())
    assert len(blk.instrs) == 3


def test_dce_predicated_def_does_not_kill():
    blk = block_of(
        I(Opcode.MOVI, dest=1, imm=5),  # must stay: v1 may survive the
        I(Opcode.MOVI, dest=1, imm=6, pred=Predicate(9)),  # predicated write
        I(Opcode.RET, srcs=(1,)),
    )
    eliminate_dead_code(blk, live_out=set())
    assert len(blk.instrs) == 3


def test_dce_chain_removal():
    blk = block_of(
        I(Opcode.MOVI, dest=1, imm=5),
        I(Opcode.ADD, dest=2, srcs=(1, 1)),
        I(Opcode.MUL, dest=3, srcs=(2, 2)),
        I(Opcode.RET),
    )
    eliminate_dead_code(blk, live_out=set())
    assert len(blk.instrs) == 1  # whole chain dead (RET keeps nothing)


# -- whole-block optimization, property-based ---------------------------------


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000))
def test_optimize_module_preserves_semantics(seed):
    from repro.opt.pipeline import optimize_module
    from repro.sim import run_module
    from repro.workloads.generators import random_inputs, random_program

    module = random_program(seed)
    args = random_inputs(seed)
    ref, _, ref_memory = run_module(module.copy(), args=args)
    optimize_module(module)
    result, _, memory = run_module(module, args=args)
    assert result == ref and memory == ref_memory


def test_optimize_block_runs_to_fixpoint():
    blk = block_of(
        I(Opcode.MOVI, dest=1, imm=2),
        I(Opcode.MOVI, dest=2, imm=3),
        I(Opcode.ADD, dest=3, srcs=(1, 2)),
        I(Opcode.MOV, dest=4, srcs=(3,)),
        I(Opcode.ADD, dest=5, srcs=(4, 4)),
        I(Opcode.RET, srcs=(5,)),
    )
    optimize_block(blk, live_out=set())
    # Everything folds down to constants; the final ADD becomes MOVI 10.
    ret_src = blk.instrs[-1].srcs[0]
    producers = [i for i in blk.instrs if i.dest == ret_src]
    assert producers and producers[-1].op is Opcode.MOVI
    assert producers[-1].imm == 10


# -- the converged stamp -------------------------------------------------------


def _two_round_block():
    """Folds and drops dead code in round 1; round 2 finds the fixpoint."""
    return block_of(
        I(Opcode.MOVI, dest=1, imm=2),
        I(Opcode.MOV, dest=2, srcs=(1,)),
        I(Opcode.ADD, dest=3, srcs=(2, 2)),
        I(Opcode.ADD, dest=4, srcs=(3, 1)),
        I(Opcode.RET, srcs=(4,)),
    )


def _count_pass_calls(monkeypatch) -> list:
    calls = []

    def counted(fn):
        def run(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return run

    monkeypatch.setattr(
        local, "_PASS_FNS", tuple(counted(fn) for fn in local._PASS_FNS)
    )
    return calls


def test_converged_block_runs_no_pass_for_the_same_pair(monkeypatch):
    blk = _two_round_block()
    live_out = 1 << 4
    assert optimize_block(blk, live_out)
    assert blk.converged == (blk.version, live_out)
    assert blk.converged[1] is live_out
    calls = _count_pass_calls(monkeypatch)
    assert not optimize_block(blk, live_out)
    assert not optimize_block(blk, {4}, max_rounds=1)
    assert calls == []


def test_touch_copy_and_pickle_defeat_the_stamp(monkeypatch):
    blk = _two_round_block()
    optimize_block(blk, {4})
    calls = _count_pass_calls(monkeypatch)
    copy = blk.copy("c")
    clone = pickle.loads(pickle.dumps(blk))
    assert copy.converged is None and clone.converged is None
    for block in (copy, clone):
        assert not optimize_block(block, {4})
        assert calls
        calls.clear()
    blk.touch()
    assert not optimize_block(blk, {4})
    assert calls


def test_a_different_live_out_defeats_the_stamp():
    blk = block_of(
        I(Opcode.ADD, dest=3, srcs=(1, 2)),
        I(Opcode.ADD, dest=4, srcs=(1, 1)),
        I(Opcode.RET, srcs=(4,)),
    )
    assert not optimize_block(blk, {3, 4})
    assert blk.converged is not None
    # Without v3 live-out, its definition is dead.
    assert optimize_block(blk, {4})
    assert [instr.dest for instr in blk.instrs] == [4, None]


def test_exhausting_max_rounds_while_changing_leaves_no_stamp(monkeypatch):
    blk = _two_round_block()
    assert optimize_block(blk, {4}, max_rounds=1)
    assert blk.converged is None
    calls = _count_pass_calls(monkeypatch)
    assert not optimize_block(blk, {4})
    assert calls
    assert blk.converged == (blk.version, 1 << 4)
