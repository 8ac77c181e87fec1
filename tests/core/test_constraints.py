"""Tests for TRIPS structural constraints and the LegalBlock estimator."""

from repro.core.constraints import (
    UNLIMITED,
    TripsConstraints,
    estimate_block,
    legal_block,
)
from repro.ir import BasicBlock, Instruction, Opcode, Predicate


def block_of(*instrs):
    blk = BasicBlock("b")
    for i in instrs:
        blk.append(i)
    return blk


def I(op, dest=None, srcs=(), imm=None, pred=None, target=None):
    return Instruction(op, dest=dest, srcs=srcs, imm=imm, pred=pred, target=target)


def test_small_block_is_legal():
    blk = block_of(
        I(Opcode.ADD, dest=2, srcs=(0, 1)),
        I(Opcode.RET, srcs=(2,)),
    )
    est = estimate_block(blk, live_out=set(), constraints=TripsConstraints())
    assert est.legal
    assert est.real_instructions == 2
    assert est.total_instructions == 2


def test_instruction_limit_enforced():
    instrs = [I(Opcode.MOVI, dest=i + 10, imm=i) for i in range(40)]
    instrs.append(I(Opcode.RET))
    blk = block_of(*instrs)
    tight = TripsConstraints(max_instructions=16)
    est = estimate_block(blk, live_out=set(), constraints=tight)
    assert not est.legal
    assert any("instructions" in v for v in est.violations)
    assert legal_block(blk, set(), UNLIMITED)


def test_memory_op_limit():
    instrs = [I(Opcode.LOAD, dest=i + 10, srcs=(0,), imm=i) for i in range(6)]
    instrs.append(I(Opcode.RET))
    blk = block_of(*instrs)
    est = estimate_block(
        blk, set(), TripsConstraints(max_memory_ops=4)
    )
    assert any("memory" in v for v in est.violations)


def test_fanout_charged_for_wide_consumers():
    """A value with k consumers needs k - targets fanout movs."""
    shared = I(Opcode.ADD, dest=5, srcs=(0, 1))
    consumers = [I(Opcode.ADD, dest=10 + i, srcs=(5, 5)) for i in range(4)]
    blk = block_of(shared, *consumers, I(Opcode.RET))
    est = estimate_block(blk, set(), TripsConstraints())
    # v5 has 8 uses (two per consumer); 8 - 2 = 6 fanout movs.
    assert est.fanout_instructions == 6


def test_constants_are_rematerialized_not_fanned():
    const = I(Opcode.MOVI, dest=5, imm=42)
    consumers = [I(Opcode.ADD, dest=10 + i, srcs=(5, 5)) for i in range(4)]
    blk = block_of(const, *consumers, I(Opcode.RET))
    est = estimate_block(blk, set(), TripsConstraints())
    assert est.fanout_instructions == 0


def test_null_write_padding_for_predicated_liveout():
    blk = block_of(
        I(Opcode.TLT, dest=9, srcs=(0, 1)),
        I(Opcode.MOVI, dest=5, imm=1, pred=Predicate(9, True)),
        I(Opcode.RET),
    )
    est = estimate_block(blk, live_out={5}, constraints=TripsConstraints())
    assert est.null_writes == 1
    # Not live-out -> no padding.
    est2 = estimate_block(blk, live_out=set(), constraints=TripsConstraints())
    assert est2.null_writes == 0


def test_unconditional_write_needs_no_padding():
    blk = block_of(
        I(Opcode.MOVI, dest=5, imm=1),
        I(Opcode.RET),
    )
    est = estimate_block(blk, live_out={5}, constraints=TripsConstraints())
    assert est.null_writes == 0


def test_predicated_store_needs_null_store():
    blk = block_of(
        I(Opcode.TLT, dest=9, srcs=(0, 1)),
        I(Opcode.STORE, srcs=(0, 1), pred=Predicate(9, True)),
        I(Opcode.RET),
    )
    est = estimate_block(blk, set(), TripsConstraints())
    assert est.null_stores == 1


def test_register_read_budget():
    # 40 distinct live-in registers exceed the 32-read budget.
    instrs = [I(Opcode.ADD, dest=100 + i, srcs=(i, i)) for i in range(40)]
    instrs.append(I(Opcode.RET))
    blk = block_of(*instrs)
    est = estimate_block(blk, set(), TripsConstraints())
    assert any("reads" in v for v in est.violations)


def test_predicated_temps_do_not_count_as_reads():
    """Reads covered by a same-predicate write in the block are internal."""
    blk = block_of(
        I(Opcode.TLT, dest=9, srcs=(0, 1)),
        I(Opcode.ADD, dest=5, srcs=(0, 1), pred=Predicate(9, True)),
        I(Opcode.MUL, dest=6, srcs=(5, 5), pred=Predicate(9, True)),
        I(Opcode.RET),
    )
    est = estimate_block(blk, set(), TripsConstraints())
    reads = est.reg_reads
    assert reads == 2  # v0 and v1 only; v5 is internal


def test_total_instructions_includes_overheads():
    shared = I(Opcode.ADD, dest=5, srcs=(0, 1))
    consumers = [I(Opcode.ADD, dest=10 + i, srcs=(5, 5)) for i in range(3)]
    blk = block_of(shared, *consumers, I(Opcode.RET))
    est = estimate_block(blk, live_out=set(), constraints=TripsConstraints())
    assert est.total_instructions == est.real_instructions + est.fanout_instructions
