"""Tests for predicate-implication reasoning and exposure analysis."""

from repro.analysis.predimpl import (
    exposed_uses,
    implication_edges,
    implies,
)
from repro.ir import BasicBlock, Instruction, Opcode, Predicate


def block_of(*instrs):
    blk = BasicBlock("b")
    for i in instrs:
        blk.append(i)
    return blk


def I(op, dest=None, srcs=(), imm=None, pred=None, target=None):
    return Instruction(op, dest=dest, srcs=srcs, imm=imm, pred=pred, target=target)


# -- implication edges --------------------------------------------------------


def test_and_implies_operands():
    blk = block_of(
        I(Opcode.AND, dest=5, srcs=(1, 2)),
        I(Opcode.RET),
    )
    edges, counts = implication_edges(blk)
    assert implies(edges, Predicate(5, True), Predicate(1, True))
    assert implies(edges, Predicate(5, True), Predicate(2, True))
    assert not implies(edges, Predicate(5, False), Predicate(1, False))


def test_not_flips_sense():
    blk = block_of(
        I(Opcode.NOT, dest=5, srcs=(1,)),
        I(Opcode.RET),
    )
    edges, _ = implication_edges(blk)
    assert implies(edges, Predicate(5, True), Predicate(1, False))
    assert implies(edges, Predicate(5, False), Predicate(1, True))


def test_transitive_chain():
    blk = block_of(
        I(Opcode.AND, dest=5, srcs=(1, 2)),
        I(Opcode.AND, dest=6, srcs=(5, 3)),
        I(Opcode.MOV, dest=7, srcs=(6,)),
        I(Opcode.RET),
    )
    edges, _ = implication_edges(blk)
    assert implies(edges, Predicate(7, True), Predicate(1, True))
    assert implies(edges, Predicate(7, True), Predicate(3, True))


def test_multi_def_combinator_excluded():
    blk = block_of(
        I(Opcode.AND, dest=5, srcs=(1, 2)),
        I(Opcode.AND, dest=5, srcs=(3, 4)),  # redefinition
        I(Opcode.RET),
    )
    edges, _ = implication_edges(blk)
    assert not implies(edges, Predicate(5, True), Predicate(1, True))


def test_unstable_registers_not_traversed():
    blk = block_of(
        I(Opcode.AND, dest=5, srcs=(1, 2)),
        I(Opcode.RET),
    )
    edges, _ = implication_edges(blk)
    assert not implies(
        edges, Predicate(5, True), Predicate(1, True), 1 << 1
    )


def test_reflexive_implication():
    assert implies({}, Predicate(3, True), Predicate(3, True))
    assert not implies({}, Predicate(3, True), Predicate(3, False))


# -- exposure -----------------------------------------------------------------


def test_plain_exposure():
    blk = block_of(
        I(Opcode.ADD, dest=2, srcs=(0, 1)),
        I(Opcode.RET, srcs=(2,)),
    )
    assert exposed_uses(blk) == {0, 1}


def test_same_predicate_write_covers_read():
    blk = block_of(
        I(Opcode.TLT, dest=9, srcs=(0, 1)),
        I(Opcode.ADD, dest=5, srcs=(0, 1), pred=Predicate(9, True)),
        I(Opcode.MUL, dest=6, srcs=(5, 5), pred=Predicate(9, True)),
        I(Opcode.RET),
    )
    assert 5 not in exposed_uses(blk)


def test_stronger_predicate_covers_read():
    blk = block_of(
        I(Opcode.ADD, dest=5, srcs=(0, 1), pred=Predicate(9, True)),
        I(Opcode.AND, dest=8, srcs=(9, 7)),
        I(Opcode.MUL, dest=6, srcs=(5, 5), pred=Predicate(8, True)),
        I(Opcode.RET),
    )
    assert 5 not in exposed_uses(blk)


def test_weaker_reader_is_exposed():
    blk = block_of(
        I(Opcode.ADD, dest=5, srcs=(0, 1), pred=Predicate(9, True)),
        I(Opcode.MUL, dest=6, srcs=(5, 5)),  # unpredicated: may see old v5
        I(Opcode.RET),
    )
    assert 5 in exposed_uses(blk)


def test_complementary_reader_is_exposed():
    blk = block_of(
        I(Opcode.ADD, dest=5, srcs=(0, 1), pred=Predicate(9, True)),
        I(Opcode.MUL, dest=6, srcs=(5, 5), pred=Predicate(9, False)),
        I(Opcode.RET),
    )
    assert 5 in exposed_uses(blk)


def test_predicate_register_redefinition_breaks_coverage():
    """Unrolled hyperblocks recompute tests into the same register; reads
    guarded by the *new* value are not covered by writes under the old."""
    blk = block_of(
        I(Opcode.ADD, dest=5, srcs=(0, 1), pred=Predicate(9, True)),
        I(Opcode.TLT, dest=9, srcs=(0, 1)),  # v9 redefined
        I(Opcode.MUL, dest=6, srcs=(5, 5), pred=Predicate(9, True)),
        I(Opcode.RET),
    )
    assert 5 in exposed_uses(blk)


def test_versioned_chain_still_covers_within_iteration():
    """Coverage through a combinator works when versions line up."""
    blk = block_of(
        I(Opcode.TLT, dest=9, srcs=(0, 1)),
        I(Opcode.AND, dest=8, srcs=(9, 7)),
        I(Opcode.ADD, dest=5, srcs=(0, 1), pred=Predicate(9, True)),
        I(Opcode.MUL, dest=6, srcs=(5, 5), pred=Predicate(8, True)),
        # second "iteration": everything recomputed under new names is
        # irrelevant; the first iteration's coverage must have held.
        I(Opcode.RET),
    )
    assert 5 not in exposed_uses(blk)


def test_predicate_register_itself_is_exposed():
    blk = block_of(
        I(Opcode.MOVI, dest=5, imm=1, pred=Predicate(9, True)),
        I(Opcode.RET),
    )
    assert 9 in exposed_uses(blk)


def test_unconditional_write_kills_all_later_reads():
    blk = block_of(
        I(Opcode.MOVI, dest=5, imm=1),
        I(Opcode.ADD, dest=6, srcs=(5, 5), pred=Predicate(9, False)),
        I(Opcode.RET),
    )
    assert 5 not in exposed_uses(blk)
