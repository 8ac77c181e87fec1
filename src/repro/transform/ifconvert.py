"""If-conversion mechanics: inlining one block into another under a predicate.

This module implements the ``Combine`` step of the paper's Figure 5: given a
hyperblock ``HB`` with one or more branches targeting ``S``, append (a copy
of) ``S``'s instructions to ``HB``, predicated on the condition under which
those branches would have fired, and remove the branches.  Control
dependence becomes data dependence.

A branch's predicate is evaluated *at the branch's position*; the predicate
register may be redefined later in the block (hyperblocks recompute loop
tests into the same register when unrolled).  The guard is therefore
captured in a fresh register exactly where each removed branch stood, and
the appended code is predicated on that stable snapshot.

The same mechanism implements all four merge flavors; what differs is the
surrounding CFG bookkeeping (done by :mod:`repro.core.merge`):

- simple merge (``S`` had a single predecessor): ``S`` is removed;
- tail duplication (``S`` has other predecessors): ``S`` survives and the
  appended copy plays the role of the duplicate ``S'``;
- peeling (``S`` is a loop header entered from outside): the appended copy
  is the peeled iteration, whose back-edge branch now *enters* the loop;
- unrolling (``HB`` merges its own saved body across its self back edge).
"""

from __future__ import annotations

from typing import Optional

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instruction import Instruction, Predicate
from repro.ir.opcodes import Opcode
from repro.transform.predicates import PredicateBuilder


class MergeError(Exception):
    """Raised when an inline request is structurally impossible."""


def _complementary_pair(branches: list[Instruction]) -> bool:
    if len(branches) != 2:
        return False
    a, b = branches[0].pred, branches[1].pred
    return (
        a is not None
        and b is not None
        and a.reg == b.reg
        and a.sense != b.sense
    )


class _DefResolver:
    """Resolves predicate atoms to *definition instances* within a block.

    Unrolled hyperblocks define the same test register once per iteration,
    so atoms must be compared by defining-instruction instance, not by
    register name.  An atom is ``("inst", def_index, sense)`` for a value
    produced inside the block, or ``("ext", reg, sense)`` for a value
    flowing in from outside.
    """

    def __init__(self, hb: BasicBlock):
        self.instrs = hb.instrs
        #: reg -> list of instruction indices that define it, ascending
        self.defs: dict[int, list[int]] = {}
        for i, instr in enumerate(self.instrs):
            if instr.dest is not None:
                self.defs.setdefault(instr.dest, []).append(i)

    def last_def_before(self, reg: int, pos: int) -> Optional[int]:
        candidates = self.defs.get(reg)
        if not candidates:
            return None
        best = None
        for i in candidates:
            if i >= pos:
                break
            best = i
        return best

    def conjuncts(self, reg: int, sense: bool, pos: int, depth: int = 0) -> frozenset:
        """Flatten the predicate value of ``reg`` as seen at ``pos``."""
        while depth < 64:
            i = self.last_def_before(reg, pos)
            if i is None:
                return frozenset({("ext", reg, sense)})
            instr = self.instrs[i]
            if instr.pred is not None:
                # Conditionally written: opaque, but a well-defined instance.
                return frozenset({("inst", i, sense)})
            if instr.op is Opcode.MOV:
                reg, pos = instr.srcs[0], i
            elif instr.op is Opcode.NOT:
                reg, pos, sense = instr.srcs[0], i, not sense
            elif instr.op is Opcode.AND and sense:
                a, b = instr.srcs
                return self.conjuncts(a, True, i, depth + 1) | self.conjuncts(
                    b, True, i, depth + 1
                )
            else:
                return frozenset({("inst", i, sense)})
            depth += 1
        return frozenset({("inst", pos, sense)})

    def atom_readable_at_end(self, atom) -> Optional[tuple[int, bool]]:
        """If the atom's value is still in its register at the end of the
        block, return ``(reg, sense)`` to read it; else ``None``."""
        kind, key, sense = atom
        if kind == "ext":
            reg = key
            return (reg, sense) if not self.defs.get(reg) else None
        instr = self.instrs[key]
        reg = instr.dest
        if self.last_def_before(reg, len(self.instrs)) == key:
            return (reg, sense)
        return None


def _simplified_pair_guard(
    func: Function, hb: BasicBlock, branches: list[Instruction]
) -> Optional[list[tuple[int, bool]]]:
    """Detect two branches whose conditions differ only in one
    complementary atom: ``(g ∧ t) ∨ (g ∧ ¬t) = g``.

    This is the predicate simplification that keeps a merge point's code
    off the test's dependence chain when *both* paths into it are included
    — the reason breadth-first merging escapes the tail-duplication
    serialization (paper Section 7.2).  Returns the common conjuncts as
    ``(reg, sense)`` pairs readable at the end of the block, or ``None``.
    """
    if len(branches) != 2:
        return None
    p1, p2 = branches[0].pred, branches[1].pred
    if p1 is None or p2 is None:
        return None
    resolver = _DefResolver(hb)
    positions = {id(instr): i for i, instr in enumerate(hb.instrs)}
    pos1 = positions.get(id(branches[0]))
    pos2 = positions.get(id(branches[1]))
    if pos1 is None or pos2 is None:
        return None
    c1 = resolver.conjuncts(p1.reg, p1.sense, pos1)
    c2 = resolver.conjuncts(p2.reg, p2.sense, pos2)
    diff1 = c1 - c2
    diff2 = c2 - c1
    if len(diff1) != 1 or len(diff2) != 1:
        return None
    (a1,) = diff1
    (a2,) = diff2
    if a1[0] != a2[0] or a1[1] != a2[1] or a1[2] == a2[2]:
        return None
    readable: list[tuple[int, bool]] = []
    for atom in c1 & c2:
        spot = resolver.atom_readable_at_end(atom)
        if spot is None:
            return None
        readable.append(spot)
    return readable


def _capture_guard(
    func: Function, hb: BasicBlock, branches: list[Instruction]
) -> Optional[Predicate]:
    """Remove ``branches`` from ``hb``, capturing their combined condition.

    Each branch is replaced, in place, by an instruction that snapshots its
    predicate's effective value (``MOV`` for positive sense, ``NOT`` for
    negative); the snapshots are OR-ed at the end of the block.  Returns
    ``None`` when the merged code should be unconditional: a single
    unpredicated branch, or a complementary pair covering the whole block.
    """
    if len(branches) == 1 and branches[0].pred is None:
        hb.instrs.remove(branches[0])
        hb.touch()
        return None
    if _complementary_pair(branches) and len(hb.branches()) == 2:
        # The two branches partition the block: together they always fire.
        branch_ids = {id(b) for b in branches}
        hb.instrs = [i for i in hb.instrs if id(i) not in branch_ids]
        hb.touch()
        return None

    atoms = _simplified_pair_guard(func, hb, branches)
    if atoms is not None:
        branch_ids = {id(b) for b in branches}
        hb.instrs = [i for i in hb.instrs if id(i) not in branch_ids]
        hb.touch()
        if not atoms:
            return None
        if len(atoms) == 1:
            (reg, sense), = atoms
            return Predicate(reg, sense)
        # Conjunction of the common atoms: rebuild a small AND tree.
        pb = PredicateBuilder(func, hb)
        acc: Optional[Predicate] = None
        for reg, sense in sorted(atoms):
            acc = pb.conjoin(acc, Predicate(reg, sense))
        return acc

    branch_ids = {id(b) for b in branches}
    snapshot_regs: list[int] = []
    new_instrs: list[Instruction] = []
    for instr in hb.instrs:
        if id(instr) in branch_ids:
            pred = instr.pred
            if pred is None:
                raise MergeError(
                    f"{hb.name}: unpredicated branch among {len(branches)} "
                    f"branches to the same target"
                )
            dest = func.new_reg()
            op = Opcode.MOV if pred.sense else Opcode.NOT
            new_instrs.append(Instruction(op, dest=dest, srcs=(pred.reg,)))
            snapshot_regs.append(dest)
        else:
            new_instrs.append(instr)
    hb.instrs = new_instrs
    hb.touch()

    acc = snapshot_regs[0]
    for reg in snapshot_regs[1:]:
        dest = func.new_reg()
        hb.append(Instruction(Opcode.OR, dest=dest, srcs=(acc, reg)))
        acc = dest
    return Predicate(acc, True)


def inline_block(
    func: Function,
    hb: BasicBlock,
    target_name: str,
    body: BasicBlock,
) -> Optional[Predicate]:
    """Inline ``body`` (a fresh copy of the merge target) into ``hb``.

    Every branch of ``hb`` aimed at ``target_name`` is removed; ``body``'s
    instructions are appended, their predicates conjoined with the captured
    guard.  ``body`` is consumed (its instructions are moved, not copied).

    Returns the guard predicate used (``None`` for an unconditional merge).
    """
    branches = hb.branches_to(target_name)
    if not branches:
        raise MergeError(f"{hb.name} has no branch to {target_name}")

    guard = _capture_guard(func, hb, branches)
    pb = PredicateBuilder(func, hb)
    # The simplified-guard path may hand back a register the body is about
    # to redefine (unrolling recomputes loop tests into the same register);
    # snapshot its current value first.
    if guard is not None and any(
        instr.dest == guard.reg for instr in body.instrs
    ):
        guard = pb.snapshot(guard)
    for instr in body.instrs:
        instr.pred = pb.conjoin(guard, instr.pred)
        hb.append(instr)
        pb.note_append(instr)
    body.instrs = []
    body.touch()
    return guard


def merge_preview(
    func: Function,
    hb: BasicBlock,
    target: BasicBlock,
    body_source: Optional[BasicBlock] = None,
) -> BasicBlock:
    """Build the merged block in scratch space without touching the CFG.

    ``body_source`` overrides the inlined code (used by unrolling, which
    inlines the loop's *saved original body* rather than the current,
    already-unrolled block).  The returned block carries ``hb``'s name but
    is not registered in the function.
    """
    scratch = hb.copy(hb.name)
    body = (body_source or target).copy(target.name)
    inline_block(func, scratch, target.name, body)
    return scratch
