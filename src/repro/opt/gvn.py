"""Dominator-based global value numbering.

The paper's ``Optimize`` step "applies dominator-based global value
numbering and predicate optimizations" [24, 25].  The block-local pass in
:mod:`repro.opt.local` covers redundancy *within* a hyperblock; this pass
removes redundancy *across* blocks: a pure computation in a dominated
block whose operands provably hold the same values as an identical
computation in a dominator becomes a copy.

The IR is not SSA, so "same values" needs care.  This implementation uses
the quasi-SSA subset: a register with exactly one static definition in
the function holds one value everywhere that definition dominates.  A
computation is reusable when

- it is pure (no loads — no memory versioning across blocks here),
- it and the dominating occurrence are unpredicated,
- every source register is single-def in the function, and
- the dominating occurrence's destination is single-def too.

Front-end temporaries are almost all single-def, so this catches the
common cross-block redundancy (re-computed addresses, re-materialized
subexpressions) while staying trivially sound.
"""

from __future__ import annotations

from repro.analysis.dominators import DominatorTree
from repro.ir.function import Function, Module
from repro.ir.instruction import Instruction
from repro.ir.opcodes import COMMUTATIVE_OPS, Opcode


def _def_counts(func: Function) -> dict[int, int]:
    counts: dict[int, int] = {}
    for instr in func.instructions():
        if instr.dest is not None:
            counts[instr.dest] = counts.get(instr.dest, 0) + 1
    return counts


def _key(instr: Instruction):
    srcs = instr.srcs
    if instr.op in COMMUTATIVE_OPS and len(srcs) == 2 and srcs[0] > srcs[1]:
        srcs = (srcs[1], srcs[0])
    return (instr.op, srcs, instr.imm)


def global_value_numbering(func: Function) -> int:
    """Replace dominated redundant computations with copies.

    Returns the number of instructions rewritten.
    """
    if func.entry is None:
        return 0
    dom = DominatorTree(func)
    counts_get = _def_counts(func).get

    def single_def(reg: int) -> bool:
        return counts_get(reg, 0) <= 1

    rewritten = 0
    #: value key -> register holding it (scoped by dom-tree recursion)
    table: dict = {}

    def visit(block_name: str) -> None:
        nonlocal rewritten
        block = func.blocks[block_name]
        changed = False
        added: list = []
        for instr in block.instrs:
            eligible = (
                instr.is_pure
                and instr.op is not Opcode.MOVI
                and instr.op is not Opcode.MOV
                and instr.dest is not None
                and instr.pred is None
                and all(single_def(s) for s in instr.srcs)
            )
            if not eligible:
                continue
            key = _key(instr)
            available = table.get(key)
            if available is not None and available != instr.dest:
                instr.op = Opcode.MOV
                instr.srcs = (available,)
                instr.imm = None
                rewritten += 1
                changed = True
            elif available is None and single_def(instr.dest):
                table[key] = instr.dest
                added.append(key)
        if changed:
            # Rewrites mutate instructions in place; re-stamp so the
            # version-keyed analysis caches cannot serve the old block.
            block.touch()
        for child in dom.children.get(block_name, []):
            visit(child)
        for key in added:
            del table[key]

    # Iterative dominator-tree walk to avoid recursion limits.
    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * len(func.blocks) + 100))
    try:
        visit(func.entry)
    finally:
        sys.setrecursionlimit(old_limit)
    return rewritten


def global_value_numbering_module(module: Module) -> int:
    return sum(global_value_numbering(func) for func in module)
