"""Block splitting: cut one block into two sequential blocks.

Used by the backend's reverse if-conversion, when spill code overflows a
block.

The cut may not strand a branch in the first half — the first half ends
with a new unconditional branch and exactly one branch may fire per block
execution — so the split position is clamped to the first branch.
"""

from __future__ import annotations

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.ir.opcodes import Opcode


class SplitError(Exception):
    """Raised when a block cannot be split (no legal cut point)."""


def split_block(func: Function, name: str) -> tuple[str, str]:
    """Split ``name`` halfway, or at its first branch if that comes first.

    Returns ``(first, second)`` block names; the second is freshly created.
    """
    block = func.blocks[name]
    if len(block) < 2:
        raise SplitError(f"{name}: too small to split")
    first_branch = next(
        (i for i, instr in enumerate(block.instrs) if instr.is_branch),
        len(block),
    )
    cut = min(len(block) // 2, first_branch)
    if cut < 1:
        # The block begins with a branch: the first half would hold both
        # that branch and the new unconditional one - no legal cut exists.
        raise SplitError(f"{name}: a branch pins the cut to position 0")

    tail_name = func.new_block_name(name, tag="s")
    tail = BasicBlock(tail_name, block.instrs[cut:])
    block.instrs = block.instrs[:cut]
    block.append(Instruction(Opcode.BR, target=tail_name))
    func.add_block(tail)
    return name, tail_name
