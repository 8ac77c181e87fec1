"""TRIPS-like assembly emission (target form).

EDGE ISAs encode *targets*, not sources: an instruction names the
instructions that consume its result.  The emitter prints each block in
that form, annotated with the block header information the hardware needs
(register reads/writes, store mask, placement coordinates), e.g.::

    .bbegin main$wh1
      read  R4 -> N2.op1, N5.op2
      N2  [E0,0] tlt  -> N3.p
      N3  [E1,0] add_p<t> #1 -> W1
      ...
    .bend

This is a presentation format for humans and tests, not a bit-accurate
encoding.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.depgraph import dep_preds
from repro.analysis.predimpl import exposed_mask
from repro.backend.scheduler import GridScheduler, Placement
from repro.ir.block import BasicBlock
from repro.ir.function import Function, Module
from repro.ir.opcodes import Opcode


def _targets_of(
    block: BasicBlock, preds: list[tuple[int, ...]]
) -> dict[int, list[str]]:
    """instruction index -> list of target annotations ("N5.op1", ...)."""
    targets: dict[int, list[str]] = {i: [] for i in range(len(block.instrs))}
    for consumer, producer_list in enumerate(preds):
        instr = block.instrs[consumer]
        pred_reg = instr.pred.reg if instr.pred is not None else None
        for producer in producer_list:
            produced = block.instrs[producer].dest
            label = None
            for op_index, reg in enumerate(instr.srcs):
                if reg == produced:
                    label = f"N{consumer}.op{op_index}"
                    break
            if label is None and produced == pred_reg:
                label = f"N{consumer}.p"
            if label is None:
                label = f"N{consumer}.mem"
            targets[producer].append(label)
    return targets


def format_block_assembly(
    func: Function,
    block: BasicBlock,
    placement: Optional[Placement] = None,
) -> str:
    """Emit one block in target form."""
    lines = [f".bbegin {func.name}${block.name}"]
    # Block header: register reads (upward-exposed) and writes.
    reads = exposed_mask(block).bit_count()
    writes = block.def_mask().bit_count()
    lines.append(f"  ; reads={reads} writes={writes} "
                 f"size={len(block)}")
    preds = placement.preds if placement is not None else dep_preds(block)
    targets = _targets_of(block, preds)
    lsid = 0
    for index, instr in enumerate(block.instrs):
        mnemonic = instr.op.value
        if instr.pred is not None:
            mnemonic += "_p<t>" if instr.pred.sense else "_p<f>"
        where = ""
        if placement is not None and instr.uid in placement.slots:
            x, y, slot = placement.slots[instr.uid]
            where = f"[E{x}{y},{slot}] "
        operands = []
        if instr.imm is not None:
            operands.append(f"#{instr.imm}")
        if instr.op is Opcode.BR:
            operands.append(instr.target)
        if instr.op is Opcode.CALL:
            operands.append(f"@{instr.callee}")
        if instr.is_memory:
            operands.append(f"L[{lsid}]")
            lsid += 1
        tgt = ", ".join(targets.get(index, [])) or (
            f"W{instr.dest}" if instr.dest is not None else "-"
        )
        body = " ".join(filter(None, [mnemonic, " ".join(operands)]))
        lines.append(f"  N{index:<3d} {where}{body} -> {tgt}")
    lines.append(".bend")
    return "\n".join(lines)


def emit_assembly(
    module: Module,
    placements: Optional[dict[str, dict[str, Placement]]] = None,
) -> str:
    """Emit the whole module as TRIPS-like assembly text.

    ``placements`` (function -> block -> placement of the blocks as they
    stand, as ``compile_backend`` computes them) are printed as given;
    without them each block is placed on the 128-slot execution array.
    Either way a block that does not fit that array raises ``ValueError``.
    """
    scheduler = GridScheduler()
    parts = []
    for func in module:
        parts.append(f";;; function @{func.name}")
        for block in func.blocks.values():
            if placements is None:
                placement = scheduler.schedule_block(block)
            else:
                scheduler.check_fits(block)
                placement = placements[func.name][block.name]
            parts.append(format_block_assembly(func, block, placement))
    return "\n".join(parts)
