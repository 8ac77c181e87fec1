"""Intra-block dataflow dependence graphs and dependence height.

Used by the VLIW block-selection heuristic (static schedule height, kept
on each block's per-version shape by :func:`dependence_height`) and by
the backend: ``scheduler.py`` places instructions in dependence order and
``assembly.py`` prints each instruction's consumers as its targets.

Dependence rules:

- A consumer of register ``r`` depends on every *active* writer of ``r``:
  an unpredicated write kills earlier writers; predicated writes accumulate
  (any of them may be the one that executes).
- The predicate register is an ordinary input.
- Stores are serialized among themselves (TRIPS assigns LSIDs in order);
  loads are treated as speculative and do not wait on earlier stores,
  matching the TRIPS load/store queue's optimistic disambiguation.
"""

from __future__ import annotations

from repro.ir.block import BasicBlock
from repro.ir.opcodes import Opcode


def dep_preds(block: BasicBlock) -> list[tuple[int, ...]]:
    """For each instruction index, the indices it depends on."""
    writers: dict[int, list[int]] = {}
    last_store: int | None = None
    result: list[tuple[int, ...]] = []
    for i, instr in enumerate(block.instrs):
        deps: set[int] = set()
        for reg in instr.uses():
            deps.update(writers.get(reg, ()))
        if instr.op is Opcode.STORE:
            if last_store is not None:
                deps.add(last_store)
            last_store = i
        result.append(tuple(sorted(deps)))
        if instr.dest is not None:
            if instr.pred is None:
                writers[instr.dest] = [i]
            else:
                writers.setdefault(instr.dest, []).append(i)
    return result


def completion_depths(block: BasicBlock) -> list[int]:
    """Earliest completion cycle of each instruction, ignoring issue width.

    Depth of an instruction = max over dependence predecessors of their
    completion depth, plus its own latency.  Register inputs from outside
    the block are assumed ready at cycle 0.
    """
    preds = dep_preds(block)
    depths: list[int] = []
    for i, instr in enumerate(block.instrs):
        start = 0
        for p in preds[i]:
            if depths[p] > start:
                start = depths[p]
        depths.append(start + instr.latency)
    return depths


def dependence_height(block: BasicBlock) -> int:
    """Critical-path length through the block's dataflow graph, in cycles.

    This is the quantity the classical VLIW heuristic minimizes: on a
    statically scheduled machine the longest path bounds the block's
    schedule length even if that path is never taken at run time.  It is
    computed once per block version and kept on the block's
    :class:`~repro.ir.block.BlockShape`.
    """
    shape = block.shape()
    height = shape.height
    if height is None:
        depths = completion_depths(block)
        height = shape.height = max(depths) if depths else 0
    return height


def path_dependence_height(blocks: list[BasicBlock]) -> int:
    """Dependence height of a path of blocks, chained sequentially.

    An over-approximation (assumes no overlap between consecutive blocks),
    which is what a VLIW path-priority computation wants: paths are compared
    against each other with the same assumption.
    """
    return sum(dependence_height(b) for b in blocks)
