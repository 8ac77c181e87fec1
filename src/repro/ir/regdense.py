"""Register numbering: the renumber pass.

The bitmask dataflow engine (:mod:`repro.ir.regmask`) indexes masks by
register number, so its cost is proportional to the *largest* register
number a function uses, not to how many registers it has.  Functions
built through :class:`repro.ir.builder.FunctionBuilder` or grown by the
transforms are dense by construction — ``Function.new_reg`` hands out
sequential numbers — but externally parsed IR (``repro.ir.textparse``)
may name registers sparsely (``v7``, ``v900``).

``Function.next_reg`` is the per-function allocation frontier: the
next register number ``Function.new_reg`` hands out, above every name
the function uses.  Names are never renamed or reused, so printed IR is
stable across merges.

:func:`renumber_registers` is the normalization pass: it rewrites a
function to first-appearance dense numbering (the order the printer
emits operands), returning the mapping.  On IR that is already dense in
appearance order — everything the builder or the frontend produces — the
mapping is the identity and the printed function is unchanged byte for
byte, which the round-trip tests pin on every SPEC workload.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.instruction import Predicate

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.function import Function


def renumber_registers(func: "Function") -> dict[int, int]:
    """Rewrite ``func`` to dense first-appearance register numbering.

    Appearance order follows the printer: parameters first, then per
    instruction the destination, the sources, and the predicate register,
    over blocks in printed order (entry first, then insertion order).  On
    already-dense IR in that order the mapping is the identity and the
    function is untouched (no version bumps); otherwise every instruction
    is rewritten in place and blocks are re-stamped.

    Returns the ``old name -> dense name`` mapping.
    """
    mapping: dict[int, int] = {}

    def intern(reg: int) -> None:
        if reg not in mapping:
            mapping[reg] = len(mapping)

    for reg in func.params:
        intern(reg)
    names = list(func.blocks)
    if func.entry in names:
        names.remove(func.entry)
        names.insert(0, func.entry)
    for name in names:
        for instr in func.blocks[name].instrs:
            if instr.dest is not None:
                intern(instr.dest)
            for reg in instr.srcs:
                intern(reg)
            if instr.pred is not None:
                intern(instr.pred.reg)

    if all(old == new for old, new in mapping.items()):
        # Already dense in appearance order; leave versions untouched so
        # analysis caches survive.
        return mapping

    func.params = [mapping[reg] for reg in func.params]
    for name in names:
        block = func.blocks[name]
        for instr in block.instrs:
            if instr.dest is not None:
                instr.dest = mapping[instr.dest]
            if instr.srcs:
                instr.srcs = tuple(mapping[reg] for reg in instr.srcs)
            pred = instr.pred
            if pred is not None:
                instr.pred = Predicate(mapping[pred.reg], pred.sense)
        block.touch()

    func.next_reg = len(mapping)
    func.touch()
    return mapping
