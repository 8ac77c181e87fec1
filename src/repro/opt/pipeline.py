"""Whole-function/module scalar optimization driver (the ``O`` phase)."""

from __future__ import annotations

from repro.analysis.liveness import Liveness
from repro.ir.function import Function, Module
from repro.opt.gvn import global_value_numbering
from repro.opt.local import optimize_block


def optimize_function(func: Function, max_rounds: int = 3) -> bool:
    """Optimize every block of ``func``; returns whether anything changed.

    Liveness is recomputed between rounds because DCE in one block can kill
    liveness (and thus expose more DCE) in its predecessors.  The loop ends
    at the first round in which global value numbering rewrites nothing and
    no ``optimize_block`` call reports a change.  A block whose passes only
    rewrite one copy back and forth reports none (see ``optimize_block``),
    so it does not keep the function looping: every later round would find
    the same function again.
    """
    changed_any = False
    for _ in range(max_rounds):
        changed = global_value_numbering(func) > 0
        live = Liveness(func)
        for name, block in func.blocks.items():
            changed |= optimize_block(block, live.live_out[name])
        changed_any |= changed
        if not changed:
            break
    return changed_any


def optimize_module(module: Module, max_rounds: int = 3) -> bool:
    changed = False
    for func in module:
        changed |= optimize_function(func, max_rounds=max_rounds)
    return changed
