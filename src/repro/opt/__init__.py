"""Scalar optimization: the Optimize step of Figure 5 and the O phase."""

from repro.opt.gvn import global_value_numbering
from repro.opt.local import (
    eliminate_dead_code,
    fold_moves,
    implicit_predication,
    optimize_block,
    propagate_and_fold,
    value_number,
)
from repro.opt.pipeline import optimize_function, optimize_module

__all__ = [
    "eliminate_dead_code",
    "global_value_numbering",
    "fold_moves",
    "implicit_predication",
    "optimize_block",
    "optimize_function",
    "optimize_module",
    "propagate_and_fold",
    "value_number",
]
