"""CFG transformation mechanisms: if-conversion, duplication, unroll/peel."""

from repro.transform.duplicate import duplicate_region
from repro.transform.ifconvert import MergeError, inline_block, merge_preview
from repro.transform.loop_transforms import peel_loop, unroll_loop
from repro.transform.predicates import PredicateBuilder
from repro.transform.split import SplitError, split_block

__all__ = [
    "MergeError",
    "PredicateBuilder",
    "duplicate_region",
    "inline_block",
    "merge_preview",
    "peel_loop",
    "unroll_loop",
    "SplitError",
    "split_block",
]
