"""Phase-ordering drivers: the paper's Table 1/3 configurations.

Each driver compiles a module with one ordering of **U**\\ nrolling,
**P**\\ eeling, **I**\\ f-conversion and scalar **O**\\ ptimization:

- ``BB`` — basic blocks as TRIPS blocks (the baseline).
- ``UPIO`` — discrete unroll/peel on the basic-block CFG (factors chosen
  from *pre-if-conversion* size estimates), then incremental acyclic
  if-conversion with tail duplication, then scalar optimizations.
- ``IUPO`` — if-conversion first, then discrete unroll/peel with accurate
  post-if-conversion sizes (implemented with head duplication against a
  precomputed factor), then optimizations.
- ``(IUP)O`` — convergent formation with head duplication integrated
  (per-iteration legality decisions) but optimization only at the end.
- ``(IUPO)`` — the full convergent algorithm: optimization inside every
  trial merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.loops import Loop, LoopForest
from repro.core.constraints import TripsConstraints
from repro.core.convergent import form_module
from repro.core.merge import (
    FormationContext,
    MergeStats,
    legal_merge,
    merge_blocks,
)
from repro.core.policies import BreadthFirstPolicy
from repro.ir.function import Function, Module
from repro.opt.pipeline import optimize_module
from repro.profiles.data import ProfileData
from repro.transform.loop_transforms import peel_loop, unroll_loop

ORDERINGS = ("BB", "UPIO", "IUPO", "(IUP)O", "(IUPO)")


@dataclass
class LoopFactors:
    """Chosen duplication amounts for one loop."""

    peel: int = 0
    unroll: int = 0


#: Never peel more than this many iterations.
PEEL_LIMIT = 4
#: Fraction of a loop's visits the peeled iterations must cover.
PEEL_COVERAGE = 0.5
#: Most extra iterations an unroll appends.
UNROLL_CAP = 7


def choose_factors(
    func: Function,
    loop: Loop,
    profile: ProfileData,
    constraints: TripsConstraints,
    body_size: int,
    ignore_capacity: bool = False,
) -> LoopFactors:
    """Pick peel/unroll factors for one loop from its trip-count profile.

    ``body_size`` is the caller's estimate of one iteration's instruction
    footprint — a basic-block sum for UPIO (inaccurate) or the measured
    hyperblock size for IUPO (accurate).  UPIO bounds the factors by how
    many copies of ``body_size`` fit a block; IUPO passes
    ``ignore_capacity`` and validates each appended iteration with the
    scratch-space legality check instead, so only :data:`UNROLL_CAP`
    bounds it.
    """
    factors = LoopFactors()
    header = loop.header
    trips = profile.expected_trips(func.name, header)
    if trips <= 0 or body_size <= 0:
        return factors
    iterations = max(trips - 1.0, 0.0)  # header executions include exit test
    common_iters = max(profile.common_trip_count(func.name, header) - 1, 0)

    if ignore_capacity:
        capacity = UNROLL_CAP
    else:
        capacity = max(constraints.max_instructions // body_size - 1, 0)

    if (
        0 < common_iters <= PEEL_LIMIT
        and profile.trip_count_coverage(func.name, header, common_iters + 1)
        >= PEEL_COVERAGE
    ):
        factors.peel = min(common_iters, capacity)
    if iterations > common_iters + 1 or factors.peel == 0:
        factors.unroll = int(min(max(iterations - 1, 0), capacity, UNROLL_CAP))
    return factors


# ---------------------------------------------------------------------------
# Discrete phases
# ---------------------------------------------------------------------------


def phase_unroll_peel_bb(
    module: Module,
    profile: ProfileData,
    constraints: TripsConstraints,
    stats: Optional[MergeStats] = None,
) -> None:
    """UPIO's U/P: whole-body CFG duplication before if-conversion.

    This phase carries the two inaccuracies the paper attributes to
    pre-if-conversion unrolling:

    - factors are sized from the *hot path* through the loop (the classic
      trace-era estimate), which underestimates the real post-if-conversion
      footprint of an iteration (cold blocks get merged too, and
      predication adds instructions), so the chosen factors over-duplicate;
    - peeling is applied only to single-block loops — profile-driven
      peeling of while loops with internal control flow is exactly what
      requires head duplication.
    """
    for func in module:
        forest = LoopForest(func)
        for loop in forest.all_loops_innermost_first():
            if any(func.blocks[b].has_call() for b in loop.blocks):
                continue
            header_count = max(
                profile.block_count(func.name, loop.header), 1
            )
            body_size = sum(
                len(func.blocks[b])
                for b in loop.blocks
                if profile.block_count(func.name, b) * 2 >= header_count
            )
            factors = choose_factors(
                func, loop, profile, constraints, body_size
            )
            if factors.peel and len(loop.blocks) == 1:
                peel_loop(func, loop, factors.peel)
                if stats is not None:
                    stats.peels += factors.peel
            if factors.unroll:
                unroll_loop(func, loop, factors.unroll)
                if stats is not None:
                    stats.unrolls += factors.unroll


def phase_unroll_peel_hyper(
    module: Module,
    profile: ProfileData,
    constraints: TripsConstraints,
) -> MergeStats:
    """IUPO's U/P: head-duplication against factors from measured sizes.

    Runs after if-conversion, so loop bodies are hyperblocks and their real
    sizes are known.  Peeling merges the header into its (unique) outside
    predecessor; unrolling merges single-block loops with themselves.  Each
    step still goes through the scratch-space legality check, which is
    therefore the capacity bound (paper: "the unroller has more accurate
    block counts and size estimates ... after if-conversion").  Trials
    are not optimized: IUPO optimizes once, at the end.
    """
    stats = MergeStats()
    for func in module:
        ctx = FormationContext(
            func,
            profile=profile,
            constraints=constraints,
            optimize_during=False,
            allow_head_dup=True,
        )
        for header in [l.header for l in LoopForest(func).all_loops_innermost_first()]:
            loop = ctx.loops.loop_of_header(header)
            if loop is None:
                continue
            body_size = sum(len(func.blocks[b]) for b in loop.blocks)
            factors = choose_factors(
                func, loop, profile, constraints, body_size,
                ignore_capacity=True,
            )
            for _ in range(factors.peel):
                entries = loop.entry_edges(ctx.cfg)
                if len({pred for pred, _ in entries}) != 1:
                    break
                pred = entries[0][0]
                kind = legal_merge(ctx, pred, header)
                if kind is None:
                    break
                if merge_blocks(ctx, pred, header, kind) is None:
                    break
            for _ in range(factors.unroll):
                kind = legal_merge(ctx, header, header)
                if kind is None:
                    break
                if merge_blocks(ctx, header, header, kind) is None:
                    break
        stats.add(ctx.stats)
        func.remove_unreachable_blocks()
    return stats


# ---------------------------------------------------------------------------
# Orderings
# ---------------------------------------------------------------------------


def compile_with_ordering(
    module: Module,
    ordering: str,
    profile: ProfileData,
) -> MergeStats:
    """Compile ``module`` in place under one of :data:`ORDERINGS`, with
    the TRIPS limits and the breadth-first policy."""
    constraints = TripsConstraints()
    policy = BreadthFirstPolicy()
    stats = MergeStats()

    if ordering == "BB":
        return stats

    if ordering == "UPIO":
        phase_unroll_peel_bb(module, profile, constraints, stats)
        stats.add(
            form_module(
                module,
                profile=profile,
                policy=policy,
                constraints=constraints,
                optimize_during=False,
                allow_head_dup=False,
            )
        )
        optimize_module(module)
        return stats

    if ordering == "IUPO":
        stats.add(
            form_module(
                module,
                profile=profile,
                policy=policy,
                constraints=constraints,
                optimize_during=False,
                allow_head_dup=False,
            )
        )
        stats.add(phase_unroll_peel_hyper(module, profile, constraints))
        optimize_module(module)
        return stats

    if ordering == "(IUP)O":
        stats.add(
            form_module(
                module,
                profile=profile,
                policy=policy,
                constraints=constraints,
                optimize_during=False,
                allow_head_dup=True,
            )
        )
        optimize_module(module)
        return stats

    if ordering == "(IUPO)":
        stats.add(
            form_module(
                module,
                profile=profile,
                policy=policy,
                constraints=constraints,
                optimize_during=True,
                allow_head_dup=True,
            )
        )
        optimize_module(module)
        return stats

    raise ValueError(f"unknown ordering {ordering!r}; expected one of {ORDERINGS}")
