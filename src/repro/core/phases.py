"""The paper's configurations, and the discrete unroll/peel passes some
of them run around formation.

Every configuration the paper measures is Figure 5's one algorithm
(:func:`~repro.core.convergent.form_module`) under three settings — the
merge policy, whether trials are optimized, whether head duplication is
allowed — which :data:`CONFIGURATIONS` lists, one row each.  Tables 1
and 3 compare phase orderings of **U**\\ nrolling, **P**\\ eeling,
**I**\\ f-conversion and scalar **O**\\ ptimization:

- ``BB`` — basic blocks as TRIPS blocks (the baseline; no row).
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

Table 2 compares block-selection heuristics: ``VLIW`` (Mahlke's
path-based selection after a basic-block unroll/peel prepass),
``Convergent VLIW`` (the same with optimized trials), ``DF`` and ``BF``
(depth- and breadth-first convergent formation).
:func:`compile_with_ordering` compiles a module under any of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.loops import Loop, LoopForest
from repro.core.constraints import TripsConstraints
from repro.core.convergent import attempt_merge, form_module
from repro.core.merge import FormationContext, MergeStats
from repro.core.policies import (
    BreadthFirstPolicy,
    DepthFirstPolicy,
    VLIWPolicy,
)
from repro.ir.function import Function, Module
from repro.opt.pipeline import optimize_module
from repro.profiles.data import ProfileData
from repro.robustness.guard import FormationReport, FunctionStatus
from repro.transform.loop_transforms import peel_loop, unroll_loop

#: Each configuration as ``(policy class, optimize_during,
#: allow_head_dup)``: the merge policy, whether every trial merge is
#: optimized, and whether formation may peel and unroll by merging loop
#: headers.
CONFIGURATIONS = {
    "UPIO": (BreadthFirstPolicy, False, False),
    "IUPO": (BreadthFirstPolicy, False, False),
    "(IUP)O": (BreadthFirstPolicy, False, True),
    "(IUPO)": (BreadthFirstPolicy, True, True),
    "VLIW": (VLIWPolicy, False, False),
    "Convergent VLIW": (VLIWPolicy, True, False),
    "DF": (DepthFirstPolicy, True, True),
    "BF": (BreadthFirstPolicy, True, True),
}

#: Configurations that unroll and peel the basic-block CFG before
#: formation (:func:`phase_unroll_peel_bb`).
BB_PREPASS = ("UPIO", "VLIW", "Convergent VLIW")

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
    stats: MergeStats,
) -> None:
    """UPIO's U/P, also the VLIW configurations' prepass: whole-body CFG
    duplication before if-conversion, counted into ``stats``.

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
                stats.peels += factors.peel
            if factors.unroll:
                unroll_loop(func, loop, factors.unroll)
                stats.unrolls += factors.unroll


def phase_unroll_peel_hyper(
    module: Module,
    profile: ProfileData,
    constraints: TripsConstraints,
    report: FormationReport,
) -> None:
    """IUPO's U/P: head-duplication against factors from measured sizes.

    Runs after if-conversion, so loop bodies are hyperblocks and their real
    sizes are known.  Peeling merges the header into its (unique) outside
    predecessor; unrolling merges single-block loops with themselves.  Each
    step is a trial transaction (:func:`attempt_merge`), so the
    scratch-space legality check is the capacity bound (paper: "the
    unroller has more accurate block counts and size estimates ... after
    if-conversion") and a failing trial is contained.  Trials are not
    optimized: IUPO optimizes once, at the end.

    Each function's counts and contained failures are folded into its
    entry in ``report``, the formation's report, and its counts into the
    report's totals.
    """
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
                if attempt_merge(ctx, entries[0][0], header) is None:
                    break
            for _ in range(factors.unroll):
                if attempt_merge(ctx, header, header) is None:
                    break
        func.remove_unreachable_blocks()
        entry = report.functions[func.name]
        entry.add(ctx.stats)
        report.add(ctx.stats)
        if ctx.failures:
            entry.failures.extend(ctx.failures)
            if entry.status is FunctionStatus.OK:
                entry.status = FunctionStatus.DEGRADED


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


def compile_with_ordering(
    module: Module,
    name: str,
    profile: ProfileData,
) -> FormationReport:
    """Compile ``module`` in place under one paper configuration: ``BB``
    or a :data:`CONFIGURATIONS` row, with the TRIPS limits, the row's
    unroll/peel prepass or postpass, and a final scalar optimization."""
    if name == "BB":
        return FormationReport()
    if name not in CONFIGURATIONS:
        raise ValueError(
            f"unknown ordering {name!r}; expected BB or one of "
            f"{tuple(CONFIGURATIONS)}"
        )
    policy, optimize_during, allow_head_dup = CONFIGURATIONS[name]
    constraints = TripsConstraints()
    prepass = MergeStats()
    if name in BB_PREPASS:
        phase_unroll_peel_bb(module, profile, constraints, prepass)
    report = form_module(
        module,
        profile=profile,
        policy=policy(),
        constraints=constraints,
        optimize_during=optimize_during,
        allow_head_dup=allow_head_dup,
    )
    if name == "UPIO":
        # Tables 1 and 3 count UPIO's discrete unrolls and peels; Table 2
        # counts only what formation did after the VLIW prepass.
        report.add(prepass)
    elif name == "IUPO":
        phase_unroll_peel_hyper(module, profile, constraints, report)
    optimize_module(module)
    return report
