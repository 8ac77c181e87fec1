"""``ExpandBlock`` and formation's one entry point, :func:`form_module`.

``expand_block`` follows Figure 5: keep a candidate set of successor
blocks, let the policy pick the best, try the merge, and on success add
the merged code's successors as new candidates.  Head duplication falls
out naturally: merging a loop header peels an iteration and re-adds the
header (another peel candidate); merging a block with itself across its
back edge unrolls an iteration and re-adds the block (another unroll
candidate).  Expansion stops when no candidate can be merged — the block
has converged on the structural constraints.

Formation is *fail-safe*: every trial is one transaction
(:func:`attempt_merge`), and :func:`form_module` returns a
:class:`~repro.robustness.guard.FormationReport`: the
:class:`~repro.core.merge.MergeStats` counters of the module, plus one
:class:`~repro.robustness.guard.FunctionReport` per function whose
status is ``ok``, ``degraded`` (some merges skipped after contained
failures) or ``failed_safe`` (the function was left as its
pre-formation CFG).

``form_module(probes=...)`` arms the differential-simulation oracle
(:mod:`repro.robustness.oracle`): the module is re-simulated over the
probes after each function forms, and a diverging function is rolled
back to its original CFG.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.dominators import reverse_postorder
from repro.core.merge import FormationContext, legal_merge, merge_blocks
from repro.core.policies import BreadthFirstPolicy, Candidate, MergePolicy
from repro.ir.function import Module
from repro.ir.verify import VerificationError, verify_function
from repro.obs.trace import span
from repro.profiles.data import ProfileData
from repro.robustness.guard import (
    FormationReport,
    FunctionReport,
    FunctionStatus,
    TrialFailure,
    adopt_function_state,
)

#: Candidates one expansion may pop before it stops, converged or not.
MAX_MERGES_PER_BLOCK = 512


def expand_block(
    ctx: FormationContext, policy: MergePolicy, hb_name: str
) -> int:
    """Grow the hyperblock seeded at ``hb_name``; return merges performed.

    Each trial is a transaction (:func:`attempt_merge`): a contained
    failure counts as a rejection, the ``(seed, candidate)`` pair is
    blacklisted, and expansion moves on to the next candidate.

    With a tracer on the context the expansion is an ``expand`` span: every
    candidate the policy selects is an ``offer`` event, and offers turned
    away before the trial carry a ``reject`` event naming why
    (``blacklisted``, ``policy``, ``illegal``).
    """
    func = ctx.func
    if hb_name not in func.blocks:
        return 0
    tracer = ctx.tracer
    with span(tracer, "expand", function=func.name, seed=hb_name) as expansion:
        policy.begin_block(ctx, hb_name)
        seq = 0
        candidates: list[Candidate] = []
        initial = policy.filter_new(
            ctx, hb_name, func.blocks[hb_name].successors()
        )
        for succ in initial:
            candidates.append(Candidate(succ, depth=1, seq=seq))
            seq += 1

        merges = 0
        attempts = 0
        while candidates and attempts < MAX_MERGES_PER_BLOCK:
            attempts += 1
            index = policy.select(ctx, hb_name, candidates)
            cand = candidates.pop(index)
            if tracer is not None:
                # `pending` (worklist size after this pop) is a pure
                # function of earlier decisions, so the flight recorder can
                # keep it: replay uses it to catch candidate-discovery drift
                # at the offer that first saw a different worklist.
                tracer.event(
                    "offer",
                    function=func.name,
                    hb=hb_name,
                    target=cand.name,
                    depth=cand.depth,
                    seq=cand.seq,
                    pending=len(candidates),
                )
            if (hb_name, cand.name) in ctx.blacklist:
                if tracer is not None:
                    tracer.event(
                        "reject",
                        function=func.name,
                        hb=hb_name,
                        target=cand.name,
                        reason="blacklisted",
                    )
                continue
            if not policy.admits(ctx, hb_name, cand):
                if tracer is not None:
                    tracer.event(
                        "reject",
                        function=func.name,
                        hb=hb_name,
                        target=cand.name,
                        reason="policy",
                        policy=policy.name,
                    )
                continue
            new_succs = attempt_merge(ctx, hb_name, cand.name)
            if new_succs is None:
                continue
            merges += 1
            for succ in policy.filter_new(ctx, hb_name, new_succs):
                candidates.append(
                    Candidate(succ, depth=cand.depth + 1, seq=seq)
                )
                seq += 1
        expansion.set(merges=merges)
    return merges


def attempt_merge(
    ctx: FormationContext, hb_name: str, cand_name: str
) -> Optional[list[str]]:
    """One merge trial as a transaction: ``legal_merge`` then
    ``merge_blocks``, rolled back if anything raises.

    Returns what ``merge_blocks`` would (the new candidate names on a
    committed merge, ``None`` on rejection), and also ``None`` when an
    exception was contained: the failure is recorded on
    ``ctx.failures``, the pair is blacklisted on ``ctx.blacklist`` so a
    deterministic crash cannot livelock formation, and the function is
    put back as it was before the trial.

    No trial mutates a committed block: the preview is scratch
    (``merge_preview`` copies both blocks), and a commit only swaps the
    hyperblock's dict entry for the preview and may delete the
    candidate's.  So the checkpoint keeps the pre-trial block *objects*,
    in order, and the saved unroll bodies; restoring them restores the
    function's blocks exactly, version stamps included.  The register
    frontier only grows and is harmless to leave.
    """
    func = ctx.func
    tracer = ctx.tracer
    blocks = func.blocks.copy()
    saved_bodies = ctx.saved_bodies.copy()
    if tracer is not None:
        tracer.event(
            "guard_checkpoint",
            function=func.name,
            hb=hb_name,
            target=cand_name,
            blocks=len(blocks),
        )
    try:
        kind = legal_merge(ctx, hb_name, cand_name)
        if kind is None:
            if tracer is not None:
                tracer.event(
                    "reject",
                    function=func.name,
                    hb=hb_name,
                    target=cand_name,
                    reason="illegal",
                )
            return None
        return merge_blocks(ctx, hb_name, cand_name, kind)
    except Exception as exc:
        ctx.failures.append(
            TrialFailure.from_exception(
                func, "trial", exc, seed=hb_name, candidate=cand_name
            )
        )
        ctx.blacklist.add((hb_name, cand_name))
        func.blocks = blocks
        func.touch()
        ctx.saved_bodies = saved_bodies
        # The restored blocks are the pre-trial objects under their
        # pre-trial stamps, so version-keyed facts (trial memo, use/kill
        # masks, block shapes, the optimizer's converged stamps) stay
        # valid; the structural analyses may have been patched for the
        # aborted commit, so they are rebuilt.
        ctx.invalidate()
        if tracer is not None:
            # Version stamps are read *after* the restore, so the instant
            # records the block versions now live in the function (the
            # pre-trial ones) — the timeline anchor a replay-divergence
            # dump links to.  Stamps are process-unique, which is why they
            # live here in the trace and never in the decision log itself.
            cand = func.blocks.get(cand_name)
            tracer.event(
                "guard_restore",
                function=func.name,
                hb=hb_name,
                target=cand_name,
                error_type=type(exc).__name__,
                error=str(exc)[:200],
                hb_version=func.blocks[hb_name].version,
                target_version=(
                    cand.version
                    if cand is not None and cand_name != hb_name
                    else None
                ),
            )
            tracer.event(
                "guard_blacklist",
                function=func.name,
                hb=hb_name,
                target=cand_name,
            )
        return None


def _form_function(ctx: FormationContext, policy: MergePolicy) -> FunctionReport:
    """Form hyperblocks over every reachable block of ``ctx.func``.

    Seeds are processed in reverse postorder of the evolving CFG: each
    reachable block not yet consumed by an earlier hyperblock becomes the
    seed of a new one.  Unreachable remnants are swept afterwards.

    Every trial is a transaction (:func:`attempt_merge`), the formed
    function must pass :func:`repro.ir.verify.verify_function`, and *any*
    escaping exception restores the pre-formation CFG and returns a
    ``failed_safe`` report instead of raising.
    """
    func = ctx.func
    faults = ctx.faults
    fired_mark = faults.fired_mark() if faults is not None else 0
    with span(ctx.tracer, "function", function=func.name) as function_span:
        original = func.copy()
        failures = ctx.failures
        try:
            processed: set[str] = set()
            while True:
                seed = _next_seed(ctx, processed)
                if seed is None:
                    break
                processed.add(seed)
                expand_block(ctx, policy, seed)
            func.remove_unreachable_blocks()
            ctx.stats.cache = ctx.cache_stats
            # Structural post-formation gate: broken IR must never leave
            # the driver, even if every individual trial looked fine.
            verify_function(func)
        except Exception as exc:
            stage = (
                "verify" if isinstance(exc, VerificationError) else "function"
            )
            failures.append(TrialFailure.from_exception(func, stage, exc))
            adopt_function_state(func, original)
            report = FunctionReport(
                function=func.name,
                status=FunctionStatus.FAILED_SAFE,
                failures=failures,
            )
        else:
            if faults is not None:
                failures.extend(
                    _fired_fault_failures(
                        func.name,
                        faults.fired_since(fired_mark, func.name),
                        failures,
                    )
                )
            status = FunctionStatus.DEGRADED if failures else FunctionStatus.OK
            report = FunctionReport(
                function=func.name, status=status, failures=failures
            )
            report.add(ctx.stats)
        function_span.set(status=report.status.value, merges=report.merges)
    return report


def _fired_fault_failures(
    func_name: str, fired, existing: list[TrialFailure]
) -> list[TrialFailure]:
    """Report entries for injected faults that did not raise (silent
    corruptions): a function a fault plane touched must never report
    ``ok``, or containment proofs could not tell "survived" from
    "missed"."""
    seen = {(f.fault_kind, f.seed, f.candidate) for f in existing}
    out = []
    for fault in fired:
        key = (fault.kind, fault.seed, fault.candidate)
        if key in seen:
            continue
        seen.add(key)
        out.append(
            TrialFailure(
                function=func_name,
                stage="fault",
                seed=fault.seed,
                candidate=fault.candidate,
                error_type="FiredFault",
                error=f"injected {fault.kind} fault",
                fault_kind=fault.kind,
            )
        )
    return out


def _next_seed(ctx: FormationContext, processed: set[str]) -> Optional[str]:
    """Hottest unprocessed reachable block (ties broken by RPO position).

    Hot regions are seeded first: letting a rarely executed block grow a
    hyperblock greedily can make it too large for the hot loop that
    contains it to absorb later.
    """
    func = ctx.func
    order = reverse_postorder(func, ctx.cfg)
    best: Optional[str] = None
    best_key = None
    for index, name in enumerate(order):
        if name in processed:
            continue
        key = (-ctx.profile.block_count(func.name, name), index)
        if best_key is None or key < best_key:
            best_key = key
            best = name
    return best


def form_module(
    module: Module,
    profile: Optional[ProfileData] = None,
    policy: Optional[MergePolicy] = None,
    constraints=None,
    optimize_during: bool = True,
    allow_head_dup: bool = True,
    probes: Optional[Sequence] = None,
    tracer=None,
    faults=None,
) -> FormationReport:
    """Run hyperblock formation over every function in the module: the
    one formation entry point.

    ``policy`` picks candidates (breadth-first by default);
    ``constraints``, ``optimize_during`` and ``allow_head_dup`` are the
    :class:`FormationContext` settings each function forms under.

    ``probes``, a sequence of
    :class:`~repro.robustness.oracle.BehaviorProbe` (workload inputs),
    arms the differential-simulation oracle: after each function forms,
    the module is re-run over the probes and compared with the
    pre-formation baseline, and a divergence rolls that function back
    (``failed_safe``).  The baseline is kept as the report's
    ``baseline``.

    ``tracer`` (a :class:`repro.obs.trace.Tracer`) records the run's
    decisions and ``faults`` (a
    :class:`repro.robustness.faultinject.FaultPlane`) perturbs its trials;
    both default to ``None`` and reach nothing but this run.
    """
    policy = policy or BreadthFirstPolicy()
    report = FormationReport()
    with span(tracer, "module", module=module.name) as module_span:
        if probes:
            from repro.robustness.oracle import (
                differential_check,
                snapshot_behavior,
            )

            probes = list(probes)
            report.baseline = snapshot_behavior(module, probes)
        for func in module:
            saved = func.copy() if probes else None
            ctx = FormationContext(
                func,
                profile=profile,
                constraints=constraints,
                optimize_during=optimize_during,
                allow_head_dup=allow_head_dup,
                tracer=tracer,
                faults=faults,
            )
            freport = _form_function(ctx, policy)
            if probes and freport.status is not FunctionStatus.FAILED_SAFE:
                with span(tracer, "oracle", function=func.name):
                    check = differential_check(
                        module, module, probes=probes,
                        baseline=report.baseline,
                    )
                if not check.ok:
                    adopt_function_state(func, saved)
                    failures = list(freport.failures)
                    failures.append(
                        TrialFailure(
                            function=func.name,
                            stage="oracle",
                            error_type="OracleDivergence",
                            error=check.describe(),
                        )
                    )
                    freport = FunctionReport(
                        function=func.name,
                        status=FunctionStatus.FAILED_SAFE,
                        failures=failures,
                    )
            report.add_function(freport)
        module_span.set(merges=report.merges)
    return report
