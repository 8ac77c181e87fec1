"""``ExpandBlock`` and the whole-function/module formation drivers.

``expand_block`` follows Figure 5: keep a candidate set of successor
blocks, let the policy pick the best, try the merge, and on success add
the merged code's successors as new candidates.  Head duplication falls
out naturally: merging a loop header peels an iteration and re-adds the
header (another peel candidate); merging a block with itself across its
back edge unrolls an iteration and re-adds the block (another unroll
candidate).  Expansion stops when no candidate can be merged — the block
has converged on the structural constraints.

Formation is *fail-safe* by default (``failsafe=True``): every trial runs
through a transactional :class:`~repro.robustness.guard.TrialGuard`, and
the drivers return :class:`~repro.robustness.guard.FunctionReport` /
:class:`~repro.robustness.guard.FormationReport` objects whose per-function
status is ``ok``, ``degraded`` (some merges skipped after contained
failures) or ``failed_safe`` (the function was left as its pre-formation
CFG).  Both report types proxy the :class:`MergeStats` counters, so code
that only reads ``merges``/``mtup``/``attempts`` keeps working unchanged.

``selfcheck`` arms the differential-simulation oracle
(:mod:`repro.robustness.oracle`): ``"function"`` re-simulates the module
after each function forms and rolls a diverging function back to its
original CFG; ``"commit"`` gates *every committed merge* behind the
verifier and the oracle (orders of magnitude slower — a debugging mode).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.analysis.dominators import reverse_postorder
from repro.core.merge import FormationContext, MergeStats, legal_merge, merge_blocks
from repro.core.policies import BreadthFirstPolicy, Candidate, MergePolicy
from repro.ir.function import Function, Module
from repro.ir.verify import VerificationError, verify_function
from repro.profiles.data import ProfileData
from repro.robustness.guard import (
    FormationReport,
    FunctionReport,
    FunctionStatus,
    TrialFailure,
    TrialGuard,
    adopt_function_state,
)


def expand_block(
    ctx: FormationContext, policy: MergePolicy, hb_name: str
) -> int:
    """Grow the hyperblock seeded at ``hb_name``; return merges performed.

    With ``ctx.guard`` set, each trial is transactional: a contained
    failure counts as a rejection, the ``(seed, candidate)`` pair is
    blacklisted, and expansion moves on to the next candidate.

    With a tracer on the context the expansion is an ``expand`` span: every
    candidate the policy selects is an ``offer`` event, and offers turned
    away before the trial carry a ``reject`` event naming why
    (``blacklisted``, ``policy``, ``illegal``).
    """
    if hb_name not in ctx.func.blocks:
        return 0
    tracer = ctx.tracer
    if tracer is None:
        return _expand_block(ctx, policy, hb_name, None)
    with tracer.span(
        "expand", function=ctx.func.name, seed=hb_name
    ) as span:
        merges = _expand_block(ctx, policy, hb_name, tracer)
        span.set(merges=merges)
        return merges


def _expand_block(
    ctx: FormationContext, policy: MergePolicy, hb_name: str, tracer
) -> int:
    func = ctx.func
    policy.begin_block(ctx, hb_name)
    seq = 0
    candidates: list[Candidate] = []
    initial = policy.filter_new(
        ctx, hb_name, func.blocks[hb_name].successors()
    )
    for succ in initial:
        candidates.append(Candidate(succ, depth=1, seq=seq))
        seq += 1

    guard = ctx.guard
    merges = 0
    attempts = 0
    limit = ctx.max_merges_per_block
    while candidates and attempts < limit:
        attempts += 1
        index = policy.select(ctx, hb_name, candidates)
        cand = candidates.pop(index)
        if tracer is not None:
            # `pending` (worklist size after this pop) is a pure function
            # of earlier decisions, so the flight recorder can keep it:
            # replay uses it to catch candidate-discovery drift at the
            # offer that first saw a different worklist.
            tracer.event(
                "offer",
                function=func.name,
                hb=hb_name,
                target=cand.name,
                depth=cand.depth,
                seq=cand.seq,
                pending=len(candidates),
            )
        if guard is not None and guard.blocked(func.name, hb_name, cand.name):
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
        if guard is None:
            kind = legal_merge(ctx, hb_name, cand.name)
            if kind is None:
                if tracer is not None:
                    tracer.event(
                        "reject",
                        function=func.name,
                        hb=hb_name,
                        target=cand.name,
                        reason="illegal",
                    )
                continue
            new_succs = merge_blocks(ctx, hb_name, cand.name, kind)
        else:
            new_succs = guard.attempt(ctx, hb_name, cand.name)
        if new_succs is None:
            continue
        merges += 1
        for succ in policy.filter_new(ctx, hb_name, new_succs):
            candidates.append(Candidate(succ, depth=cand.depth + 1, seq=seq))
            seq += 1
    return merges


def form_function(
    func: Function,
    profile: Optional[ProfileData] = None,
    policy: Optional[MergePolicy] = None,
    constraints=None,
    optimize_during: bool = True,
    allow_head_dup: bool = True,
    failsafe: bool = True,
    post_commit: Optional[Callable] = None,
    tracer=None,
    faults=None,
) -> FunctionReport:
    """Form hyperblocks over every reachable block of ``func``.

    Seeds are processed in reverse postorder of the evolving CFG: each
    reachable block not yet consumed by an earlier hyperblock becomes the
    seed of a new one.  Unreachable remnants are swept afterwards.

    With ``failsafe`` (the default) every trial is guarded, the formed
    function must pass :func:`repro.ir.verify.verify_function`, and *any*
    escaping exception restores the pre-formation CFG and returns a
    ``failed_safe`` report instead of raising.  ``failsafe=False`` restores
    the raw propagate-everything behavior.

    ``tracer`` (a :class:`repro.obs.trace.Tracer`) records the run's
    decisions and ``faults`` (a
    :class:`repro.robustness.faultinject.FaultPlane`) perturbs its trials;
    both default to ``None`` and reach nothing but this run.
    """
    args = (
        func, profile, policy, constraints, optimize_during, allow_head_dup,
        failsafe, post_commit, tracer, faults,
    )
    if tracer is None:
        return _form_function_impl(*args)
    with tracer.span("function", function=func.name) as span:
        report = _form_function_impl(*args)
        span.set(status=report.status.value, merges=report.stats.merges)
        return report


def _form_function_impl(
    func: Function,
    profile: Optional[ProfileData],
    policy: Optional[MergePolicy],
    constraints,
    optimize_during: bool,
    allow_head_dup: bool,
    failsafe: bool,
    post_commit: Optional[Callable],
    tracer,
    faults,
) -> FunctionReport:
    policy = policy or BreadthFirstPolicy()
    guard = TrialGuard() if failsafe else None
    fired_mark = faults.fired_mark() if faults is not None else 0
    original = func.copy() if guard is not None else None
    try:
        ctx = FormationContext(
            func,
            profile=profile,
            constraints=constraints,
            optimize_during=optimize_during,
            allow_head_dup=allow_head_dup,
            guard=guard,
            post_commit=post_commit,
            tracer=tracer,
            faults=faults,
        )
        processed: set[str] = set()
        while True:
            seed = _next_seed(ctx, processed)
            if seed is None:
                break
            processed.add(seed)
            expand_block(ctx, policy, seed)
        func.remove_unreachable_blocks()
        ctx.stats.cache = ctx.cache_stats
        if guard is not None:
            # Structural post-formation gate: broken IR must never leave
            # the driver, even if every individual trial looked fine.
            verify_function(func)
    except Exception as exc:
        if guard is None:
            raise
        stage = "verify" if isinstance(exc, VerificationError) else "function"
        failures = guard.failures_for(func.name)
        failures.append(TrialFailure.from_exception(func, stage, exc))
        adopt_function_state(func, original)
        return FunctionReport(
            func.name,
            FunctionStatus.FAILED_SAFE,
            MergeStats(),
            failures,
        )
    failures = guard.failures_for(func.name) if guard is not None else []
    if faults is not None:
        failures.extend(
            _fired_fault_failures(
                func.name, faults.fired_since(fired_mark, func.name), failures
            )
        )
    status = FunctionStatus.DEGRADED if failures else FunctionStatus.OK
    return FunctionReport(func.name, status, ctx.stats, failures)


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
    failsafe: bool = True,
    selfcheck: Optional[str] = None,
    oracle_probes: Optional[Sequence] = None,
    tracer=None,
    faults=None,
) -> FormationReport:
    """Run hyperblock formation over every function in the module.

    ``selfcheck`` arms the differential-simulation oracle:

    - ``"function"`` — after each function forms, re-run the module over
      the oracle probes and compare against the pre-formation baseline; a
      divergence rolls that function back (``failed_safe``);
    - ``"commit"`` — additionally gate every committed merge behind
      ``verify_function`` plus the oracle (debugging mode: very slow, but
      pins a wrong-code bug to the exact merge that introduced it).

    ``oracle_probes`` is a sequence of
    :class:`~repro.robustness.oracle.BehaviorProbe` (workload inputs);
    without it, probes are derived from ``main``'s arity.

    ``tracer`` and ``faults`` are the run's tracer and fault plane, as
    for :func:`form_function`.
    """
    args = (
        module, profile, policy, constraints, optimize_during,
        allow_head_dup, failsafe, selfcheck, oracle_probes, tracer, faults,
    )
    if tracer is None:
        return _form_module_impl(*args)
    with tracer.span("module", module=module.name) as span:
        report = _form_module_impl(*args)
        span.set(merges=report.stats.merges)
        return report


def _form_module_impl(
    module: Module,
    profile: Optional[ProfileData],
    policy: Optional[MergePolicy],
    constraints,
    optimize_during: bool,
    allow_head_dup: bool,
    failsafe: bool,
    selfcheck: Optional[str],
    oracle_probes: Optional[Sequence],
    tracer,
    faults,
) -> FormationReport:
    if selfcheck not in (None, "function", "commit"):
        raise ValueError(
            f"selfcheck must be None, 'function' or 'commit', got {selfcheck!r}"
        )
    report = FormationReport(stats=MergeStats())
    probes = baseline = None
    post_commit = None
    if selfcheck:
        from repro.robustness.oracle import (
            OracleDivergenceError,
            default_probes,
            differential_check,
            snapshot_behavior,
        )

        probes = list(oracle_probes) if oracle_probes else default_probes(module)
        baseline = snapshot_behavior(module, probes)
        if selfcheck == "commit":
            def post_commit(ctx: FormationContext, hb_name: str) -> None:
                verify_function(ctx.func)
                check = differential_check(
                    module, module, probes=probes, baseline=baseline
                )
                if not check.ok:
                    raise OracleDivergenceError(check)

    for func in module:
        saved = func.copy() if selfcheck else None
        freport = form_function(
            func,
            profile=profile,
            policy=policy,
            constraints=constraints,
            optimize_during=optimize_during,
            allow_head_dup=allow_head_dup,
            failsafe=failsafe,
            post_commit=post_commit,
            tracer=tracer,
            faults=faults,
        )
        if selfcheck and freport.status is not FunctionStatus.FAILED_SAFE:
            from repro.robustness.oracle import differential_check

            if tracer is None:
                check = differential_check(
                    module, module, probes=probes, baseline=baseline
                )
            else:
                with tracer.span("oracle", function=func.name):
                    check = differential_check(
                        module, module, probes=probes, baseline=baseline
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
                    func.name,
                    FunctionStatus.FAILED_SAFE,
                    MergeStats(),
                    failures,
                )
        report.add_function(freport)
    return report
