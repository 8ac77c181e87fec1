"""``MergeBlocks`` — the inner operation of convergent hyperblock formation.

This is a line-by-line implementation of the paper's Figure 5 pseudocode:
copy the hyperblock and the merge candidate to scratch space, combine them
(if-conversion), optionally optimize the combined block, check it against
the structural constraints, and only then commit the CFG transformation.
The four CFG cases (simple merge / unroll / peel / tail duplication) are
classified exactly as in lines 7-15 of the figure.

Two caches keep the per-trial bill low:

- analyses survive a committed merge instead of being thrown away
  wholesale — the CFG, the loop forest's dominator tree and back edges,
  and liveness's SCC condensation are patched in place, and liveness
  re-solves only the merged block's component and the predecessor
  components a changed live-in set propagates into;
- rejected trials are memoized by block version, so a ``(hyperblock,
  candidate)`` pair the policy re-offers is not re-previewed, re-optimized
  and re-estimated when neither block nor its live-out environment changed.

Formed IR is identical to discarding every analysis at each commit and
memoizing nothing; ``tests/core/test_trial_cache.py`` checks that against
an invalidate-everything reference context.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Optional

from repro.analysis.liveness import Liveness
from repro.analysis.loops import LoopForest
from repro.core.constraints import TripsConstraints, estimate_block
from repro.robustness.faultinject import InjectedFault
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.obs.trace import span
from repro.opt.local import optimize_block
from repro.profiles.data import ProfileData
from repro.transform.ifconvert import merge_preview


class MergeKind(enum.Enum):
    SIMPLE = "merge"  # single predecessor, no duplication
    TAIL_DUP = "tail_duplication"
    PEEL = "peel"
    UNROLL = "unroll"


@dataclass
class FormationCacheStats:
    """Perf counters for formation's caches (e2e's ``core.*`` metrics)."""

    trial_hits: int = 0  # rejected trials answered from the memo table
    trial_misses: int = 0  # memoizable trials that had to run
    trial_stores: int = 0  # rejections recorded into the memo table
    cfg_patches: int = 0  # commits that patched the CFG in place
    loop_patches: int = 0  # commits that patched the loop forest in place
    loop_rebuilds: int = 0  # forests dropped: unroll edges that move idoms
    liveness_sccs_solved: int = 0  # SCCs re-solved after commits
    liveness_rebuilds: int = 0  # commits that forced SCC re-discovery

    def add(self, other: "FormationCacheStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class MergeStats:
    """The paper's m/t/u/p counters plus attempt and illegal counts.

    The decision record itself lives in the trace layer: ``merge_blocks``
    emits offer/trial/accept/reject events through the run's tracer,
    and :mod:`repro.obs.replay` projects them into per-function decision
    logs.  These counters stay engine-side because the tables and the
    end-to-end benchmark form without a tracer.
    """

    merges: int = 0
    tail_dups: int = 0
    unrolls: int = 0
    peels: int = 0
    attempts: int = 0
    rejected_illegal: int = 0
    #: Fast-path perf counters of the run that produced these stats
    #: (attached by ``form_function``; aggregated by ``add``).
    cache: Optional[FormationCacheStats] = None

    def record(self, kind: MergeKind) -> None:
        self.merges += 1
        if kind is MergeKind.TAIL_DUP:
            self.tail_dups += 1
        elif kind is MergeKind.UNROLL:
            self.unrolls += 1
        elif kind is MergeKind.PEEL:
            self.peels += 1

    @property
    def mtup(self) -> tuple[int, int, int, int]:
        """(merged, tail duplicated, unrolled, peeled) as in Table 1."""
        return (self.merges, self.tail_dups, self.unrolls, self.peels)

    def add(self, other: "MergeStats") -> None:
        self.merges += other.merges
        self.tail_dups += other.tail_dups
        self.unrolls += other.unrolls
        self.peels += other.peels
        self.attempts += other.attempts
        self.rejected_illegal += other.rejected_illegal
        if other.cache is not None:
            if self.cache is None:
                self.cache = FormationCacheStats()
            self.cache.add(other.cache)


class FormationContext:
    """Shared state for forming hyperblocks within one function.

    Caches liveness, the CFG view and the loop forest across merges; a
    committed merge updates them in place (see :meth:`note_commit`).
    Per-block facts (use/kill masks, dependence heights) live on each
    block's per-version shape (:meth:`BasicBlock.shape`), so they survive
    even :meth:`invalidate`.
    """

    def __init__(
        self,
        func: Function,
        profile: Optional[ProfileData] = None,
        constraints: Optional[TripsConstraints] = None,
        optimize_during: bool = True,
        allow_head_dup: bool = True,
        tracer=None,
        faults=None,
    ):
        self.func = func
        #: The run's :class:`repro.obs.trace.Tracer`; ``None`` (the
        #: default) records nothing (:func:`repro.obs.trace.span`).
        self.tracer = tracer
        #: The run's :class:`repro.robustness.faultinject.FaultPlane`;
        #: ``None`` (the default) injects nothing.
        self.faults = faults
        self.profile = profile if profile is not None else ProfileData()
        self.constraints = constraints or TripsConstraints()
        self.optimize_during = optimize_during
        self.allow_head_dup = allow_head_dup
        #: ``(seed, candidate)`` pairs whose trial failed once; never
        #: retried for the rest of the run (``attempt_merge``).
        self.blacklist: set[tuple[str, str]] = set()
        #: The run's contained failures
        #: (:class:`repro.robustness.guard.TrialFailure`), in order.
        self.failures: list = []
        self.stats = MergeStats()
        self.cache_stats = FormationCacheStats()
        #: loop header name -> saved single-iteration body for unrolling
        self.saved_bodies: dict[str, BasicBlock] = {}
        #: (hb, hb.version, s, s.version, body.version, canonical live-out
        #: mask) -> number of fresh registers the rejected trial minted
        #: (replayed on a hit so register numbering matches an uncached run
        #: exactly).  The live-out component is restricted to registers the
        #: preview can define (see ``merge_blocks``), so trials re-offered
        #: after unrelated liveness churn still collide.
        self._rejected_trials: dict[tuple, int] = {}
        self._liveness: Optional[Liveness] = None
        self._loops: Optional[LoopForest] = None
        self._cfg = None

    # -- cached analyses ----------------------------------------------------

    def invalidate(self) -> None:
        """Discard every cached analysis (a rolled-back trial edits the
        CFG outside :meth:`note_commit`)."""
        self._liveness = None
        self._loops = None
        self._cfg = None

    def note_commit(
        self, hb_name: str, s_name: str, preview: BasicBlock,
        removed: Optional[str],
    ) -> None:
        """Bring cached analyses up to date after a committed merge.

        A commit changes the successor list of exactly one block
        (``hb_name``) and possibly deletes one block (``removed``).  Its
        shape is decided once, while the CFG still holds ``s_name``: is
        HB's new successor set (old set − S) ∪ succ(S), and if not, is the
        commit an unroll that only added targets?  Every commit but an
        unroll whose saved body adds a successor HB lacked has the first
        shape; ``added`` names the targets such an unroll added (empty for
        the first shape, ``None`` for any other edit).  Then:

        - the CFG view is patched in place;
        - the loop forest patches its dominator tree and back edges in
          place (:meth:`LoopForest.note_commit`), or is dropped for lazy
          rebuild after an edit it cannot patch;
        - liveness patches its SCC condensation and re-solves only the
          components the change propagates into
          (:meth:`Liveness.note_commit`).
        """
        cfg = self._cfg
        if cfg is None:
            return
        old_succs = cfg.succs[hb_name]
        new_succs = preview.shape().succs
        expected = set(old_succs)
        if s_name != hb_name:
            expected.discard(s_name)
            expected.update(cfg.succs[s_name])
        new = set(new_succs)
        added: Optional[set[str]]
        if new == expected:
            added = set()
        elif s_name == hb_name and new > expected:
            added = new - expected
        else:
            added = None
        cfg.update_block(hb_name, new_succs)
        # The forest shares this CFG and must see ``removed`` lose its last
        # predecessor before the block leaves the view.
        if self._loops is not None:
            if self._loops.note_commit(hb_name, s_name, added):
                self.cache_stats.loop_patches += 1
            else:
                self._loops = None
                self.cache_stats.loop_rebuilds += 1
        if removed is not None:
            cfg.remove_node(removed)
        self.cache_stats.cfg_patches += 1
        live = self._liveness
        if live is None:
            return
        # The incremental dataflow re-solve is its own phase: at scale it
        # is the dominant commit cost, so it must be attributable
        # separately.
        with span(self.tracer, "liveness", function=self.func.name):
            patched = live.note_commit(hb_name, s_name, added)
        if not patched:
            self.cache_stats.liveness_rebuilds += 1
        self.cache_stats.liveness_sccs_solved += live.sccs_solved

    @property
    def cfg(self):
        if self._cfg is None:
            self._cfg = self.func.cfg()
        return self._cfg

    @property
    def liveness(self) -> Liveness:
        if self._liveness is None:
            self._liveness = Liveness(self.func, self.cfg)
        return self._liveness

    @property
    def loops(self) -> LoopForest:
        if self._loops is None:
            self._loops = LoopForest(self.func, self.cfg)
        return self._loops

    def live_out_of(self, block: BasicBlock) -> int:
        """Live-out mask of a (possibly scratch) block from its branch targets."""
        live = 0
        live_in = self.liveness.live_in
        for succ in block.shape().succs:
            live |= live_in.get(succ, 0)
        return live


def classify_merge(ctx: FormationContext, hb_name: str, s_name: str) -> MergeKind:
    """Lines 7-15 of Figure 5: which CFG transformation applies."""
    if s_name == hb_name:
        return MergeKind.UNROLL
    loops = ctx.loops
    is_back_edge = loops.is_back_edge(hb_name, s_name)
    if not is_back_edge and loops.is_header(s_name):
        # A loop header always has its back edges as extra entrances, so a
        # merge from outside the loop is a peel (Figure 5, line 12).
        return MergeKind.PEEL
    num_preds = ctx.cfg.num_preds(s_name)
    if s_name != ctx.func.entry and num_preds == 1:
        return MergeKind.SIMPLE
    return MergeKind.TAIL_DUP


def legal_merge(
    ctx: FormationContext, hb_name: str, s_name: str
) -> Optional[MergeKind]:
    """The paper's ``LegalMerge``: structural conditions for attempting a
    merge.  Returns the merge's kind (:func:`classify_merge`) when they
    hold, so ``merge_blocks`` need not classify again, and ``None`` when
    they do not."""
    func = ctx.func
    blocks = func.blocks
    hb = blocks.get(hb_name)
    s = blocks.get(s_name)
    if hb is None or s is None:
        return None
    hb_shape = hb.shape()
    if s_name not in hb_shape.succs:
        return None
    # TRIPS calls terminate blocks: a block containing a call can neither
    # absorb successors nor be absorbed.
    if hb_shape.has_call or s.shape().has_call:
        return None
    if s_name == func.entry and s_name != hb_name:
        # Merging the function entry would duplicate the prologue; the real
        # compiler never does this.
        return None
    kind = classify_merge(ctx, hb_name, s_name)
    if not ctx.allow_head_dup:
        if kind in (MergeKind.UNROLL, MergeKind.PEEL):
            return None
        if ctx.loops.is_back_edge(hb_name, s_name):
            return None
        if ctx.loops.is_header(s_name):
            # Classical acyclic if-conversion never crosses loop headers.
            return None
    if kind is MergeKind.UNROLL and not ctx.loops.is_back_edge(hb_name, s_name):
        # A self-branch that is not a back edge cannot occur in a reducible
        # CFG, but guard against it anyway.
        return None
    return kind


def _saved_body_references(ctx: FormationContext, name: str) -> bool:
    return any(
        name in body.shape().succs
        for body in ctx.saved_bodies.values()
    )


def _trial_live_out(
    ctx: FormationContext,
    hb: BasicBlock,
    s_name: str,
    candidate_succs: list[str],
) -> int:
    """Live-out mask the merged preview will have, computed *without*
    building it.

    The preview's successor set is exactly ``(hb.successors() - {s}) |
    body.successors()``: if-conversion drops the branches into the absorbed
    target and inherits the inlined body's branches (including any that
    re-enter ``s`` or the hyperblock itself).
    """
    live = 0
    live_in = ctx.liveness.live_in
    for succ in hb.shape().succs:
        if succ != s_name:
            live |= live_in.get(succ, 0)
    for succ in candidate_succs:
        live |= live_in.get(succ, 0)
    return live


def merge_blocks(
    ctx: FormationContext,
    hb_name: str,
    s_name: str,
    kind: Optional[MergeKind] = None,
) -> Optional[list[str]]:
    """Attempt the merge; return the inlined body's successor names on
    success (the new merge candidates), or ``None`` on failure.

    ``kind`` is the merge's :func:`classify_merge` kind when the caller
    already has it (``legal_merge`` returns it); it is classified here
    otherwise.

    With a tracer on the context (``ctx.tracer``) the whole attempt is
    recorded as a ``trial`` span — optimize/estimate/commit/liveness
    phases nested inside, the verdict attached as an ``accept`` or
    ``reject`` event naming the exact structural constraint that fired.
    With no tracer each phase costs one no-op :func:`span` and each
    event one ``is not None`` test.
    """
    func = ctx.func
    tracer = ctx.tracer
    with span(
        tracer, "trial", function=func.name, hb=hb_name, target=s_name
    ) as trial:
        ctx.stats.attempts += 1
        hb = func.blocks[hb_name]
        if kind is None:
            kind = classify_merge(ctx, hb_name, s_name)

        if kind is MergeKind.UNROLL:
            # First unroll of this loop: save the single-iteration body so
            # that later unrolls append exactly one iteration (not a
            # doubling).
            body_source = ctx.saved_bodies.get(hb_name)
            if body_source is None:
                body_source = hb.copy(hb_name)
                ctx.saved_bodies[hb_name] = body_source
            target = hb
        else:
            body_source = None
            target = func.blocks[s_name]

        candidate_succs = (body_source or target).successors()
        live_out = _trial_live_out(ctx, hb, s_name, candidate_succs)

        # A trial's outcome is a pure function of the two blocks' contents
        # (the saved body, for unrolls), the live-out environment and the
        # (fixed) constraints — the merge *kind* affects only how a
        # success commits, so rejections can be memoized kind-agnostically.
        # The live-out component is canonicalized before keying: the
        # optimizer and the estimator only ever test live-out membership
        # of registers the preview *defines* (dead-code/fold/implicit-
        # predication decisions and the live-write count), and the
        # preview's definitions are those of its two input blocks plus
        # fresh guards (never live-out).  Restricting the mask to that def
        # set makes trials re-offered after unrelated liveness churn hit
        # the memo instead of re-running.
        defs = hb.def_mask() | (body_source or target).def_mask()
        memo_key = (
            hb_name,
            hb.version,
            s_name,
            target.version,
            body_source.version if body_source is not None else 0,
            live_out & defs,
        )
        cached_regs = ctx._rejected_trials.get(memo_key)
        if cached_regs is not None:
            # Known rejection: skip the preview entirely, but mint the same
            # fresh registers it would have, so committed merges downstream
            # number their guards identically to an uncached run.
            ctx.cache_stats.trial_hits += 1
            ctx.stats.rejected_illegal += 1
            if tracer is not None:
                tracer.event(
                    "reject",
                    function=func.name,
                    hb=hb_name,
                    target=s_name,
                    kind=kind.value,
                    reason="memoized",
                )
            func.next_reg += cached_regs
            trial.set(committed=False)
            return None
        ctx.cache_stats.trial_misses += 1

        # Scratch-space trial merge (lines 1-6 of MergeBlocks).
        regs_before = func.max_reg()
        preview = merge_preview(func, hb, target, body_source=body_source)
        # Fault-injection hook (no-op unless the run has a plane; see
        # repro.robustness.faultinject).  Raising kinds simulate engine
        # crashes for the trial transaction to contain; corrupting kinds
        # plant silent wrong-code bugs for the differential oracle to
        # catch.
        plane = ctx.faults
        fault_kind = (
            plane.trial_fault(func.name, hb_name, s_name)
            if plane is not None
            else None
        )
        if fault_kind == "optimizer":
            plane.record(fault_kind, func.name, hb_name, s_name)
            raise _injected_fault(fault_kind, "optimizer crashed mid-trial")
        if fault_kind in ("operand", "predicate"):
            if plane.corrupt(fault_kind, preview):
                plane.record(fault_kind, func.name, hb_name, s_name)
        if ctx.optimize_during:
            with span(tracer, "optimize", function=func.name):
                optimize_block(preview, live_out)
        with span(tracer, "estimate", function=func.name):
            estimate = estimate_block(preview, live_out, ctx.constraints)
        if not estimate.legal:
            ctx.stats.rejected_illegal += 1
            if tracer is not None:
                tracer.event(
                    "reject",
                    function=func.name,
                    hb=hb_name,
                    target=s_name,
                    kind=kind.value,
                    reason="constraint",
                    constraints=list(estimate.violation_kinds),
                    violations=list(estimate.violations),
                    estimate=estimate.as_attrs(),
                )
            ctx._rejected_trials[memo_key] = func.max_reg() - regs_before
            ctx.cache_stats.trial_stores += 1
            trial.set(committed=False)
            return None

        # Commit (lines 7-16).
        with span(tracer, "commit", function=func.name):
            removed = _commit_preview(
                ctx, hb_name, s_name, kind, preview, plane, fault_kind
            )
        ctx.stats.record(kind)
        if tracer is not None:
            # The estimate rides along so the flight recorder captures the
            # accepted side's projection too — a bisection can then show
            # what the estimator saw on *both* sides of a flipped verdict.
            tracer.event(
                "accept",
                function=func.name,
                hb=hb_name,
                target=s_name,
                kind=kind.value,
                removed=removed,
                estimate=estimate.as_attrs(),
            )
        trial.set(committed=True)
        return candidate_succs


def _commit_preview(
    ctx: FormationContext,
    hb_name: str,
    s_name: str,
    kind: MergeKind,
    preview: BasicBlock,
    plane,
    fault_kind: Optional[str],
) -> Optional[str]:
    """Install a surviving preview into the CFG (lines 7-16 of Figure 5).

    Returns the name of the absorbed block when the commit deleted it
    (SIMPLE merges), else ``None``.
    """
    func = ctx.func
    func.blocks[hb_name] = preview
    removed: Optional[str] = None
    if (
        kind is MergeKind.SIMPLE
        and s_name != func.entry
        and not _saved_body_references(ctx, s_name)
    ):
        func.remove_block(s_name)
        removed = s_name
    if fault_kind == "commit":
        # Mid-commit crash: the CFG is already mutated, which is exactly
        # the state ``attempt_merge``'s rollback must be able to restore.
        plane.record(fault_kind, func.name, hb_name, s_name)
        raise _injected_fault(fault_kind, "commit crashed after CFG mutation")
    ctx.note_commit(hb_name, s_name, preview, removed)
    return removed


def _injected_fault(kind: str, message: str) -> InjectedFault:
    exc = InjectedFault(f"injected fault: {message}")
    exc.fault_kind = kind
    return exc
