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
import hashlib
from dataclasses import dataclass, field, fields
from typing import Optional

from repro.analysis.depgraph import dependence_height
from repro.analysis.liveness import Liveness
from repro.analysis.loops import LoopForest
from repro.core.constraints import TripsConstraints, estimate_block
from repro.obs.sink import DEFAULT_RING_CAPACITY
from repro.obs.trace import active_tracer
from repro.robustness.faultinject import InjectedFault, active_plane
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.opcodes import Opcode
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
    use_kill_hits: int = 0  # per-block use/kill sets served by version
    use_kill_misses: int = 0
    cfg_patches: int = 0  # commits that patched the CFG in place
    loop_patches: int = 0  # commits that patched the loop forest in place
    loop_rebuilds: int = 0  # forests dropped: unrolls that add a successor
    liveness_sccs_solved: int = 0  # SCCs re-solved after commits
    liveness_rebuilds: int = 0  # commits that forced SCC re-discovery

    def add(self, other: "FormationCacheStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class MergeStats:
    """The paper's m/t/u/p counters plus a compatibility event view.

    The full decision record now lives in the trace layer
    (:mod:`repro.obs.trace`): ``merge_blocks`` emits structured
    offer/trial/accept/reject events through the installed tracer.  The
    ``events`` tuple list here is kept as a thin compatibility view of
    the *accepted* merges only, bounded by ``events_capacity``; overflow
    increments ``trace_dropped_events`` instead of disappearing.
    Callers that form at module scale and only need the counters can pass
    ``record_events=False`` (threaded through ``form_function``/
    ``form_module``) to keep the view empty.
    """

    merges: int = 0
    tail_dups: int = 0
    unrolls: int = 0
    peels: int = 0
    attempts: int = 0
    rejected_illegal: int = 0
    record_events: bool = True
    events: list[tuple[str, str, str]] = field(default_factory=list)
    #: Bounded capacity of the compatibility view (mirrors the trace ring
    #: sink's bound).
    events_capacity: int = DEFAULT_RING_CAPACITY
    #: Events that did not fit ``events_capacity`` (never silently lost).
    trace_dropped_events: int = 0
    #: Fast-path perf counters of the run that produced these stats
    #: (attached by ``form_function``; aggregated by ``add``).
    cache: Optional[FormationCacheStats] = None

    def record(self, kind: MergeKind, hb: str, target: str) -> None:
        self.merges += 1
        if kind is MergeKind.TAIL_DUP:
            self.tail_dups += 1
        elif kind is MergeKind.UNROLL:
            self.unrolls += 1
        elif kind is MergeKind.PEEL:
            self.peels += 1
        if self.record_events:
            if len(self.events) < self.events_capacity:
                self.events.append((kind.value, hb, target))
            else:
                self.trace_dropped_events += 1

    @property
    def mtup(self) -> tuple[int, int, int, int]:
        """(merged, tail duplicated, unrolled, peeled) as in Table 1."""
        return (self.merges, self.tail_dups, self.unrolls, self.peels)

    def decision_fingerprint(self) -> str:
        """Stable digest of this run's formation outcome.

        Hashes the m/t/u/p counters, the attempt/illegal counts and the
        ordered accepted-merge event view.  Two runs with the same
        fingerprint made the same merges in the same order — the cheap
        half of the run-ledger's identity check (the trace-derived
        per-decision fingerprint in :mod:`repro.obs.ledger` adds the
        rejection side).  Perf counters (``cache``) and capacity settings
        are deliberately excluded: they describe *how fast* a run was,
        not *what it decided*.
        """
        digest = hashlib.sha256()
        digest.update(
            repr(
                (
                    self.merges,
                    self.tail_dups,
                    self.unrolls,
                    self.peels,
                    self.attempts,
                    self.rejected_illegal,
                )
            ).encode()
        )
        for event in self.events:
            digest.update(repr(tuple(event)).encode())
        return digest.hexdigest()[:16]

    def add(self, other: "MergeStats") -> None:
        self.merges += other.merges
        self.tail_dups += other.tail_dups
        self.unrolls += other.unrolls
        self.peels += other.peels
        self.attempts += other.attempts
        self.rejected_illegal += other.rejected_illegal
        self.trace_dropped_events += other.trace_dropped_events
        if self.record_events:
            room = self.events_capacity - len(self.events)
            taken = other.events[: max(room, 0)]
            self.events.extend(taken)
            self.trace_dropped_events += len(other.events) - len(taken)
        if other.cache is not None:
            if self.cache is None:
                self.cache = FormationCacheStats()
            self.cache.add(other.cache)



class FormationContext:
    """Shared state for forming hyperblocks within one function.

    Caches liveness, the CFG view and the loop forest across merges; a
    committed merge updates them in place (see :meth:`note_commit`).
    Per-block facts keyed by block version (use/kill masks,
    :meth:`block_height`) survive even :meth:`invalidate`.
    """

    def __init__(
        self,
        func: Function,
        profile: Optional[ProfileData] = None,
        constraints: Optional[TripsConstraints] = None,
        optimize_during: bool = True,
        allow_head_dup: bool = True,
        allow_block_splitting: bool = False,
        max_merges_per_block: int = 512,
        record_events: bool = True,
        guard=None,
        post_commit=None,
        tracer=None,
    ):
        self.func = func
        #: Optional :class:`repro.robustness.guard.TrialGuard`: when set,
        #: ``expand_block`` routes every trial through it so an escaping
        #: exception is contained and rolled back instead of propagating.
        self.guard = guard
        #: The trace emitter for this run (resolved once here, so the
        #: per-trial disabled cost is a single attribute load):
        #: ``None`` — the default, when no tracer is installed — disables
        #: all instrumentation in the merge loop.
        self.tracer = tracer if tracer is not None else active_tracer()
        #: Optional ``(ctx, hb_name) -> None`` hook run after every
        #: committed merge, *before* the merge is counted — raising here
        #: (verifier or oracle gate) makes the guard roll the commit back.
        self.post_commit = post_commit
        self.profile = profile if profile is not None else ProfileData()
        self.constraints = constraints or TripsConstraints()
        self.optimize_during = optimize_during
        self.allow_head_dup = allow_head_dup
        #: Section 9 extension: when a candidate is too large to absorb
        #: whole, split it and merge the first piece.
        self.allow_block_splitting = allow_block_splitting
        self.max_merges_per_block = max_merges_per_block
        # Trial memoization is only sound when estimates are invariant
        # under renaming of the preview's fresh guard registers: strict
        # banking assigns registers to banks by number, so two previews of
        # the same merge can estimate differently there.  Block splitting
        # gives rejections side effects (the split itself), so it also
        # disables the memo table.
        self.memoize_trials = (
            not self.constraints.strict_banking and not allow_block_splitting
        )
        self.stats = MergeStats(record_events=record_events)
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
        self._use_kill_cache: dict[str, tuple[int, tuple[int, int]]] = {}
        #: block version -> dependence height, which the VLIW path prepass
        #: reads at every seed (see :meth:`block_height`).
        self._block_heights: dict[int, int] = {}
        self._liveness: Optional[Liveness] = None
        self._loops: Optional[LoopForest] = None
        self._cfg = None

    # -- cached analyses ----------------------------------------------------

    def invalidate(self) -> None:
        """Discard every cached analysis (block splitting and guard
        rollback edit the CFG outside :meth:`note_commit`)."""
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
        shape is decided once, while the CFG still holds ``s_name``: does
        HB's new successor set equal (old set − S) ∪ succ(S)?  Every commit
        but an unroll whose saved body adds a successor has that shape.
        Then:

        - the CFG view is patched in place;
        - the loop forest patches its dominator tree and back edges in
          place (:meth:`LoopForest.note_commit`), or is dropped for lazy
          rebuild after an edit of another shape;
        - liveness patches its SCC condensation and re-solves only the
          components the change propagates into
          (:meth:`Liveness.note_commit`).
        """
        cfg = self._cfg
        if cfg is None:
            return
        old_succs = cfg.succs[hb_name]
        new_succs = preview.successors()
        in_shape = set(new_succs) == set(old_succs) - {s_name} | set(
            old_succs if s_name == hb_name else cfg.succs[s_name]
        )
        cfg.update_block(hb_name, new_succs)
        # The forest shares this CFG and must see ``removed`` lose its last
        # predecessor before the block leaves the view.
        if self._loops is not None:
            if self._loops.note_commit(hb_name, s_name, in_shape):
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
        tracer = self.tracer
        if tracer is None:
            patched = live.note_commit(hb_name, s_name, in_shape)
        else:
            # The incremental dataflow re-solve is its own phase: at scale
            # it is the dominant commit cost (see BENCH telemetry), so it
            # must be attributable separately.
            with tracer.phase("liveness", function=self.func.name):
                patched = live.note_commit(hb_name, s_name, in_shape)
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
            self._liveness = Liveness(
                self.func, self.cfg, use_kill=self._use_kill_view()
            )
        return self._liveness

    def _use_kill_view(self) -> dict[str, tuple[int, int]]:
        """Per-block (use, kill) register masks for a liveness rebuild,
        cached across the rebuilds ``invalidate`` forces (a commit patches
        liveness with the merged block's masks alone).

        Keyed by the block's monotonic version stamp: every mutation path
        bumps it and a stamp is never reused, so — unlike the ``id(block)``
        token this replaced — a recycled object can never serve stale masks.
        """
        from repro.analysis.liveness import block_use_kill

        view: dict[str, tuple[int, int]] = {}
        fresh: dict[str, tuple[int, tuple[int, int]]] = {}
        cache = self._use_kill_cache
        stats = self.cache_stats
        for name, block in self.func.blocks.items():
            version = block.version
            cached = cache.get(name)
            if cached is not None and cached[0] == version:
                sets = cached[1]
                stats.use_kill_hits += 1
            else:
                sets = block_use_kill(block)
                stats.use_kill_misses += 1
            fresh[name] = (version, sets)
            view[name] = sets
        self._use_kill_cache = fresh
        return view

    def block_height(self, block: BasicBlock) -> int:
        """``dependence_height(block)``, computed once per block version.

        The height is a pure function of the block's instructions, and a
        version stamp is never reused, so an entry can never go stale: a
        committed merge re-stamps the merged block and its height is
        recomputed on the next lookup.
        """
        height = self._block_heights.get(block.version)
        if height is None:
            height = self._block_heights[block.version] = dependence_height(block)
        return height

    @property
    def loops(self) -> LoopForest:
        if self._loops is None:
            self._loops = LoopForest(self.func, self.cfg)
        return self._loops

    def live_out_of(self, block: BasicBlock) -> int:
        """Live-out mask of a (possibly scratch) block from its branch targets."""
        live = 0
        live_in = self.liveness.live_in
        for succ in block.successors():
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


def legal_merge(ctx: FormationContext, hb_name: str, s_name: str) -> bool:
    """The paper's ``LegalMerge``: structural conditions for attempting a merge."""
    func = ctx.func
    if s_name not in func.blocks or hb_name not in func.blocks:
        return False
    hb = func.blocks[hb_name]
    if not hb.branches_to(s_name):
        return False
    s = func.blocks[s_name]
    # TRIPS calls terminate blocks: a block containing a call can neither
    # absorb successors nor be absorbed.
    if hb.has_call() or s.has_call():
        return False
    if s_name == func.entry and s_name != hb_name:
        # Merging the function entry would duplicate the prologue; the real
        # compiler never does this.
        return False
    kind = classify_merge(ctx, hb_name, s_name)
    if not ctx.allow_head_dup:
        if kind in (MergeKind.UNROLL, MergeKind.PEEL):
            return False
        if ctx.loops.is_back_edge(hb_name, s_name):
            return False
        if ctx.loops.is_header(s_name):
            # Classical acyclic if-conversion never crosses loop headers.
            return False
    if kind is MergeKind.UNROLL and not ctx.loops.is_back_edge(hb_name, s_name):
        # A self-branch that is not a back edge cannot occur in a reducible
        # CFG, but guard against it anyway.
        return False
    return True


def _saved_body_references(ctx: FormationContext, name: str) -> bool:
    return any(
        name in body.successors()
        for body in ctx.saved_bodies.values()
    )


def _try_split_candidate(
    ctx: FormationContext, hb_name: str, s_name: str, kind: MergeKind
) -> Optional[list[str]]:
    """Section 9's basic-block splitting: the candidate did not fit whole,
    so cut it and merge the first piece (the tail becomes a new candidate).

    Only applies to plain merges (splitting a loop header would change
    loop structure), and only when a meaningfully sized first piece can
    fit the remaining budget.
    """
    from repro.transform.split import SplitError, split_block

    if kind not in (MergeKind.SIMPLE, MergeKind.TAIL_DUP):
        return None
    func = ctx.func
    target = func.blocks[s_name]
    remaining = ctx.constraints.max_instructions - len(func.blocks[hb_name])
    # The first piece keeps `cut` instructions plus a new branch; it must
    # be strictly smaller than the original or no progress is possible.
    cut = min(len(target) - 2, max(remaining // 2, 2))
    if cut < 2:
        return None
    try:
        first, second = split_block(func, s_name, at=cut)
    except SplitError:
        return None
    ctx.invalidate()
    result = merge_blocks(ctx, hb_name, s_name, _splitting=True)
    if result is None:
        # Revert: re-join the pieces so a failed attempt leaves no trace
        # (otherwise degenerate splits accumulate blocks forever).
        first_block = func.blocks[first]
        assert first_block.instrs[-1].op is Opcode.BR
        first_block.instrs.pop()
        first_block.instrs.extend(func.blocks[second].instrs)
        first_block.touch()
        func.remove_block(second)
        ctx.invalidate()
    return result


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
    for succ in hb.successors():
        if succ != s_name:
            live |= live_in.get(succ, 0)
    for succ in candidate_succs:
        live |= live_in.get(succ, 0)
    return live


#: Memo for :func:`_def_mask`, keyed by ``BasicBlock.version`` (stamps are
#: process-unique and never reused).  Cleared wholesale past the cap.
_def_mask_cache: dict[int, int] = {}
_DEF_MASK_CACHE_MAX = 4096


def _def_mask(block: BasicBlock) -> int:
    """Mask of every register the block writes (predicated or not)."""
    version = block.version
    cached = _def_mask_cache.get(version)
    if cached is not None:
        return cached
    mask = 0
    for instr in block.instrs:
        if instr.dest is not None:
            mask |= 1 << instr.dest
    if len(_def_mask_cache) >= _DEF_MASK_CACHE_MAX:
        _def_mask_cache.clear()
    _def_mask_cache[version] = mask
    return mask


def merge_blocks(
    ctx: FormationContext, hb_name: str, s_name: str, _splitting: bool = False
) -> Optional[list[str]]:
    """Attempt the merge; return the inlined body's successor names on
    success (the new merge candidates), or ``None`` on failure.

    With a tracer installed (:func:`repro.obs.trace.install`) the whole
    attempt is recorded as a ``trial`` span — optimize/estimate/commit/
    oracle/liveness phases nested inside, the verdict attached as an
    ``accept`` or ``reject`` event naming the exact structural constraint
    that fired.  With no tracer the added cost is one attribute load and
    a handful of ``is None`` tests.
    """
    tracer = ctx.tracer
    if tracer is None:
        return _merge_trial(ctx, hb_name, s_name, _splitting)
    with tracer.span(
        "trial", function=ctx.func.name, hb=hb_name, target=s_name
    ) as span:
        if _splitting:
            span.set(splitting=True)
        result = _merge_trial(ctx, hb_name, s_name, _splitting)
        span.set(committed=result is not None)
        return result


def _merge_trial(
    ctx: FormationContext, hb_name: str, s_name: str, _splitting: bool
) -> Optional[list[str]]:
    func = ctx.func
    tracer = ctx.tracer
    ctx.stats.attempts += 1
    hb = func.blocks[hb_name]
    kind = classify_merge(ctx, hb_name, s_name)

    if kind is MergeKind.UNROLL:
        # First unroll of this loop: save the single-iteration body so that
        # later unrolls append exactly one iteration (not a doubling).
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

    # A trial's outcome is a pure function of the two blocks' contents (the
    # saved body, for unrolls), the live-out environment and the (fixed)
    # constraints — the merge *kind* affects only how a success commits, so
    # rejections can be memoized kind-agnostically.  The live-out component
    # is canonicalized before keying: the optimizer and the estimator only
    # ever test live-out membership of registers the preview *defines*
    # (dead-code/fold/implicit-predication decisions and the live-write
    # count), and the preview's definitions are those of its two input
    # blocks plus fresh guards (never live-out).  Restricting the mask to
    # that def set makes trials re-offered after unrelated liveness churn
    # hit the memo instead of re-running.
    memo_key = None
    if ctx.memoize_trials and not _splitting:
        defs = _def_mask(hb) | _def_mask(body_source or target)
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
            if cached_regs:
                func.note_reg(func.max_reg() + cached_regs - 1)
            return None
        ctx.cache_stats.trial_misses += 1

    # Scratch-space trial merge (lines 1-6 of MergeBlocks).
    regs_before = func.max_reg()
    preview = merge_preview(func, hb, target, body_source=body_source)
    # Fault-injection hook (no-op unless a plane is installed; see
    # repro.robustness.faultinject).  Raising kinds simulate engine crashes
    # for the trial guard to contain; corrupting kinds plant silent
    # wrong-code bugs for the differential oracle to catch.
    plane = active_plane()
    fault_kind = (
        plane.trial_fault(func.name, hb_name, s_name)
        if plane is not None
        else None
    )
    if fault_kind == "optimizer":
        plane.record("trial", fault_kind, func.name, hb_name, s_name)
        raise _injected_fault(fault_kind, "optimizer crashed mid-trial")
    if fault_kind in ("operand", "predicate"):
        if plane.corrupt(fault_kind, preview):
            plane.record("trial", fault_kind, func.name, hb_name, s_name)
    if ctx.optimize_during:
        if tracer is None:
            optimize_block(preview, live_out)
        else:
            with tracer.phase("optimize", function=func.name):
                optimize_block(preview, live_out)
    if tracer is None:
        estimate = estimate_block(preview, live_out, ctx.constraints)
    else:
        with tracer.phase("estimate", function=func.name):
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
        if memo_key is not None:
            ctx._rejected_trials[memo_key] = func.max_reg() - regs_before
            ctx.cache_stats.trial_stores += 1
        if ctx.allow_block_splitting and not _splitting:
            return _try_split_candidate(ctx, hb_name, s_name, kind)
        return None

    # Commit (lines 7-16).
    if tracer is None:
        removed = _commit_preview(
            ctx, hb_name, s_name, kind, preview, plane, fault_kind
        )
    else:
        with tracer.phase("commit", function=func.name):
            removed = _commit_preview(
                ctx, hb_name, s_name, kind, preview, plane, fault_kind
            )
    if ctx.post_commit is not None:
        # Post-commit gate (verifier / differential oracle).  Raising here
        # happens *before* the merge is counted, so a guard rollback leaves
        # the stats consistent with the restored IR.
        if tracer is None:
            ctx.post_commit(ctx, hb_name)
        else:
            with tracer.phase("oracle", function=func.name):
                ctx.post_commit(ctx, hb_name)
    ctx.stats.record(kind, hb_name, s_name)
    if tracer is not None:
        # The estimate rides along so the flight recorder captures the
        # accepted side's projection too — a bisection can then show what
        # the estimator saw on *both* sides of a flipped verdict.
        tracer.event(
            "accept",
            function=func.name,
            hb=hb_name,
            target=s_name,
            kind=kind.value,
            removed=removed,
            estimate=estimate.as_attrs(),
        )
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
        # the state the trial guard's checkpoint must be able to restore.
        plane.record("trial", fault_kind, func.name, hb_name, s_name)
        raise _injected_fault(fault_kind, "commit crashed after CFG mutation")
    ctx.note_commit(hb_name, s_name, preview, removed)
    return removed


def _injected_fault(kind: str, message: str) -> InjectedFault:
    exc = InjectedFault(f"injected fault: {message}")
    exc.fault_kind = kind
    return exc
