"""Block-selection policies (the paper's ``SelectBest``, Section 5).

A policy chooses which candidate successor to merge next and may veto
candidates entirely (the VLIW path-based heuristic only admits blocks on
sufficiently profitable paths).  Three families are implemented:

- :class:`BreadthFirstPolicy` — merge level by level, guaranteeing some
  useless instructions but removing conditional branches (the best EDGE
  heuristic in the paper).
- :class:`DepthFirstPolicy` — follow the most frequent path downward,
  maximizing useful instructions at the cost of tail duplication.
- :class:`VLIWPolicy` — Mahlke's path-based heuristic: a prepass scores
  all paths through the acyclic region by frequency, dependence height,
  and resource use, and only blocks on paths above a threshold priority
  are eligible for inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.depgraph import dependence_height

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.merge import FormationContext


@dataclass
class Candidate:
    """One entry of the ``ExpandBlock`` candidate set."""

    name: str
    depth: int  # merge generation at which it was discovered
    seq: int  # global discovery order


class MergePolicy:
    """Base policy: interface plus shared helpers."""

    name = "base"

    def begin_block(self, ctx: "FormationContext", hb_name: str) -> None:
        """Hook called when expansion of a new hyperblock seed starts."""

    def admits(self, ctx: "FormationContext", hb_name: str, cand: Candidate) -> bool:
        """Whether the candidate may be merged at all."""
        return True

    def filter_new(
        self, ctx: "FormationContext", hb_name: str, succs: list[str]
    ) -> list[str]:
        """Which of a merged block's successors become candidates.

        The breadth-first policy admits all of them; path-based policies
        (depth-first, VLIW) exclude blocks off their chosen paths — the
        exclusion that triggers tail-duplication pathologies (Section 7.2).
        """
        return succs

    def select(
        self, ctx: "FormationContext", hb_name: str, candidates: list[Candidate]
    ) -> int:
        """Index of the next candidate to try."""
        raise NotImplementedError

    def _hotness(self, ctx: "FormationContext", name: str) -> int:
        return ctx.profile.block_count(ctx.func.name, name)


class BreadthFirstPolicy(MergePolicy):
    """Merge candidates in pure breadth-first discovery order.

    Processing a merge point only after *all* arms leading to it have been
    merged lets the guard simplification ``(g∧t)∨(g∧¬t) = g`` fire, which
    keeps merge-point code (e.g. induction-variable updates) off the test's
    dependence chain — the property that makes breadth-first the best EDGE
    heuristic in the paper.
    """

    name = "breadth-first"

    def select(self, ctx, hb_name, candidates) -> int:
        best = 0
        best_key = None
        for i, cand in enumerate(candidates):
            key = (cand.depth, cand.seq)
            if best_key is None or key < best_key:
                best_key = key
                best = i
        return best


class DepthFirstPolicy(MergePolicy):
    """Follow the most frequent path only (superblock-style selection).

    At every step the single most frequent successor continues the path;
    the other successors are *excluded* — "the depth-first policy risks a
    higher misprediction rate and performs more tail duplication, but
    seeks to include a greater number of useful instructions".  The
    exclusion is what makes depth-first suffer the bzip2_3 pathology: the
    merge point below an excluded rare block must be tail-duplicated,
    making its induction-variable update data-dependent on the test.
    """

    name = "depth-first"

    def select(self, ctx, hb_name, candidates) -> int:
        best = 0
        best_key = None
        for i, cand in enumerate(candidates):
            key = (-cand.depth, -self._hotness(ctx, cand.name), cand.seq)
            if best_key is None or key < best_key:
                best_key = key
                best = i
        return best

    def filter_new(self, ctx, hb_name, succs) -> list[str]:
        if len(succs) <= 1:
            return succs
        return [max(succs, key=lambda s: self._hotness(ctx, s))]


@dataclass
class _PathInfo:
    blocks: tuple[str, ...]
    frequency: float
    height: int
    ops: int
    priority: float = 0.0


class VLIWPolicy(MergePolicy):
    """Mahlke's path-based block selection [17, 18].

    For each hyperblock seed the policy enumerates control-flow paths
    through the acyclic region rooted at the seed and scores each path

    ``priority = freq * (H_main / H_path) ** height_weight
               * (O_main / O_path) ** ops_weight``

    where ``H`` is static dependence height and ``O`` is operation count,
    relative to the most frequent ("main") path.  Paths whose priority is
    at least ``threshold`` times the best priority contribute their blocks
    to the inclusion set; everything else is vetoed.  This reproduces the
    VLIW preference for short, frequent, resource-light paths and its
    willingness to exclude rarely taken blocks (at the cost of tail
    duplication and extra mispredictions — the paper's Section 7.2).
    """

    name = "vliw"

    def __init__(
        self,
        threshold: float = 0.20,
        height_weight: float = 1.0,
        ops_weight: float = 0.5,
        max_paths: int = 128,
        max_path_blocks: int = 24,
    ):
        self.threshold = threshold
        self.height_weight = height_weight
        self.ops_weight = ops_weight
        self.max_paths = max_paths
        self.max_path_blocks = max_path_blocks
        self._included: set[str] = set()
        self._rank: dict[str, float] = {}

    # -- prepass ------------------------------------------------------------

    def _enumerate_paths(self, ctx: "FormationContext", seed: str) -> list[_PathInfo]:
        func = ctx.func
        blocks = func.blocks
        cfg = ctx.cfg
        loops = ctx.loops
        profile = ctx.profile
        paths: list[_PathInfo] = []
        acc: list[str] = []
        # name -> (successor, clamped edge probability) for the successors
        # a path may extend into.  Back edges, loop headers, the entry and
        # blocks holding a call never qualify, whatever the path so far, so
        # that filter runs once per block per enumeration.
        extensions: dict[str, list[tuple[str, float]]] = {}

        def walk(name: str, prob: float, height: int, ops: int) -> None:
            if len(paths) >= self.max_paths:
                return
            block = blocks[name]
            height += dependence_height(block)
            ops += len(block)
            acc.append(name)
            nexts = extensions.get(name)
            if nexts is None:
                nexts = extensions[name] = [
                    (s, max(profile.edge_probability(func.name, name, s), 1e-3))
                    for s in cfg.succs.get(name, [])
                    if not loops.is_back_edge(name, s)
                    and not loops.is_header(s)
                    and s != func.entry
                    and not blocks[s].has_call()
                ]
            succs = [(s, p) for s, p in nexts if s not in acc]
            if not succs or len(acc) >= self.max_path_blocks:
                paths.append(
                    _PathInfo(
                        blocks=tuple(acc),
                        frequency=prob,
                        height=max(1, height),
                        ops=max(1, ops),
                    )
                )
            else:
                for succ, p in succs:
                    walk(succ, prob * p, height, ops)
            acc.pop()

        seed_count = max(1, profile.block_count(func.name, seed))
        walk(seed, float(seed_count), 0, 0)
        return paths

    def begin_block(self, ctx, hb_name) -> None:
        paths = self._enumerate_paths(ctx, hb_name)
        self._included = {hb_name}
        self._rank = {}
        if not paths:
            return
        main = max(paths, key=lambda p: p.frequency)
        for path in paths:
            rel_height = (main.height / path.height) ** self.height_weight
            rel_ops = (main.ops / path.ops) ** self.ops_weight
            path.priority = path.frequency * rel_height * rel_ops
        best = max(p.priority for p in paths)
        if best <= 0:
            return
        for path in paths:
            if path.priority >= self.threshold * best:
                for i, name in enumerate(path.blocks):
                    self._included.add(name)
                    rank = path.priority * (1.0 - i * 1e-6)
                    if rank > self._rank.get(name, 0.0):
                        self._rank[name] = rank

    # -- selection ---------------------------------------------------------

    def admits(self, ctx, hb_name, cand) -> bool:
        if cand.name in self._included:
            return True
        # Loop headers never appear on enumerated paths; admit them so the
        # convergent variant can still peel and unroll.
        if ctx.allow_head_dup and (
            ctx.loops.is_header(cand.name) or cand.name == hb_name
        ):
            return True
        return False

    def select(self, ctx, hb_name, candidates) -> int:
        best = 0
        best_key = None
        for i, cand in enumerate(candidates):
            rank = self._rank.get(cand.name, 0.0)
            key = (-rank, cand.seq)
            if best_key is None or key < best_key:
                best_key = key
                best = i
        return best
