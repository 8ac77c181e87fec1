"""Shared fixtures and CFG factories used across the test suite."""

from __future__ import annotations

import functools
from unittest import mock

import pytest

from repro.analysis.depgraph import completion_depths
from repro.analysis.dominators import DominatorTree
from repro.analysis.liveness import Liveness, _tarjan_sccs
from repro.analysis.loops import LoopForest
from repro.analysis.predimpl import exposed_mask
from repro.core import convergent
from repro.core.merge import FormationContext
from repro.harness import experiment
from repro.harness.experiment import heuristic_config
from repro.ir import FunctionBuilder, Function, Module, Opcode, build_module
from repro.ir.block import BasicBlock
from repro.obs.replay import log_from_trace
from repro.obs.trace import Tracer
from repro.profiles.collect import collect_profile
from repro.profiles.data import root_name
from repro.workloads.generators import random_inputs, scaled_program
from repro.workloads.microbench import MICROBENCH_ORDER, MICROBENCHMARKS
from repro.workloads.spec import SPEC_BENCHMARKS, SPEC_ORDER


class _NoMemo(dict):
    """A trial memo that stores nothing, so every lookup misses."""

    def __setitem__(self, key, value) -> None:
        pass


class ReferenceFormationContext(FormationContext):
    """Formation without the in-place analysis patches and the trial memo:
    the reference they are checked against.

    Every commit discards the CFG view, the loop forest and liveness
    instead of patching them, and no rejected trial is memoized, so each
    trial re-derives those analyses from the IR as it stands.  Facts
    keyed by block version survive, as they survive any ``invalidate()``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._rejected_trials = _NoMemo()

    def note_commit(self, hb_name, s_name, preview, removed) -> None:
        self.invalidate()


def reference_formation():
    """Within this context ``form_function``/``form_module`` form under
    :class:`ReferenceFormationContext`."""
    return mock.patch.object(
        convergent, "FormationContext", ReferenceFormationContext
    )


def make_counting_loop(bound: int = 10, name: str = "main") -> Function:
    """``for (i = 0; i < bound; i++) sum += i; return sum`` as a CFG.

    Blocks: entry -> head -> body -> head, head -> exit.
    Registers: the loop counter and accumulator live in fixed registers so
    the loop body writes back via ``mov_to``.
    """
    fb = FunctionBuilder(name)
    fb.block("entry", entry=True)
    i_reg = fb.movi(0)
    sum_reg = fb.movi(0)
    bound_reg = fb.movi(bound)
    fb.br("head")

    fb.block("head")
    cond = fb.tlt(i_reg, bound_reg)
    fb.br_cond(cond, "body", "exit")

    fb.block("body")
    new_sum = fb.add(sum_reg, i_reg)
    fb.mov_to(sum_reg, new_sum)
    one = fb.movi(1)
    new_i = fb.add(i_reg, one)
    fb.mov_to(i_reg, new_i)
    fb.br("head")

    fb.block("exit")
    fb.ret(sum_reg)
    return fb.finish()


def make_diamond(name: str = "main") -> Function:
    """``return (a < b) ? a*2 : b*3`` over params v0, v1 (Figure 2 shape)."""
    fb = FunctionBuilder(name, nparams=2)
    fb.block("A", entry=True)
    cond = fb.tlt(0, 1)
    fb.br_cond(cond, "B", "C")

    result = fb.func.new_reg()

    fb.block("B")
    two = fb.movi(2)
    fb.mov_to(result, fb.mul(0, two))
    fb.br("D")

    fb.block("C")
    three = fb.movi(3)
    fb.mov_to(result, fb.mul(1, three))
    fb.br("D")

    fb.block("D")
    one = fb.movi(1)
    fb.ret(fb.add(result, one))
    return fb.finish()


def make_while_loop(name: str = "main") -> Function:
    """A while loop whose trip count depends on the argument (param v0).

    ``while (n > 1) { if (n odd) n = 3n+1 else n = n/2; count++ } ; return count``
    (a Collatz kernel: data-dependent control flow inside the loop).
    """
    fb = FunctionBuilder(name, nparams=1)
    n = 0
    fb.block("entry", entry=True)
    count = fb.movi(0)
    fb.br("head")

    fb.block("head")
    one = fb.movi(1)
    cond = fb.op(Opcode.TGT, n, one)
    fb.br_cond(cond, "body", "exit")

    fb.block("body")
    two = fb.movi(2)
    rem = fb.op(Opcode.MOD, n, two)
    isodd = fb.tne(rem, fb.movi(0))
    fb.br_cond(isodd, "odd", "even")

    fb.block("odd")
    three = fb.movi(3)
    fb.mov_to(n, fb.add(fb.mul(n, three), fb.movi(1)))
    fb.br("latch")

    fb.block("even")
    fb.mov_to(n, fb.div(n, fb.movi(2)))
    fb.br("latch")

    fb.block("latch")
    fb.mov_to(count, fb.add(count, fb.movi(1)))
    fb.br("head")

    fb.block("exit")
    fb.ret(count)
    return fb.finish()


def make_exiting_unroll_loop(name: str = "main") -> Function:
    """A single-block loop whose exit block the merge loop can absorb.

    Blocks: entry -> loop -> {loop, exit}, exit -> done.  Once ``loop`` is
    unrolled (saving its body, which branches to exit) and then absorbs
    ``exit``, the next unroll brings the exit edge back: a commit that
    adds a successor instead of replacing one.
    """
    fb = FunctionBuilder(name)
    fb.block("entry", entry=True)
    i = fb.movi(0)
    fb.br("loop")
    fb.block("loop")
    fb.mov_to(i, fb.addi(i, 1))
    fb.br_cond(fb.tlt(i, fb.movi(8)), "loop", "exit")
    fb.block("exit")
    fb.mov_to(i, fb.addi(i, 3))
    fb.br("done")
    fb.block("done")
    fb.ret(i)
    return fb.finish()


def make_shared_exit_unroll_loop(name: str = "main") -> Function:
    """A single-block loop whose exit block the entry also branches to.

    Blocks: entry -> {loop, exit}, loop -> {loop, exit}, exit -> done.
    Once ``loop`` is unrolled and then tail-duplicates ``exit``, the next
    unroll brings the edge ``loop -> exit`` back.  ``exit`` is still
    reachable, and its immediate dominator ``entry`` dominates ``loop``,
    so the added edge moves no dominator; it also runs down in rank.
    """
    fb = FunctionBuilder(name, nparams=1)
    fb.block("entry", entry=True)
    i = fb.movi(0)
    fb.br_cond(fb.tlt(0, fb.movi(4)), "loop", "exit")
    fb.block("loop")
    fb.mov_to(i, fb.addi(i, 1))
    fb.br_cond(fb.tlt(i, fb.movi(8)), "loop", "exit")
    fb.block("exit")
    fb.mov_to(i, fb.addi(i, 3))
    fb.br("done")
    fb.block("done")
    fb.ret(i)
    return fb.finish()


def make_reentering_unroll_loop(name: str = "main") -> Function:
    """A single-block loop left through a block that branches back in.

    Blocks: entry -> loop -> {loop, back}, back -> {loop, done}.  Once
    ``loop`` is unrolled and then absorbs ``back``, the next unroll brings
    the edge ``loop -> back`` back: it closes the cycle ``loop -> back ->
    loop`` again, so it runs up in rank.
    """
    fb = FunctionBuilder(name)
    fb.block("entry", entry=True)
    i = fb.movi(0)
    fb.br("loop")
    fb.block("loop")
    fb.mov_to(i, fb.addi(i, 1))
    fb.br_cond(fb.tlt(i, fb.movi(8)), "loop", "back")
    fb.block("back")
    fb.mov_to(i, fb.addi(i, 3))
    fb.br_cond(fb.tlt(i, fb.movi(20)), "loop", "done")
    fb.block("done")
    fb.ret(i)
    return fb.finish()


def assert_forest_matches_fresh(forest: LoopForest, func: Function,
                                where: str = "") -> None:
    """A loop forest kept across commits equals a fresh one: same headers,
    back edges and immediate dominators, compared as sets."""
    tree = DominatorTree(func)
    fresh = LoopForest(func, domtree=tree)

    def facts(f: LoopForest):
        edges = {edge for loop in f.loops.values() for edge in loop.back_edges}
        return set(f.loops), edges

    assert facts(forest) == facts(fresh), where
    assert forest.idom == tree.idom, where


def fresh_height(block) -> int:
    """``dependence_height(block)`` computed without the block's shape."""
    return max(completion_depths(block), default=0)


def assert_shapes_match_fresh(func: Function, where: str = "") -> None:
    """Every block's cached shape equals a fresh scan of its instructions:
    successors, has-call flag, def and kill masks, and, wherever they
    were filled, the exposed mask and the dependence height."""
    for name, block in func.blocks.items():
        succs: list[str] = []
        mask = kill = 0
        for instr in block.instrs:
            target = instr.target
            if instr.op is Opcode.BR and target is not None:
                if target not in succs:
                    succs.append(target)
            if instr.dest is not None:
                mask |= 1 << instr.dest
                if instr.pred is None:
                    kill |= 1 << instr.dest
        has_call = any(instr.op is Opcode.CALL for instr in block.instrs)
        assert block.successors() == succs, (where, name)
        assert block.has_call() == has_call, (where, name)
        assert block.def_mask() == mask, (where, name)
        assert block.kill_mask() == kill, (where, name)
        shape = block.shape()
        if shape.exposed_mask is not None:
            # A block over the same instructions has nothing cached yet.
            scratch = BasicBlock(name, block.instrs)
            assert shape.exposed_mask == exposed_mask(scratch), (where, name)
        if shape.height is not None:
            assert shape.height == fresh_height(block), (where, name)


def assert_liveness_matches_fresh(live: Liveness, func: Function,
                                  where: str = "") -> None:
    """A liveness kept across commits equals a fresh solve, its components
    equal a fresh Tarjan's (as sets), and every edge between two
    components runs from the higher rank to the lower."""
    cfg = func.cfg()
    fresh = Liveness(func, cfg)
    assert live.live_in == fresh.live_in, where
    assert live.live_out == fresh.live_out, where
    kept = {frozenset(members) for members in live._members.values()}
    assert kept == {
        frozenset(comp) for comp in _tarjan_sccs(list(func.blocks), cfg.succs)
    }, where
    comp_of, rank = live._comp_of, live._rank
    assert set(comp_of) == set(func.blocks), where
    for src, succs in cfg.succs.items():
        for dst in succs:
            if comp_of[src] != comp_of[dst]:
                assert rank[comp_of[src]] > rank[comp_of[dst]], (where, src, dst)


def scan_edge_probability(profile, func: str, src: str, dst) -> float:
    """``ProfileData.edge_probability`` by its definition: this edge's
    count over the sum of every edge-table row leaving ``src``."""
    src = root_name(src)
    total = sum(
        count
        for (f, s, _), count in profile.edge_counts.items()
        if f == func and s == src
    )
    if total == 0:
        return 0.0
    return profile.edge_count(func, src, dst) / total


#: Seeds of the ``scaled-440-<seed>`` programs (``scaled_program(440,
#: seed)``) the post-formation oracles form under BF.
SCALED_440_SEEDS = (2006, 2007, 2008)


@functools.lru_cache(maxsize=None)
def profiled_program(name: str) -> tuple:
    """``(module, args, preload, profile)`` of a SPEC or microbenchmark
    workload, or of ``scaled-440-<seed>``, built and profiled once per
    session."""
    if name.startswith("scaled-440-"):
        seed = int(name.rsplit("-", 1)[1])
        module = scaled_program(440, seed)
        args, preload = random_inputs(seed), {}
    else:
        table = SPEC_BENCHMARKS if name in SPEC_BENCHMARKS else MICROBENCHMARKS
        workload = table[name]
        module = workload.module()
        args, preload = workload.args, workload.preload
    profile = collect_profile(module.copy(), args=args, preload=preload)
    return module, args, preload, profile


@functools.lru_cache(maxsize=None)
def formed_program(name: str, config: str) -> tuple:
    """``(module, stats, logs)``: ``profiled_program(name)`` formed under
    the Table-2 configuration ``config`` under a tracer, once per
    session; ``logs`` are the per-function decision logs of that run
    (``repro.obs.replay.log_from_trace``).  The golden pin and the
    post-formation oracles share it; copy the module before mutating
    it."""
    module, _, _, profile = profiled_program(name)
    module = module.copy()
    tracer = Tracer()
    traced = functools.partial(convergent.form_module, tracer=tracer)
    with mock.patch.object(experiment, "form_module", traced):
        stats = heuristic_config(config)(module, profile)
    return module, stats, log_from_trace(tracer)


def formed_programs(config: str) -> list:
    """The post-formation oracles' inputs under ``config``: the 19 SPEC
    and 24 microbenchmark programs, and under ``BF`` also
    ``scaled_program(440, 2006..2008)``, as ``(name, module, args,
    preload)``."""
    names = list(SPEC_ORDER) + list(MICROBENCH_ORDER)
    if config == "BF":
        names += [f"scaled-440-{seed}" for seed in SCALED_440_SEEDS]
    out = []
    for name in names:
        _, args, preload, _ = profiled_program(name)
        out.append((name, formed_program(name, config)[0], args, preload))
    return out


@pytest.fixture
def counting_loop_module() -> Module:
    return build_module(make_counting_loop())


@pytest.fixture
def diamond_module() -> Module:
    return build_module(make_diamond())


@pytest.fixture
def collatz_module() -> Module:
    return build_module(make_while_loop())
