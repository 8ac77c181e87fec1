"""Oracle for the interpreter's per-block counting and watched edges.

``Interpreter`` counts executed, nullified, load and store instructions
in locals and adds them to ``SimStats`` once per block, before a call
runs its callee and before an exception leaves the block.  Given a
``watch`` set it calls ``trace`` only on the edges in it.
``ProfileCollector`` watches only the edges its trip counting reads and
takes block and edge counts from the run's ``SimStats.edge_counts``.

The original interpreter loop, which wrote ``SimStats`` once per
instruction, and the original collector, which traced every block and
recorded it with ``ProfileData.record_step``, are kept below as
references.  On the programs of ``tests.conftest.formed_programs`` under
every Table-2 configuration, their unformed inputs and 16 random
programs, results, memory, every ``SimStats`` field, the trace events
and the collected profile tables must be equal, and so must the
exception, memory and ``SimStats`` of every error case.
"""

from __future__ import annotations

import pytest

from repro.analysis.loops import LoopForest
from repro.harness.tables import TABLE2_HEURISTICS
from repro.ir import FunctionBuilder, Instruction, Opcode, Predicate, build_module
from repro.ir.semantics import EVAL_BINOP, EvaluationError
from repro.profiles.collect import ProfileCollector
from repro.profiles.data import ProfileData
from repro.sim.functional import Interpreter, SimulationError
from repro.workloads.generators import random_inputs, random_program
from repro.workloads.microbench import MICROBENCH_ORDER
from repro.workloads.spec import SPEC_ORDER
from tests.conftest import SCALED_440_SEEDS, formed_programs, profiled_program

# The original kind codes, so the reference compiles blocks on its own.
_K_BIN, _K_MOVI, _K_MOV, _K_LOAD, _K_STORE, _K_BR = range(6)
_K_RET, _K_CALL, _K_NOT, _K_NEG, _K_NULL = range(6, 11)


class ReferenceInterpreter(Interpreter):
    """The original loop: ``SimStats`` counters written once per
    instruction and ``trace`` called after every block."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._reference_compiled = {}

    def _reference_compile(self, func, block_name):
        compiled = []
        for instr in func.blocks[block_name].instrs:
            pred = instr.pred
            guard = (pred.reg, pred.sense) if pred is not None else None
            op = instr.op
            if op in EVAL_BINOP:
                entry = (_K_BIN, EVAL_BINOP[op], instr.dest, instr.srcs, guard, instr)
            elif op is Opcode.MOVI:
                entry = (_K_MOVI, instr.imm, instr.dest, (), guard, instr)
            elif op in (Opcode.MOV, Opcode.FANOUT):
                entry = (_K_MOV, None, instr.dest, instr.srcs, guard, instr)
            elif op is Opcode.NOT:
                entry = (_K_NOT, None, instr.dest, instr.srcs, guard, instr)
            elif op is Opcode.NEG:
                entry = (_K_NEG, None, instr.dest, instr.srcs, guard, instr)
            elif op is Opcode.LOAD:
                entry = (_K_LOAD, instr.imm or 0, instr.dest, instr.srcs, guard, instr)
            elif op is Opcode.STORE:
                entry = (_K_STORE, instr.imm or 0, None, instr.srcs, guard, instr)
            elif op is Opcode.BR:
                entry = (_K_BR, instr.target, None, (), guard, instr)
            elif op is Opcode.RET:
                entry = (_K_RET, None, None, instr.srcs, guard, instr)
            elif op is Opcode.CALL:
                entry = (_K_CALL, instr.callee, instr.dest, instr.srcs, guard, instr)
            elif op in (Opcode.NULLW, Opcode.NULLS):
                entry = (_K_NULL, None, instr.dest, (), guard, instr)
            else:
                raise SimulationError(f"cannot interpret {instr!r}")
            compiled.append(entry)
        return compiled

    def _reference_block(self, func, block_name):
        key = (func.name, block_name)
        cached = self._reference_compiled.get(key)
        if cached is None:
            cached = self._reference_compile(func, block_name)
            self._reference_compiled[key] = cached
        return cached

    def _call(self, func_name, args):
        self._call_depth += 1
        if self._call_depth > self._max_call_depth:
            raise SimulationError("call depth limit exceeded")
        try:
            func = self.module.function(func_name)
            if len(args) != len(func.params):
                raise SimulationError(
                    f"@{func_name} expects {len(func.params)} args, got {len(args)}"
                )
            regs = dict(zip(func.params, args))
            block_name = func.entry
            stats = self.stats
            memory = self.memory
            get = regs.get
            while True:
                stats.blocks_executed += 1
                if stats.blocks_executed > self.max_blocks:
                    raise SimulationError("dynamic block limit exceeded")
                if (
                    stats.instrs_executed + stats.instrs_nullified
                    > self.max_steps
                ):
                    raise SimulationError("dynamic step limit exceeded")
                key = (func_name, block_name)
                stats.block_counts[key] = stats.block_counts.get(key, 0) + 1
                fired = None
                fired_target = None
                is_return = False
                ret_value = 0
                nullified = []
                for index, (kind, aux, dest, srcs, guard, instr) in enumerate(
                    self._reference_block(func, block_name)
                ):
                    if guard is not None:
                        pval = get(guard[0], 0)
                        if bool(pval) != guard[1]:
                            stats.instrs_nullified += 1
                            nullified.append(index)
                            continue
                    stats.instrs_executed += 1
                    if kind == _K_BIN:
                        regs[dest] = aux(get(srcs[0], 0), get(srcs[1], 0))
                    elif kind == _K_MOVI:
                        regs[dest] = aux
                    elif kind == _K_MOV:
                        regs[dest] = get(srcs[0], 0)
                    elif kind == _K_LOAD:
                        stats.loads += 1
                        regs[dest] = memory.get(get(srcs[0], 0) + aux, 0)
                    elif kind == _K_STORE:
                        stats.stores += 1
                        memory[get(srcs[0], 0) + aux] = get(srcs[1], 0)
                    elif kind == _K_BR:
                        if fired is not None:
                            raise SimulationError(
                                f"@{func_name}/{block_name}: multiple branches "
                                f"fired ({fired!r} then {instr!r})"
                            )
                        fired = instr
                        fired_target = aux
                    elif kind == _K_RET:
                        if fired is not None:
                            raise SimulationError(
                                f"@{func_name}/{block_name}: multiple branches "
                                f"fired ({fired!r} then {instr!r})"
                            )
                        fired = instr
                        is_return = True
                        ret_value = get(srcs[0], 0) if srcs else 0
                    elif kind == _K_CALL:
                        stats.calls += 1
                        call_args = tuple(get(s, 0) for s in srcs)
                        regs[dest] = self._call(aux, call_args)
                    elif kind == _K_NOT:
                        regs[dest] = 0 if get(srcs[0], 0) else 1
                    elif kind == _K_NEG:
                        regs[dest] = -get(srcs[0], 0)
                    elif kind == _K_NULL:
                        if dest is not None:
                            regs[dest] = 0
                if fired is None:
                    raise SimulationError(
                        f"@{func_name}/{block_name}: no branch fired"
                    )
                edge = (func_name, block_name, fired_target)
                stats.edge_counts[edge] = stats.edge_counts.get(edge, 0) + 1
                if self.trace is not None:
                    self.trace(
                        func_name, block_name, fired, self._call_depth,
                        nullified,
                    )
                if is_return:
                    return ret_value
                block_name = fired_target
        finally:
            self._call_depth -= 1


class ReferenceCollector:
    """The original collector: every block traced, recorded with
    ``record_step`` and fed to the loop tracker."""

    def __init__(self, module):
        self.module = module
        self.profile = ProfileData()
        self.membership = {}
        self.headers = {}
        for func in module:
            forest = LoopForest(func)
            table = {}
            for name in func.blocks:
                loops = []
                loop = forest.innermost_loop(name)
                while loop is not None:
                    loops.append(loop.header)
                    loop = loop.parent
                table[name] = tuple(loops)
            self.membership[func.name] = table
            self.headers[func.name] = set(forest.loops)
        self._active = {}

    def _record_step(self, func, block, dst):
        profile = self.profile
        key = (func, block)
        profile.block_counts[key] = profile.block_counts.get(key, 0) + 1
        profile.total_blocks += 1
        edge = (func, block, dst)
        profile.edge_counts[edge] = profile.edge_counts.get(edge, 0) + 1

    def _on_block(self, func, block, fired, depth, nullified=()):
        profile = self.profile
        target = fired.target if fired.op is Opcode.BR else None
        self._record_step(func, block, target)

        key = (depth, func)
        active = self._active.get(key)
        if active is None:
            active = self._active[key] = {}
        membership = self.membership[func]
        in_loops = membership.get(block, ())

        if block in self.headers[func]:
            active[block] = active.get(block, 0) + 1

        if target is None:
            for header, trips in active.items():
                profile.record_trip(func, header, trips)
            active.clear()
            return

        dst_loops = set(membership.get(target, ()))
        for header in tuple(active):
            if header in in_loops and header not in dst_loops:
                profile.record_trip(func, header, active.pop(header))

    def run(self, args=(), preload=None):
        interp = ReferenceInterpreter(self.module, trace=self._on_block)
        for base, values in (preload or {}).items():
            interp.preload(base, values)
        return interp.run("main", args)


INPUTS = (*TABLE2_HEURISTICS, "BB", "random")


def programs(inputs: str) -> list:
    """``(name, module, args, preload)`` of one input set: the formed
    programs of a Table-2 configuration, their unformed inputs
    (``BB``), or ``random_program(0..15)``."""
    if inputs == "random":
        return [
            (f"random-{seed}", random_program(seed), random_inputs(seed), {})
            for seed in range(16)
        ]
    if inputs == "BB":
        names = [*SPEC_ORDER, *MICROBENCH_ORDER]
        names += [f"scaled-440-{seed}" for seed in SCALED_440_SEEDS]
        return [(name, *profiled_program(name)[:3]) for name in names]
    return formed_programs(inputs)


def _run(interp_class, module, args, preload, **kwargs):
    """Run ``main``; return (result or exception, memory, stats, events)."""
    events = []
    interp = interp_class(
        module,
        trace=lambda f, b, fired, depth, nullified: events.append(
            (f, b, fired.uid, depth, nullified)
        ),
        **kwargs,
    )
    for base, values in (preload or {}).items():
        interp.preload(base, values)
    try:
        outcome = interp.run("main", args)
    except (SimulationError, EvaluationError) as exc:
        outcome = (type(exc), str(exc))
    return outcome, interp.memory, vars(interp.stats), events


@pytest.mark.parametrize("inputs", INPUTS)
def test_interpreter_matches_reference(inputs):
    for name, module, args, preload in programs(inputs):
        want = _run(ReferenceInterpreter, module, args, preload)
        assert _run(Interpreter, module, args, preload) == want, name
        # A watch set narrows the trace to its edges, nothing else.
        watch = set(list(want[2]["edge_counts"])[::2])
        got = _run(Interpreter, module, args, preload, watch=watch)
        assert got[:3] == want[:3], name
        target = {
            instr.uid: instr.target if instr.op is Opcode.BR else None
            for func in module
            for block in func.blocks.values()
            for instr in block.instrs
        }
        assert got[3] == [
            event for event in want[3]
            if (event[0], event[1], target[event[2]]) in watch
        ], name


def _tables(profile):
    return (profile.edge_counts, profile.block_counts,
            profile.trip_histograms, profile.total_blocks)


@pytest.mark.parametrize("inputs", INPUTS)
def test_collector_matches_reference(inputs):
    for name, module, args, preload in programs(inputs):
        reference, collector = ReferenceCollector(module), ProfileCollector(module)
        # Profiles are collected on basic-block programs; there two runs
        # into one collector must add up too.
        for run in (1, 2) if inputs in ("BB", "random") else (1,):
            want = reference.run(args=args, preload=preload)
            got, _ = collector.run(args=args, preload=preload)
            assert got == want, (name, run)
            assert _tables(collector.profile) == _tables(reference.profile), (
                name, run,
            )


# -- error cases ---------------------------------------------------------


def _calling_module():
    """``main`` loads, stores, nullifies and calls ``f`` twice; ``f``
    loops ``n`` times over a store and a nullified move."""
    f = FunctionBuilder("f", nparams=1)
    f.block("entry", entry=True)
    i = f.movi(0)
    f.br("head")
    f.block("head")
    f.br_cond(f.tlt(i, 0), "body", "exit")
    f.block("body")
    f.store(f.movi(64), i, offset=1)
    never = f.tlt(i, f.movi(0))
    f.movi(9, pred=Predicate(never, True))
    f.mov_to(i, f.addi(i, 1))
    f.br("head")
    f.block("exit")
    f.ret(i)

    main = FunctionBuilder("main", nparams=1)
    main.block("entry", entry=True)
    base = main.movi(100)
    loaded = main.load(base, offset=2)
    main.store(base, loaded, offset=3)
    off = main.tlt(0, main.movi(0))
    main.movi(7, pred=Predicate(off, True))
    first = main.call("f", 0)
    main.store(base, first, offset=4)
    second = main.call("f", main.add(first, loaded))
    main.br("done")
    main.block("done")
    main.ret(main.add(first, second))
    return build_module(main.finish(), f.finish())


def _raising_modules():
    """One module per raise the interpreter can meet mid-block."""
    recursive = FunctionBuilder("main", nparams=1)
    recursive.block("entry", entry=True)
    recursive.store(recursive.movi(8), 0)
    recursive.ret(recursive.call("main", recursive.addi(0, 1)))

    two = FunctionBuilder("main", nparams=1)
    two.block("entry", entry=True)
    two.store(two.movi(8), two.load(two.movi(4)))
    c = two.movi(1)
    two.br("entry", pred=Predicate(c, True))
    two.current.append(Instruction(Opcode.RET, pred=Predicate(c, True)))

    none = FunctionBuilder("main", nparams=1)
    none.block("entry", entry=True)
    none.store(none.movi(8), 0)
    zero = none.movi(0)
    none.movi(3, pred=Predicate(zero, True))
    none.br("entry", pred=Predicate(zero, True))

    divide = FunctionBuilder("main", nparams=1)
    divide.block("entry", entry=True)
    divide.store(divide.movi(8), 0)
    divide.ret(divide.call("quot", 0))
    quot = FunctionBuilder("quot", nparams=1)
    quot.block("entry", entry=True)
    quot.store(quot.movi(9), quot.load(quot.movi(4)))
    quot.ret(quot.div(0, quot.movi(0)))

    return {
        "call-depth": build_module(recursive.finish()),
        "two-branches": build_module(two.finish()),
        "no-branch": build_module(none.finish()),
        "division-by-zero": build_module(divide.finish(), quot.finish()),
    }


@pytest.mark.parametrize("limit", ["max_steps", "max_blocks"])
def test_limits_raise_like_the_reference(limit):
    module = _calling_module()
    preload = {100: [0, 0, 5]}
    _, _, stats, _ = _run(ReferenceInterpreter, module, (3,), preload)
    total = stats["blocks_executed"] if limit == "max_blocks" else (
        stats["instrs_executed"] + stats["instrs_nullified"]
    )
    raised = 0
    for value in range(total + 2):
        want = _run(ReferenceInterpreter, module, (3,), preload, **{limit: value})
        assert _run(Interpreter, module, (3,), preload, **{limit: value}) == want
        raised += isinstance(want[0], tuple)
    assert raised > 1


@pytest.mark.parametrize("case", sorted(_raising_modules()))
def test_errors_raise_like_the_reference(case):
    module = _raising_modules()[case]
    want = _run(ReferenceInterpreter, module, (2,), {4: [6]})
    assert isinstance(want[0], tuple)
    assert _run(Interpreter, module, (2,), {4: [6]}) == want
