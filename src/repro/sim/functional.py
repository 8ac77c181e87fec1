"""Functional (architectural) simulator for the predicated IR.

Executes a module instruction by instruction with classic predicated
semantics: a predicated-false instruction writes nothing and a
predicated-false branch does not fire.  The simulator doubles as the
dynamic verifier of the hyperblock invariant — on every block execution it
checks that *exactly one* branch fires — and as the measurement substrate
for block counts (Table 3 of the paper) and profile collection.

The simulator is deliberately fast-path oriented: each block is compiled
once per :class:`Interpreter` instance into a flat tuple form and executed
by a tight dispatch loop over a register file held in a list indexed by
register number.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.ir.function import Function, Module
from repro.ir.instruction import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.semantics import EVAL_BINOP


class SimulationError(Exception):
    """Raised on dynamic invariant violations or runaway executions."""


class SimStats:
    """Counters accumulated over one program execution."""

    def __init__(self) -> None:
        self.blocks_executed = 0
        self.instrs_executed = 0
        self.instrs_nullified = 0
        self.loads = 0
        self.stores = 0
        self.calls = 0
        self.block_counts: dict[tuple[str, str], int] = {}
        self.edge_counts: dict[tuple[str, str, Optional[str]], int] = {}

    def __repr__(self) -> str:
        return (
            f"<SimStats blocks={self.blocks_executed} "
            f"instrs={self.instrs_executed} nullified={self.instrs_nullified}>"
        )


# Compiled-instruction kind codes (small ints dispatch faster than enums),
# numbered in the order the dispatch tests them: by dynamic frequency on
# the SPEC surrogates (profile runs plus formed programs).
_K_BIN = 0  # binary arithmetic with python function
_K_MOVI = 1
_K_LOAD = 2
_K_BR = 3
_K_NOT = 4
_K_MOV = 5
_K_STORE = 6
_K_RET = 7
_K_CALL = 8
_K_NEG = 9
_K_NULL = 10  # NULLW / NULLS (null tokens)


_BINOPS = EVAL_BINOP


def register_file_size(func: Function) -> int:
    """One past the largest register ``func``'s parameters and
    instructions name: the length of a register file indexed by register
    number."""
    regs = list(func.params)
    for block in func.blocks.values():
        for instr in block.instrs:
            regs += instr.uses()
            if instr.dest is not None:
                regs.append(instr.dest)
    return max(regs, default=-1) + 1


class Interpreter:
    """Executes a :class:`Module`, gathering :class:`SimStats`.

    Args:
        module: the program.
        max_blocks: abort after this many dynamic block executions.
        max_steps: abort after this many dynamic instruction events
            (executed + nullified); bounds runaway straight-line code the
            same way ``max_blocks`` bounds runaway control flow.
        trace: optional callback ``(func_name, block_name, fired_instr,
            depth, nullified)`` invoked after each block execution;
            ``fired_instr`` is the branch :class:`Instruction` that fired
            (``BR`` or ``RET``), ``depth`` the current call depth (1 for
            the outermost call) and ``nullified`` the list of instruction
            indices whose predicates evaluated false on this execution
            in ascending order (needed by the timing model: nullified
            instructions resolve as null tokens at predicate time, they do
            not execute); each execution gets a fresh list.
        watch: optional set of ``(func_name, block_name, target)`` edges
            (``target`` ``None`` for a return); when given, ``trace`` is
            invoked only after an execution that left along one of them.
            Block and edge counts are in :class:`SimStats` either way.
    """

    def __init__(
        self,
        module: Module,
        max_blocks: int = 5_000_000,
        max_steps: int = 100_000_000,
        trace: Optional[Callable[[str, str, Instruction, int, list], None]] = None,
        watch: Optional[set[tuple[str, str, Optional[str]]]] = None,
    ):
        self.module = module
        self.max_blocks = max_blocks
        self.max_steps = max_steps
        self.trace = trace
        self.watch = watch
        self.memory: dict[int, object] = {}
        self.stats = SimStats()
        #: function name -> (function, register-file length, block name
        #: -> compiled block), filled as execution reaches them
        self._functions: dict[str, tuple[Function, int, dict[str, tuple]]] = {}
        self._call_depth = 0
        self._max_call_depth = 200

    # -- memory helpers ---------------------------------------------------

    def preload(self, base: int, values) -> None:
        """Write ``values`` into memory starting at address ``base``."""
        for offset, value in enumerate(values):
            self.memory[base + offset] = value

    # -- compilation ----------------------------------------------------

    def _compile_block(self, func: Function, block_name: str, sink: int) -> tuple:
        """``((function, block) key, entries)``.  A branch entry's ``aux``
        is its ``(function, block, target)`` edge key, ``target`` ``None``
        for a return; an instruction without a destination writes the
        register file's ``sink`` slot, which nothing reads."""
        compiled = []
        for instr in func.blocks[block_name].instrs:
            op = instr.op
            if op in _BINOPS:
                kind, aux = _K_BIN, _BINOPS[op]
            elif op is Opcode.MOVI:
                kind, aux = _K_MOVI, instr.imm
            elif op in (Opcode.MOV, Opcode.FANOUT):
                kind, aux = _K_MOV, None
            elif op is Opcode.NOT:
                kind, aux = _K_NOT, None
            elif op is Opcode.NEG:
                kind, aux = _K_NEG, None
            elif op is Opcode.LOAD:
                kind, aux = _K_LOAD, instr.imm or 0
            elif op is Opcode.STORE:
                kind, aux = _K_STORE, instr.imm or 0
            elif op is Opcode.BR:
                kind, aux = _K_BR, (func.name, block_name, instr.target)
            elif op is Opcode.RET:
                kind, aux = _K_RET, (func.name, block_name, None)
            elif op is Opcode.CALL:
                kind, aux = _K_CALL, instr.callee
            elif op in (Opcode.NULLW, Opcode.NULLS):
                kind, aux = _K_NULL, None
            else:  # pragma: no cover - exhaustiveness guard
                raise SimulationError(f"cannot interpret {instr!r}")
            dest = instr.dest if instr.dest is not None else sink
            pred = instr.pred
            guard, sense = (None, None) if pred is None else (pred.reg, pred.sense)
            compiled.append((kind, aux, dest, instr.srcs, guard, sense, instr))
        return (func.name, block_name), compiled

    # -- execution --------------------------------------------------------

    def run(self, func_name: str = "main", args: tuple = ()) -> object:
        """Execute ``func_name(*args)`` and return its result."""
        if func_name not in self.module:
            raise SimulationError(f"no function @{func_name}")
        return self._call(func_name, tuple(args))

    def _call(self, func_name: str, args: tuple) -> object:
        self._call_depth += 1
        if self._call_depth > self._max_call_depth:
            raise SimulationError("call depth limit exceeded")
        try:
            table = self._functions.get(func_name)
            if table is None:
                func = self.module.function(func_name)
                table = (func, register_file_size(func), {})
                self._functions[func_name] = table
            func, size, blocks = table
            if len(args) != len(func.params):
                raise SimulationError(
                    f"@{func_name} expects {len(func.params)} args, got {len(args)}"
                )
            # A register never written reads 0; the slot past the last
            # register is the sink of instructions without a destination.
            regs = [0] * (size + 1)
            for reg, value in zip(func.params, args):
                regs[reg] = value
            block_name = func.entry
            stats = self.stats
            memory = self.memory
            block_counts = stats.block_counts
            edge_counts = stats.edge_counts
            max_blocks = self.max_blocks
            max_steps = self.max_steps
            trace = self.trace
            watch = self.watch
            depth = self._call_depth
            while True:
                stats.blocks_executed += 1
                if stats.blocks_executed > max_blocks:
                    raise SimulationError("dynamic block limit exceeded")
                if stats.instrs_executed + stats.instrs_nullified > max_steps:
                    raise SimulationError("dynamic step limit exceeded")
                compiled = blocks.get(block_name)
                if compiled is None:
                    compiled = blocks[block_name] = self._compile_block(
                        func, block_name, size
                    )
                key, code = compiled
                block_counts[key] = block_counts.get(key, 0) + 1
                fired: Optional[Instruction] = None
                edge = None
                is_return = False
                ret_value: object = 0
                nullified: list[int] = []
                # Counted in locals and added to ``stats`` when the block
                # ends, raises, or calls (the callee's limit checks read
                # the totals).
                executed = nulls = loads = stores = 0
                try:
                    for index, entry in enumerate(code):
                        kind, aux, dest, srcs, guard, sense, instr = entry
                        if guard is not None and (not regs[guard]) == sense:
                            nulls += 1
                            nullified.append(index)
                            continue
                        executed += 1
                        if kind == _K_BIN:
                            regs[dest] = aux(regs[srcs[0]], regs[srcs[1]])
                        elif kind == _K_MOVI:
                            regs[dest] = aux
                        elif kind == _K_LOAD:
                            loads += 1
                            regs[dest] = memory.get(regs[srcs[0]] + aux, 0)
                        elif kind == _K_BR:
                            if fired is not None:
                                raise SimulationError(
                                    f"@{func_name}/{block_name}: multiple "
                                    f"branches fired ({fired!r} then {instr!r})"
                                )
                            fired = instr
                            edge = aux
                        elif kind == _K_NOT:
                            regs[dest] = 0 if regs[srcs[0]] else 1
                        elif kind == _K_MOV:
                            regs[dest] = regs[srcs[0]]
                        elif kind == _K_STORE:
                            stores += 1
                            memory[regs[srcs[0]] + aux] = regs[srcs[1]]
                        elif kind == _K_RET:
                            if fired is not None:
                                raise SimulationError(
                                    f"@{func_name}/{block_name}: multiple "
                                    f"branches fired ({fired!r} then {instr!r})"
                                )
                            fired = instr
                            edge = aux
                            is_return = True
                            ret_value = regs[srcs[0]] if srcs else 0
                        elif kind == _K_CALL:
                            stats.instrs_executed += executed
                            stats.instrs_nullified += nulls
                            stats.loads += loads
                            stats.stores += stores
                            executed = nulls = loads = stores = 0
                            stats.calls += 1
                            call_args = tuple([regs[s] for s in srcs])
                            regs[dest] = self._call(aux, call_args)
                        elif kind == _K_NEG:
                            regs[dest] = -regs[srcs[0]]
                        elif kind == _K_NULL:
                            regs[dest] = 0
                finally:
                    stats.instrs_executed += executed
                    stats.instrs_nullified += nulls
                    stats.loads += loads
                    stats.stores += stores
                if fired is None:
                    raise SimulationError(
                        f"@{func_name}/{block_name}: no branch fired"
                    )
                edge_counts[edge] = edge_counts.get(edge, 0) + 1
                if trace is not None and (watch is None or edge in watch):
                    trace(func_name, block_name, fired, depth, nullified)
                if is_return:
                    return ret_value
                block_name = edge[2]
        finally:
            self._call_depth -= 1


def run_module(
    module: Module,
    args: tuple = (),
    preload: Optional[dict[int, list]] = None,
    max_blocks: int = 5_000_000,
    max_steps: int = 100_000_000,
) -> tuple[object, SimStats, dict[int, object]]:
    """Convenience wrapper: run ``main`` and return (result, stats, memory)."""
    interp = Interpreter(module, max_blocks=max_blocks, max_steps=max_steps)
    if preload:
        for base, values in preload.items():
            interp.preload(base, values)
    result = interp.run("main", args)
    return result, interp.stats, interp.memory
