"""TRIPS-like cycle timing model (block-pipelined dataflow simulation).

The model consumes the dynamic block trace produced by the functional
simulator and computes a cycle count that is sensitive to exactly the
effects the paper's evaluation hinges on:

- **per-block overhead** — every dynamic block pays fetch/map latency, so
  merging blocks (fewer, fuller blocks) directly buys cycles;
- **next-block mispredictions** — a wrong exit prediction flushes the
  speculative window and restarts fetch after the branch resolves;
- **dataflow dependence height** — instructions issue when their operands
  (including the predicate) arrive; the extra predication that tail
  duplication introduces lengthens real dependence chains (the paper's
  bzip2_3 pathology), while falsely-predicated long paths do *not* delay
  commit beyond their own output resolution;
- **issue contention** — all in-flight instructions share ``issue_width``
  slots per cycle, so speculative useless instructions cost bandwidth;
- **window pressure** — at most ``window_blocks`` blocks are in flight;
  small blocks waste window capacity.

Within a block the schedule is a greedy list schedule over the dataflow
graph; across blocks, register ready times are forwarded and fetch is
pipelined.  The simulation is O(dynamic instructions).

Next-block prediction is a small tournament.  TRIPS fetches blocks
speculatively, and a hyperblock's "branch" for prediction purposes is
*which exit fires*.  Each block keeps a table from the global exit
history (``MachineConfig.history_bits`` wide) to a last target with 2-bit
hysteresis, which captures patterned exits such as a loop that
alternates, and falls back to a per-block last-target entry when the
history entry is cold.  Returns are predicted by a return-address stack,
which the model treats as perfect, so a return is always correct and
neither trains the tables nor enters the history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ir.function import Module
from repro.ir.opcodes import Opcode
from repro.sim.functional import Interpreter, SimStats, register_file_size
from repro.sim.machine import TRIPS_MACHINE, MachineConfig


@dataclass
class TimingStats:
    """Results of one timing simulation.  ``blocks`` and ``instructions``
    are the functional run's executed blocks and instructions."""

    cycles: int = 0
    blocks: int = 0
    instructions: int = 0
    mispredictions: int = 0

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.blocks if self.blocks else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def __repr__(self) -> str:
        return (
            f"<TimingStats cycles={self.cycles} blocks={self.blocks} "
            f"mispredicts={self.mispredictions}>"
        )


def _history_bits(target: str) -> int:
    """The three bits a taken exit to ``target`` shifts into the global
    history: a stable hash of the name (``hash(str)`` is randomized per
    process and would make cycle counts irreproducible)."""
    value = 0
    for ch in target:
        value = (value * 131 + ord(ch)) & 0xFFFF
    return value & 0x7


class _BlockTiming:
    """Static per-block facts, compiled once, and the block's predictor
    state, both reused by every execution.

    An execution keeps one list of operand times: each instruction's
    completion time at its index, then one slot that always holds 0,
    then the ready time of each register the block reads before defining
    it (``inputs``, read once when the execution starts).  Every source
    and predicate is compiled to its index in that list: the last earlier
    definition in the block, executed or nullified (both resolve a time),
    else the register's input.  Each instruction has three fixed operand
    slots, padded with the zero slot, and any further operands in
    ``rest``; a 0 never delays an issue, which starts at the block's map
    time or later.
    """

    __slots__ = (
        "instrs", "blank", "inputs", "outputs", "exits", "map_cycles",
        "reg_ready", "pattern", "fallback",
    )

    def __init__(self, block, reg_ready: list, config: MachineConfig):
        size = zero = len(block.instrs)
        slot_of: dict[int, int] = {}  # register -> index of its time
        inputs: list[int] = []

        def operand(reg: int) -> int:
            slot = slot_of.get(reg)
            if slot is None:
                slot = slot_of[reg] = zero + 1 + len(inputs)
                inputs.append(reg)
            return slot

        #: (latency + route, three operands incl. predicate, further
        #: operands, predicate operand)
        self.instrs = []
        #: branch uid -> (its index, its target or ``None`` for a return,
        #: the history bits of that target); the branch that fires
        #: resolves the exit
        self.exits: dict[int, tuple[int, Optional[str], int]] = {}
        for index, instr in enumerate(block.instrs):
            cost = instr.latency + config.route_latency
            if instr.op is Opcode.LOAD:
                cost += config.load_extra
            # ``uses()`` lists the predicate register last.
            operands = [operand(reg) for reg in instr.uses()]
            pred = operands[-1] if instr.pred is not None else zero
            operands += [zero] * (3 - len(operands))
            self.instrs.append(
                (cost, operands[0], operands[1], operands[2],
                 tuple(operands[3:]), pred)
            )
            if instr.dest is not None:
                slot_of[instr.dest] = index
            if instr.op is Opcode.BR:
                self.exits[instr.uid] = (
                    index, instr.target, _history_bits(instr.target)
                )
            elif instr.op is Opcode.RET:
                self.exits[instr.uid] = (index, None, 0)
        #: the operand times before any instruction resolves
        self.blank = [0] * (size + 1)
        self.inputs = inputs
        #: (register, index of its last definition) per register written
        self.outputs = [
            (reg, slot) for reg, slot in slot_of.items() if slot < size
        ]
        #: cycles from fetch until an instruction may issue
        self.map_cycles = config.map_latency + config.block_fetch_cycles(size)
        #: the ready times of the function's registers, shared with every
        #: other block and activation of the function
        self.reg_ready = reg_ready
        #: global history -> [target, confidence 1..3]
        self.pattern: dict[int, list] = {}
        #: [last target, confidence 1..3], or ``None`` before the block
        #: first leaves by a branch
        self.fallback: Optional[list] = None


class TimingSimulator:
    """Runs a module functionally while accumulating a cycle model."""

    def __init__(self, module: Module, config: Optional[MachineConfig] = None):
        self.module = module
        self.config = config = config or TRIPS_MACHINE
        self.stats = TimingStats()
        #: function -> block name -> its compiled timing
        self._block_cache: dict[str, dict[str, _BlockTiming]] = {}
        #: function -> cycle each register's value reaches a later block,
        #: indexed by register number and shared by every activation
        self._reg_ready: dict[str, list[int]] = {}
        self._history_mask = (1 << config.history_bits) - 1
        # Microarchitectural clock state, read into locals when a block
        # starts and written back when it ends.
        #: issue cycle -> instructions issued in it
        self._issued: dict[int, int] = {}
        self._next_fetch = 0
        self._last_commit = 0
        #: global exit history, ``config.history_bits`` wide
        self._history = 0
        #: commit times of the last ``window_blocks`` blocks, oldest at
        #: ``_ring_pos``; 0 before a block fills the slot
        self._ring = [0] * config.window_blocks
        self._ring_pos = 0
        #: the functional run behind the last :meth:`run` as ``run_module``
        #: returns it: (return value, ``SimStats``, memory)
        self.functional: Optional[tuple[object, SimStats, dict]] = None

    # -- driving --------------------------------------------------------------

    def run(
        self,
        args: tuple = (),
        preload: Optional[dict[int, list]] = None,
        func_name: str = "main",
        max_blocks: int = 5_000_000,
    ) -> TimingStats:
        interp = Interpreter(
            self.module, max_blocks=max_blocks, trace=self._on_block
        )
        if preload:
            for base, values in preload.items():
                interp.preload(base, values)
        result = interp.run(func_name, args)
        # Keep the results, not the interpreter: its trace hook refers to
        # this simulator, and that cycle would keep both alive until the
        # cyclic garbage collector ran.
        self.functional = (result, interp.stats, interp.memory)
        stats = self.stats
        stats.cycles = self._last_commit
        stats.blocks = interp.stats.blocks_executed
        stats.instructions = interp.stats.instrs_executed
        return stats

    # -- per-block timing ------------------------------------------------------

    def _compile(self, func_name: str, block_name: str) -> _BlockTiming:
        func = self.module.function(func_name)
        blocks = self._block_cache.get(func_name)
        if blocks is None:
            blocks = self._block_cache[func_name] = {}
            self._reg_ready[func_name] = [0] * register_file_size(func)
        timing = blocks[block_name] = _BlockTiming(
            func.blocks[block_name], self._reg_ready[func_name], self.config
        )
        return timing

    def _on_block(
        self,
        func_name: str,
        block_name: str,
        fired,
        depth: int,
        nullified: list,
    ) -> None:
        blocks = self._block_cache.get(func_name)
        timing = None if blocks is None else blocks.get(block_name)
        if timing is None:
            timing = self._compile(func_name, block_name)
        config = self.config
        reg_ready = timing.reg_ready
        issued = self._issued
        ring = self._ring
        ring_pos = self._ring_pos
        last_commit = self._last_commit

        # Fetch: pipelined behind the previous block, limited by the window.
        fetch = self._next_fetch
        oldest = ring[ring_pos]
        if oldest > fetch:
            fetch = oldest
        map_done = fetch + timing.map_cycles

        # Dataflow schedule.  A nullified instruction (predicate evaluated
        # false) does not execute: it resolves as a null token one cycle
        # after its predicate arrives, without taking an issue slot — this
        # is why a long dependence chain on a falsely-predicated path does
        # not delay block commit on an EDGE machine (paper, Section 5).
        # An executed instruction issues in the first cycle from its last
        # operand's arrival that has a free issue slot.
        times = timing.blank + [reg_ready[reg] for reg in timing.inputs]
        issued_get = issued.get
        width = config.issue_width
        block_done = map_done
        # ``nullified`` is ascending: walk it with a cursor.
        count = len(nullified)
        cursor = 0
        next_null = nullified[0] if count else -1
        for index, (cost, a, b, c, rest, pred) in enumerate(timing.instrs):
            if index == next_null:
                cursor += 1
                next_null = nullified[cursor] if cursor < count else -1
                t = times[pred]
                done = (t if t > map_done else map_done) + 1
            else:
                ready = map_done
                t = times[a]
                if t > ready:
                    ready = t
                t = times[b]
                if t > ready:
                    ready = t
                t = times[c]
                if t > ready:
                    ready = t
                if rest:
                    for slot in rest:
                        t = times[slot]
                        if t > ready:
                            ready = t
                used = issued_get(ready, 0)
                while used >= width:
                    ready += 1
                    used = issued_get(ready, 0)
                issued[ready] = used + 1
                done = ready + cost
            times[index] = done
            if done > block_done:
                block_done = done

        # Commit: in order, all outputs produced.
        if block_done > last_commit:
            last_commit = block_done
        last_commit += config.commit_overhead
        self._last_commit = last_commit
        ring[ring_pos] = last_commit
        ring_pos += 1
        self._ring_pos = ring_pos if ring_pos < len(ring) else 0

        # Forward register outputs to later blocks.
        forward = config.interblock_forward
        for reg, index in timing.outputs:
            reg_ready[reg] = times[index] + forward

        # Next-block prediction decides where fetch resumes.
        exit_index, target, bits = timing.exits[fired.uid]
        if target is None:
            correct = True  # the return-address stack
        else:
            history = self._history
            entry = timing.pattern.get(history)
            fallback = timing.fallback
            if fallback is None:
                # Cold block: charge no misprediction (warm-up).
                timing.fallback = [target, 1]
                timing.pattern[history] = [target, 1]
                correct = True
            else:
                if entry is None:
                    timing.pattern[history] = [target, 1]
                    correct = fallback[0] == target
                    trained = (fallback,)
                else:
                    correct = entry[0] == target
                    trained = (entry, fallback)
                # 2-bit hysteresis: a miss first costs confidence, and
                # replaces the target only at the lowest.
                for entry in trained:
                    if entry[0] == target:
                        if entry[1] < 3:
                            entry[1] += 1
                    elif entry[1] > 1:
                        entry[1] -= 1
                    else:
                        entry[0] = target
            self._history = ((history << 1) ^ bits) & self._history_mask
        if correct:
            self._next_fetch = fetch + config.fetch_gap
        else:
            self.stats.mispredictions += 1
            self._next_fetch = times[exit_index] + config.mispredict_penalty

        # Keep the issue table from growing without bound.
        if len(issued) > 65536:
            horizon = last_commit - 1024
            self._issued = {t: n for t, n in issued.items() if t >= horizon}


def simulate_cycles(
    module: Module,
    args: tuple = (),
    preload: Optional[dict[int, list]] = None,
    config: Optional[MachineConfig] = None,
    max_blocks: int = 5_000_000,
) -> TimingStats:
    """Convenience wrapper: timing-simulate ``main(*args)``."""
    sim = TimingSimulator(module, config=config)
    return sim.run(args=args, preload=preload, max_blocks=max_blocks)
