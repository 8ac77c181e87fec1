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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ir.function import Module
from repro.ir.opcodes import Opcode
from repro.sim.functional import Interpreter, SimStats, register_file_size
from repro.sim.machine import TRIPS_MACHINE, MachineConfig
from repro.sim.predictor import NextBlockPredictor


@dataclass
class TimingStats:
    """Results of one timing simulation."""

    cycles: int = 0
    blocks: int = 0
    instructions: int = 0
    mispredictions: int = 0
    flushes: int = 0
    #: dynamic blocks per (func, block-name) for hot-spot reporting
    block_counts: dict = field(default_factory=dict)

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


class _BlockTiming:
    """Static per-block facts, compiled once and reused by every execution.

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
        "key", "instrs", "inputs", "outputs", "exits", "size", "fetch_cycles",
    )

    def __init__(self, key: tuple[str, str], block, config: MachineConfig):
        size = zero = len(block.instrs)
        slot_of: dict[int, int] = {}  # register -> index of its time
        inputs: list[int] = []

        def operand(reg: int) -> int:
            slot = slot_of.get(reg)
            if slot is None:
                slot = slot_of[reg] = zero + 1 + len(inputs)
                inputs.append(reg)
            return slot

        #: (function, block), the key of ``TimingStats.block_counts``
        self.key = key
        #: (latency + route, three operands incl. predicate, further
        #: operands, predicate operand)
        self.instrs = []
        #: branch uid -> its index; the branch that fires resolves the exit
        self.exits: dict[int, int] = {}
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
            if instr.is_branch:
                self.exits[instr.uid] = index
        self.inputs = inputs
        #: (register, index of its last definition) per register written
        self.outputs = [
            (reg, slot) for reg, slot in slot_of.items() if slot < size
        ]
        self.size = size
        self.fetch_cycles = config.block_fetch_cycles(size)


class TimingSimulator:
    """Runs a module functionally while accumulating a cycle model."""

    def __init__(
        self,
        module: Module,
        config: Optional[MachineConfig] = None,
        predictor: Optional[NextBlockPredictor] = None,
    ):
        self.module = module
        self.config = config or TRIPS_MACHINE
        self.predictor = predictor or NextBlockPredictor()
        self.stats = TimingStats()
        #: function -> block name -> its compiled timing
        self._block_cache: dict[str, dict[str, _BlockTiming]] = {}
        # Microarchitectural clock state.
        #: function -> cycle each register's value reaches a later block,
        #: indexed by register number and shared by every activation
        self._reg_ready: dict[str, list[int]] = {}
        self._issued: dict[int, int] = {}
        self._next_fetch = 0
        self._commit_times: list[int] = []
        self._last_commit = 0
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
        self.stats.cycles = self._last_commit
        return self.stats

    # -- per-block timing ------------------------------------------------------

    def _on_block(
        self,
        func_name: str,
        block_name: str,
        fired,
        depth: int,
        nullified: tuple = (),
    ) -> None:
        config = self.config
        stats = self.stats
        stats.blocks += 1
        blocks = self._block_cache.get(func_name)
        if blocks is None:
            func = self.module.function(func_name)
            blocks = self._block_cache[func_name] = {}
            self._reg_ready[func_name] = [0] * register_file_size(func)
        timing = blocks.get(block_name)
        if timing is None:
            block = self.module.function(func_name).blocks[block_name]
            timing = blocks[block_name] = _BlockTiming(
                (func_name, block_name), block, config
            )
        key = timing.key
        stats.block_counts[key] = stats.block_counts.get(key, 0) + 1
        reg_ready = self._reg_ready[func_name]

        # Fetch: pipelined behind the previous block, limited by the window.
        fetch = self._next_fetch
        window = config.window_blocks
        if len(self._commit_times) >= window:
            fetch = max(fetch, self._commit_times[-window])
        map_done = fetch + config.map_latency + timing.fetch_cycles

        # Dataflow schedule.  A nullified instruction (predicate evaluated
        # false) does not execute: it resolves as a null token one cycle
        # after its predicate arrives, without taking an issue slot — this
        # is why a long dependence chain on a falsely-predicated path does
        # not delay block commit on an EDGE machine (paper, Section 5).
        # An executed instruction issues in the first cycle from its last
        # operand's arrival that has a free issue slot.
        times = [0] * (timing.size + 1)
        for reg in timing.inputs:
            times.append(reg_ready[reg])
        issued = self._issued
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
        stats.instructions += timing.size - count
        exit_index = timing.exits.get(fired.uid)
        branch_resolve = map_done if exit_index is None else times[exit_index]

        # Commit: in order, all outputs produced.
        commit = max(block_done, self._last_commit) + config.commit_overhead
        self._last_commit = commit
        self._commit_times.append(commit)
        if len(self._commit_times) > config.window_blocks + 1:
            del self._commit_times[: -config.window_blocks - 1]

        # Forward register outputs to later blocks.
        forward = config.interblock_forward
        for reg, index in timing.outputs:
            reg_ready[reg] = times[index] + forward

        # Next-block prediction decides where fetch resumes.
        is_return = fired.op is Opcode.RET
        target = fired.target if not is_return else None
        correct = self.predictor.predict_and_update(
            func_name, block_name, target, is_return
        )
        if correct:
            self._next_fetch = fetch + config.fetch_gap
        else:
            stats.mispredictions += 1
            stats.flushes += 1
            self._next_fetch = branch_resolve + config.mispredict_penalty

        # Keep the issue table from growing without bound.
        if len(self._issued) > 65536:
            horizon = self._last_commit - 1024
            self._issued = {
                t: n for t, n in self._issued.items() if t >= horizon
            }


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
