"""Oracle for the timing model's compiled per-block dataflow and
per-block predictor state.

``TimingSimulator`` compiles each block once: every source and predicate
becomes an index into one list of operand times, register ready times
live in one list per function, indexed by register, the issue-slot
search is inlined, and each compiled block keeps its own history ->
exit table and fallback entry.  Its blocks and instructions are the
functional run's counts.  On every program of
``tests.conftest.formed_programs`` (the 19 SPEC and 24 microbenchmark
programs under each Table-2 configuration, plus three 10x programs under
BF), its clocks after every block and its statistics must equal those of
the original model kept below, which looks each operand up by
``(function, register)`` as the block runs, counts blocks and
instructions itself, and predicts with the original tuple-keyed
``NextBlockPredictor``.  The microbenchmark programs are checked again
on a machine with no exit history (``MachineConfig(history_bits=0)``).
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro.harness.tables import TABLE2_HEURISTICS
from repro.workloads.microbench import MICROBENCH_ORDER
from repro.ir.opcodes import Opcode
from repro.sim.machine import TRIPS_MACHINE, MachineConfig
from repro.sim.timing import TimingSimulator
from tests.conftest import formed_programs


class _Entry:
    __slots__ = ("target", "confidence")

    def __init__(self, target):
        self.target = target
        self.confidence = 1


class NextBlockPredictor:
    """The original next-block predictor: a tournament of a
    ``(function, block, global history)``-keyed last-target table with
    2-bit hysteresis and a ``(function, block)``-keyed last-target table
    for cold history entries; returns are always predicted correctly (a
    return-address stack) and leave both tables and the history alone."""

    def __init__(self, history_bits: int = 8):
        self.history_mask = (1 << history_bits) - 1
        self._history = 0
        self._pattern: dict[tuple, _Entry] = {}
        self._fallback: dict[tuple, _Entry] = {}
        self._hashes: dict[Optional[str], int] = {None: 5}

    def _stable_hash(self, name: Optional[str]) -> int:
        value = self._hashes.get(name)
        if value is None:
            value = 0
            for ch in name:  # type: ignore[union-attr]
                value = (value * 131 + ord(ch)) & 0xFFFF
            self._hashes[name] = value
        return value

    def predict_and_update(
        self, func: str, block: str, actual: Optional[str], is_return: bool
    ) -> bool:
        """Predict the exit of (func, block); learn ``actual``; return
        whether the prediction was correct."""
        if is_return:
            return True
        pattern_key = (func, block, self._history)
        fallback_key = (func, block)
        entry = self._pattern.get(pattern_key)
        fallback = self._fallback.get(fallback_key)
        if entry is not None and entry.confidence >= 1:
            predicted = entry.target
        elif fallback is not None:
            predicted = fallback.target
        else:
            predicted = actual  # cold: charge no misprediction (warm-up)

        correct = predicted == actual

        for table, key in (
            (self._pattern, pattern_key),
            (self._fallback, fallback_key),
        ):
            e = table.get(key)
            if e is None:
                table[key] = _Entry(actual)
            elif e.target == actual:
                e.confidence = min(e.confidence + 1, 3)
            else:
                e.confidence -= 1
                if e.confidence <= 0:
                    e.target = actual
                    e.confidence = 1

        self._history = (
            (self._history << 1) ^ (self._stable_hash(actual) & 0x7)
        ) & self.history_mask
        return correct


class _ReferenceBlockTiming:
    __slots__ = ("instrs", "size", "fetch_cycles")

    def __init__(self, block, config):
        self.instrs = []
        for instr in block.instrs:
            latency = instr.latency
            if instr.op is Opcode.LOAD:
                latency += config.load_extra
            pred_reg = instr.pred.reg if instr.pred is not None else None
            self.instrs.append(
                (latency, instr.srcs, pred_reg, instr.dest, instr.uid)
            )
        self.size = len(block.instrs)
        self.fetch_cycles = config.block_fetch_cycles(self.size)


class ReferenceTimingSimulator:
    """The original model: a ``(function, register)``-keyed ready-time
    dict read per operand, an issue-slot method, a list of recent commit
    times, its own block, instruction and per-block counts, and the
    original predictor."""

    def __init__(self, module, config=None):
        self.module = module
        self.config = config or TRIPS_MACHINE
        self.predictor = NextBlockPredictor(self.config.history_bits)
        self.blocks = self.instructions = 0
        self.mispredictions = 0
        self.block_counts: dict = {}
        self._block_cache: dict = {}
        self._reg_ready: dict = {}
        self._issued: dict[int, int] = {}
        self._next_fetch = 0
        self._commit_times: list[int] = []
        self._last_commit = 0

    def _block_timing(self, func_name, block_name):
        key = (func_name, block_name)
        cached = self._block_cache.get(key)
        if cached is None:
            block = self.module.function(func_name).blocks[block_name]
            cached = _ReferenceBlockTiming(block, self.config)
            self._block_cache[key] = cached
        return cached

    def _issue_slot(self, ready):
        issued = self._issued
        width = self.config.issue_width
        t = ready
        while issued.get(t, 0) >= width:
            t += 1
        issued[t] = issued.get(t, 0) + 1
        return t

    def _on_block(self, func_name, block_name, fired, depth, nullified=()):
        config = self.config
        self.blocks += 1
        key = (func_name, block_name)
        self.block_counts[key] = self.block_counts.get(key, 0) + 1
        timing = self._block_timing(func_name, block_name)

        fetch = self._next_fetch
        window = config.window_blocks
        if len(self._commit_times) >= window:
            fetch = max(fetch, self._commit_times[-window])
        map_done = fetch + config.map_latency + timing.fetch_cycles

        reg_ready = self._reg_ready
        local: dict[int, int] = {}
        branch_resolve = map_done
        block_done = map_done
        route = config.route_latency
        fired_uid = fired.uid
        nullified_set = set(nullified)
        executed = 0
        for index, (latency, srcs, pred_reg, dest, uid) in enumerate(
            timing.instrs
        ):
            if index in nullified_set:
                t = local.get(pred_reg)
                if t is None:
                    t = reg_ready.get((func_name, pred_reg), 0)
                done = max(map_done, t) + 1
                if dest is not None:
                    local[dest] = done
                if done > block_done:
                    block_done = done
                continue
            ready = map_done
            for reg in srcs:
                t = local.get(reg)
                if t is None:
                    t = reg_ready.get((func_name, reg), 0)
                if t > ready:
                    ready = t
            if pred_reg is not None:
                t = local.get(pred_reg)
                if t is None:
                    t = reg_ready.get((func_name, pred_reg), 0)
                if t > ready:
                    ready = t
            start = self._issue_slot(ready)
            done = start + latency + route
            executed += 1
            if dest is not None:
                local[dest] = done
            if done > block_done:
                block_done = done
            if uid == fired_uid:
                branch_resolve = done
        self.instructions += executed

        commit = max(block_done, self._last_commit) + config.commit_overhead
        self._last_commit = commit
        self._commit_times.append(commit)
        if len(self._commit_times) > config.window_blocks + 1:
            del self._commit_times[: -config.window_blocks - 1]

        forward = config.interblock_forward
        for reg, t in local.items():
            reg_ready[(func_name, reg)] = t + forward

        is_return = fired.op is Opcode.RET
        target = fired.target if not is_return else None
        correct = self.predictor.predict_and_update(
            func_name, block_name, target, is_return
        )
        if correct:
            self._next_fetch = fetch + config.fetch_gap
        else:
            self.mispredictions += 1
            self._next_fetch = branch_resolve + config.mispredict_penalty

        if len(self._issued) > 65536:
            horizon = self._last_commit - 1024
            self._issued = {
                t: n for t, n in self._issued.items() if t >= horizon
            }


class LockstepSimulator(TimingSimulator):
    """Feeds each traced block to this model and to the reference, and
    checks their clocks agree after every block."""

    def __init__(self, module, config=None):
        super().__init__(module, config)
        self.reference = ReferenceTimingSimulator(module, self.config)

    def _on_block(self, *event):
        super()._on_block(*event)
        reference = self.reference
        reference._on_block(*event)
        assert (self._last_commit, self._next_fetch) == (
            reference._last_commit, reference._next_fetch
        ), event[:2]


def assert_matches_reference(sim: LockstepSimulator, got, where: str) -> None:
    """The statistics of a finished lockstep run equal the reference's,
    and the interpreter's per-block counts equal the ones the reference
    kept."""
    reference = sim.reference
    want = (reference._last_commit, reference.blocks, reference.instructions,
            reference.mispredictions)
    assert (got.cycles, got.blocks, got.instructions,
            got.mispredictions) == want, where
    assert sim.functional[1].block_counts == reference.block_counts, where


@pytest.mark.parametrize("config", TABLE2_HEURISTICS)
def test_timing_matches_reference(config):
    for name, module, args, preload in formed_programs(config):
        sim = LockstepSimulator(module)
        got = sim.run(args=args, preload=preload)
        assert_matches_reference(sim, got, f"{name}/{config}")


#: a machine with no exit history: one pattern entry per block
NO_HISTORY = MachineConfig(history_bits=0)


@pytest.mark.parametrize("config", TABLE2_HEURISTICS)
def test_timing_without_history_matches_reference(config):
    for name, module, args, preload in formed_programs(config):
        if name in MICROBENCH_ORDER:
            sim = LockstepSimulator(module, NO_HISTORY)
            got = sim.run(args=args, preload=preload)
            assert_matches_reference(sim, got, f"{name}/{config}")
