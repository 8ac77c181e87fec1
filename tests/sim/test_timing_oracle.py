"""Oracle for the timing model's compiled per-block dataflow.

``TimingSimulator`` compiles each block once: every source and predicate
becomes an index into one list of operand times, register ready times
live in one list per function, indexed by register, and the issue-slot
search is inlined.  On every program of ``tests.conftest.formed_programs`` (the 19
SPEC and 24 microbenchmark programs under each Table-2 configuration,
plus three 10x programs under BF), its statistics must equal those of
the original model kept below, which looks each operand up by
``(function, register)`` as the block runs.
"""

from __future__ import annotations

import pytest

from repro.harness.tables import TABLE2_HEURISTICS
from repro.ir.opcodes import Opcode
from repro.sim.timing import TimingSimulator
from tests.conftest import formed_programs


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


class ReferenceTimingSimulator(TimingSimulator):
    """The original model: a ``(function, register)``-keyed ready-time
    dict read per operand, and an issue-slot method."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._reg_ready = {}

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
        stats = self.stats
        stats.blocks += 1
        key = (func_name, block_name)
        stats.block_counts[key] = stats.block_counts.get(key, 0) + 1
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
        stats.instructions += executed

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
            stats.mispredictions += 1
            stats.flushes += 1
            self._next_fetch = branch_resolve + config.mispredict_penalty

        if len(self._issued) > 65536:
            horizon = self._last_commit - 1024
            self._issued = {
                t: n for t, n in self._issued.items() if t >= horizon
            }


class LockstepSimulator(TimingSimulator):
    """Feeds each traced block to this model and to the reference, and
    checks their clocks agree after every block."""

    def __init__(self, module):
        super().__init__(module)
        self.reference = ReferenceTimingSimulator(module)

    def _on_block(self, *event):
        super()._on_block(*event)
        reference = self.reference
        reference._on_block(*event)
        assert (self._last_commit, self._next_fetch) == (
            reference._last_commit, reference._next_fetch
        ), event[:2]


FIELDS = ("cycles", "blocks", "instructions", "mispredictions", "flushes",
          "block_counts")


@pytest.mark.parametrize("config", TABLE2_HEURISTICS)
def test_timing_matches_reference(config):
    for name, module, args, preload in formed_programs(config):
        sim = LockstepSimulator(module)
        got = sim.run(args=args, preload=preload)
        want = sim.reference.stats
        want.cycles = sim.reference._last_commit
        for field in FIELDS:
            assert getattr(got, field) == getattr(want, field), (
                f"{name}/{config}: {field}"
            )
