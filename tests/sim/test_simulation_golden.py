"""Simulation results pinned to frozen values.

160 programs: the formation golden's 116 formed pipelines
(``tests.conftest.formed_program``) and their 44 unformed inputs, the
basic-block programs each pipeline was profiled on (ids ``<name>-BB``).
For each program ``run_module``, ``simulate_cycles`` and
``collect_profile`` run ``main``.  The return value, a sha256 of the
final memory, the six ``SimStats`` scalars, a sha256 of the sorted
``SimStats.edge_counts`` and the ``TimingStats`` cycles, blocks,
instructions and mispredictions must equal the values frozen in
``simulation_golden.json``; for the unformed inputs so must a sha256 of
the profile's tables (edge and block counts, trip-count histograms,
total blocks).  The three runs must also leave the printed IR, block
versions and instruction uids unchanged: the simulators only read a
module.  Only a change to the simulators' semantics or the timing model
may re-freeze the values::

    PYTHONPATH=src python tests/sim/freeze_simulation_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.ir.printer import format_module
from repro.profiles.collect import collect_profile
from repro.sim.functional import run_module
from repro.sim.timing import simulate_cycles
from tests.conftest import formed_program, profiled_program
from tests.core.test_formation_golden import PIPELINES

GOLDEN_PATH = Path(__file__).with_name("simulation_golden.json")

SIM_FIELDS = ("blocks_executed", "instrs_executed", "instrs_nullified",
              "loads", "stores", "calls")
TIMING_FIELDS = ("cycles", "blocks", "instructions", "mispredictions")

#: Every unformed input, in pipeline order.
UNFORMED = list(dict.fromkeys(name for _, name, _ in PIPELINES))

#: ``(program id, program, config)``; config ``None`` is the unformed input.
PROGRAMS = PIPELINES + [(f"{name}-BB", name, None) for name in UNFORMED]


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def profile_tables_sha256(profile) -> str:
    return _sha256((
        sorted(profile.edge_counts.items(), key=repr),
        sorted(profile.block_counts.items()),
        sorted(
            (key, sorted(hist.items()))
            for key, hist in profile.trip_histograms.items()
        ),
        profile.total_blocks,
    ))


def ir_state(module) -> tuple:
    """Printed IR, and every function and block version and instruction
    uid, in order."""
    return format_module(module), [
        (func.name, func.version, [
            (name, block.version, [instr.uid for instr in block.instrs])
            for name, block in func.blocks.items()
        ])
        for func in module
    ]


def run_program(name: str, config) -> dict:
    """Summarize the simulation of one pinned program."""
    module, args, preload, _ = profiled_program(name)
    if config is not None:
        module = formed_program(name, config)[0]
    before = ir_state(module)
    result, stats, memory = run_module(module, args=args, preload=preload)
    timing = simulate_cycles(module, args=args, preload=preload)
    profile = collect_profile(module, args=args, preload=preload)
    assert ir_state(module) == before, "a simulator changed the module"
    summary = {
        "result": result,
        "memory_sha256": _sha256(sorted(memory.items())),
        "sim": {field: getattr(stats, field) for field in SIM_FIELDS},
        "edge_counts_sha256": _sha256(
            sorted(stats.edge_counts.items(), key=repr)
        ),
        "timing": {field: getattr(timing, field) for field in TIMING_FIELDS},
    }
    if config is None:
        summary["profile_sha256"] = profile_tables_sha256(profile)
    return summary


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "pid, name, config", PROGRAMS, ids=[pid for pid, _, _ in PROGRAMS]
)
def test_simulation_matches_golden(golden, pid, name, config):
    assert run_program(name, config) == golden[pid]
