"""Formation output pinned to frozen values: printed IR, m/t/u/p, attempts.

116 pipelines: the 19 SPEC surrogates under BF, the 24 microbenchmarks
under each Table-2 configuration, and ``scaled_program(440, 2006)``
under BF.  Each program is profiled once, then formed through
``heuristic_config``; the sha256 of its printed module, its m/t/u/p
counters and its attempt count must equal the values frozen in
``formation_golden.json``.  A change that moves decisions on purpose
re-freezes them::

    PYTHONPATH=src python tests/core/freeze_formation_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.experiment import heuristic_config
from repro.harness.tables import TABLE2_HEURISTICS
from repro.ir.printer import format_module
from repro.profiles.collect import collect_profile
from repro.workloads.generators import random_inputs, scaled_program
from repro.workloads.microbench import MICROBENCH_ORDER, MICROBENCHMARKS
from repro.workloads.spec import SPEC_BENCHMARKS, SPEC_ORDER

GOLDEN_PATH = Path(__file__).with_name("formation_golden.json")

SCALED_SIZE, SCALED_SEED = 440, 2006
SCALED_NAME = f"scaled-{SCALED_SIZE}-{SCALED_SEED}"


def _programs():
    """Yield ``(name, build, args, preload, configs)`` per golden program."""
    for name in SPEC_ORDER:
        w = SPEC_BENCHMARKS[name]
        yield name, w.module, w.args, w.preload, ("BF",)
    for name in MICROBENCH_ORDER:
        w = MICROBENCHMARKS[name]
        yield name, w.module, w.args, w.preload, TABLE2_HEURISTICS
    yield (
        SCALED_NAME,
        lambda: scaled_program(SCALED_SIZE, SCALED_SEED),
        random_inputs(SCALED_SEED),
        {},
        ("BF",),
    )


PROGRAMS = {name: rest for name, *rest in _programs()}

#: ``(pipeline id, program, config)`` for every pinned pipeline.
PIPELINES = [
    (f"{name}-{config}", name, config)
    for name, (_, _, _, configs) in PROGRAMS.items()
    for config in configs
]


@functools.lru_cache(maxsize=None)
def _profiled(name: str):
    build, args, preload, _ = PROGRAMS[name]
    module = build()
    profile = collect_profile(
        module.copy(),
        args=args,
        preload={k: list(v) for k, v in preload.items()},
    )
    return module, profile


def run_pipeline(name: str, config: str) -> dict:
    """Form one profiled program under ``config`` and summarize the result."""
    module, profile = _profiled(name)
    module = module.copy()
    stats = heuristic_config(config)(module, profile)
    printed = format_module(module)
    return {
        "ir_sha256": hashlib.sha256(printed.encode()).hexdigest(),
        "mtup": list(stats.mtup),
        "attempts": stats.attempts,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "pid, name, config", PIPELINES, ids=[pid for pid, _, _ in PIPELINES]
)
def test_formation_matches_golden(golden, pid, name, config):
    assert run_pipeline(name, config) == golden[pid]
