"""Formation output pinned to frozen values: printed IR, m/t/u/p, attempts
and the decision log.

116 pipelines: the 19 SPEC surrogates under BF, the 24 microbenchmarks
under each Table-2 configuration, and ``scaled_program(440, 2006)``
under BF.  Each program is profiled once, then formed through
``heuristic_config`` under a tracer by ``tests.conftest.formed_program``,
a session cache the post-formation oracles share.  The sha256 of its
printed module, its m/t/u/p counters, its attempt count and the digest
of its decision log (every offer, verdict, ``CONSTRAINT_*`` attribution
and estimate, per function) must equal the values frozen in
``formation_golden.json``.  The SPEC and micro pipelines are also formed
without a tracer, which must give the same IR, m/t/u/p and attempts.
A change that moves decisions on purpose re-freezes them::

    PYTHONPATH=src python tests/core/freeze_formation_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.experiment import heuristic_config
from repro.harness.tables import TABLE2_HEURISTICS
from repro.ir.printer import format_module
from repro.obs.replay import build_log_set, log_digest
from repro.workloads.microbench import MICROBENCH_ORDER
from repro.workloads.spec import SPEC_ORDER
from tests.conftest import formed_program, profiled_program

GOLDEN_PATH = Path(__file__).with_name("formation_golden.json")

SCALED_NAME = "scaled-440-2006"

#: ``(pipeline id, program, config)`` for every pinned pipeline.
PIPELINES = [
    (f"{name}-{config}", name, config)
    for names, configs in (
        (SPEC_ORDER, ("BF",)),
        (MICROBENCH_ORDER, TABLE2_HEURISTICS),
        ((SCALED_NAME,), ("BF",)),
    )
    for name in names
    for config in configs
]


def _summary(module, stats) -> dict:
    printed = format_module(module)
    return {
        "ir_sha256": hashlib.sha256(printed.encode()).hexdigest(),
        "mtup": list(stats.mtup),
        "attempts": stats.attempts,
    }


def run_pipeline(name: str, config: str) -> dict:
    """Summarize one profiled program formed under ``config``."""
    module, stats, logs = formed_program(name, config)
    return {
        **_summary(module, stats),
        "decision_log": log_digest(build_log_set(logs)),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "pid, name, config", PIPELINES, ids=[pid for pid, _, _ in PIPELINES]
)
def test_formation_matches_golden(golden, pid, name, config):
    assert run_pipeline(name, config) == golden[pid]


def test_untraced_formation_matches_golden(golden):
    """Formation without a tracer, which is what the tables and the
    benchmark run, forms the same IR as the traced pipelines above."""
    moved = []
    for pid, name, config in PIPELINES:
        if name == SCALED_NAME:
            continue
        module, _, _, profile = profiled_program(name)
        module = module.copy()
        stats = heuristic_config(config)(module, profile)
        summary = _summary(module, stats)
        if summary != {key: golden[pid][key] for key in summary}:
            moved.append(pid)
    assert not moved, moved
