"""Smoke tests of the end-to-end benchmark (two ops per workload).

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time

import pytest

import compare
import e2e
import speedclock

RUN_PY = os.path.join(e2e.HERE, "run.py")


@pytest.fixture(scope="module")
def bench():
    return e2e.load_benchmark()


@pytest.fixture(scope="module")
def traced():
    return {
        name: e2e.measure(name, seed=7, seconds=0, trace=True, smoke=True)
        for name in e2e.WORKLOADS
    }


def _units(metrics: dict) -> dict:
    return {name: metric["unit"] for name, metric in metrics.items()}


def test_every_listed_metric_is_measured_with_its_unit(bench, traced):
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert [w["name"] for w in bench["workloads"]] == list(e2e.WORKLOADS)
    for result in traced.values():
        assert result["correct"] and result["attempted"] == 2
        assert _units(result["e2e"]) == e2e_units
        assert _units(result["layers"]) == layer_units


@pytest.mark.parametrize("trace", ["0", "1"])
def test_last_line_prints_the_listed_metrics(bench, trace):
    out = subprocess.run(
        [sys.executable, RUN_PY, "--workload", "spec19", "--seed", "3",
         "--smoke", "--trace", trace],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    line = json.loads(out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] == 2 and line["failed"] == 0
    listed = bench["per_layer" if trace == "1" else "end_to_end"]
    assert _units(line["metrics"]) == {m["name"]: m["unit"] for m in listed}
    assert all(
        isinstance(metric["value"], (int, float))
        for metric in line["metrics"].values()
    )


def test_raising_backend_is_counted_not_raised(monkeypatch):
    def broken_backend(module, **kwargs):
        raise RuntimeError("backend exploded")

    monkeypatch.setattr(e2e, "compile_backend", broken_backend)
    result = e2e.measure("spec19", seed=1, seconds=0, trace=True, smoke=True)
    assert result["attempted"] == 2 and result["failed"] == 2
    assert not result["correct"]
    assert result["e2e"]["ok_ratio"]["value"] == 0.0
    assert result["layers"]["backend.fail_ratio"]["value"] == 1.0
    assert result["compile_s"]["n"] == 2
    for failure in result["failures"]:
        assert failure["workload"] == "spec19"
        assert failure["config"] == "BF"
        assert failure["step"] == "backend"
        assert failure["error"] == "RuntimeError: backend exploded"


def test_seed_orders_ops_but_keeps_every_program_set():
    for spec in e2e.WORKLOADS.values():
        names = [p.name for p in spec.programs()]
        assert names == [p.name for p in spec.programs()]
    spec = e2e.WORKLOADS["spec19"]
    pairs = e2e.op_pairs(spec, spec.programs())
    first = next(e2e.pass_orders(pairs, 1))
    assert first == next(e2e.pass_orders(pairs, 1))
    assert first != next(e2e.pass_orders(pairs, 2))
    assert sorted(first) == sorted(next(e2e.pass_orders(pairs, 2)))


def test_traced_spans_nest_under_one_op_id(traced):
    for result in traced.values():
        spans = result["spans"]
        roots = {s[0]: s for s in spans if s[2] is None}
        assert len(roots) == result["attempted"]
        layers = [s for s in spans if s[2] is not None]
        assert {s[3] for s in layers} >= {"profiles", "core", "backend"}
        for op_id, _, parent, name, start, end in layers:
            root = roots[op_id]
            assert parent == root[1]
            assert name in e2e.LAYERS
            assert root[4] <= start <= end <= root[5]
    events = e2e.chrome_trace(list(traced.values()))["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == sum(len(r["spans"]) for r in traced.values())


def test_speed_clock_counts_units_while_sampling():
    clock = speedclock.SpeedClock()
    before = signal.getsignal(signal.SIGALRM)
    with clock.running():
        start = clock.read()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            speedclock._kernel()
        end = clock.read()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(clock.samples) >= 5
    units, wall_ns = end[0] - start[0], end[1] - start[1]
    # A unit is one kernel call, and the loop made nothing but calls.
    calls_at_median = wall_ns / statistics.median(clock.samples)
    assert 0.5 * calls_at_median < units < 2 * calls_at_median
    assert speedclock.seconds(units) > 0


def test_compare_verdicts():
    assert compare.verdict([1.0, 1.0], [1.0, 1.0], 0, True)[0] == "same"
    assert compare.verdict([1.0, 1.0], [1.01, 1.01], 0, True)[0] == "worse"
    assert compare.verdict([1.0, 1.02], [1.01, 1.03], 0.05, True)[0] == "same"
    assert compare.verdict([1.0, 1.02], [1.2, 1.25], 0.05, True)[0] == "worse"
    assert compare.verdict([1.0, 1.02], [1.2, 1.25], 0.05, False)[0] == "better"
    # Spread wider than the bound, runs overlapping: no verdict.
    assert compare.verdict([1.0, 1.5], [1.1, 1.6], 0.05, True)[0] == "unresolved"
    # Spread wider than the bound, but every B run beats every A run.
    assert compare.verdict([2.0, 3.0], [1.0, 1.5], 0.05, True)[0] == "better"
