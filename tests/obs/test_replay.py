"""The decision flight recorder: round-trip replay, digest contents,
divergence detection, and log-set validation."""

from __future__ import annotations

import json

import pytest

from repro.core.convergent import form_module
from repro.obs.ledger import fingerprint_of
from repro.obs.replay import (
    DECISION_LOG_SCHEMA_VERSION,
    ReplayChecker,
    ReplayDivergence,
    ReplayError,
    attach_stats,
    build_log_set,
    derived_counts,
    diff_records,
    first_divergence,
    log_from_trace,
    validate_log_set,
)
from repro.obs.sink import MemorySink
from repro.obs.trace import Tracer, tracing
from repro.profiles import collect_profile
from repro.robustness.faultinject import FaultPlane, injected
from repro.workloads.spec import SPEC_BENCHMARKS, SPEC_ORDER


def _form_traced(name: str, plane=None):
    workload = SPEC_BENCHMARKS[name]
    module = workload.module()
    profile = collect_profile(
        module, args=workload.args, preload=workload.preload
    )
    tracer = Tracer(sinks=(MemorySink(),))
    if plane is not None:
        with injected(plane), tracing(tracer):
            report = form_module(
                module, profile=profile, record_events=False
            )
    else:
        with tracing(tracer):
            report = form_module(
                module, profile=profile, record_events=False
            )
    return tracer.collected_events(), report


def _log(name: str, plane=None):
    events, report = _form_traced(name, plane=plane)
    return log_from_trace(events), events, report


def test_log_shape_and_counts():
    functions, events, report = _log("mcf")
    assert "main" in functions
    bucket = functions["main"]
    assert bucket["fingerprint"] == fingerprint_of(bucket["records"])
    counts = derived_counts(bucket["records"])
    assert counts["offers"] > 0
    assert counts["accepts"] == report.stats.merges
    assert counts["mtup"] == list(report.stats.mtup)
    # Offers carry their own ordinal; verdicts point at the offer they
    # answer.
    for record in bucket["records"]:
        assert record["offer"] >= 0
        if record["event"] == "offer":
            assert "pending" in record
        elif record["event"] == "accept":
            assert "estimate" in record and "kind" in record


def test_round_trip_replay_is_clean():
    functions, events, _ = _log("mcf")
    checker = ReplayChecker(functions)
    for event in events:
        checker.emit(event)
    checker.finalize()
    assert checker.checked == sum(
        len(b["records"]) for b in functions.values()
    )


def test_replay_round_trip_every_spec_workload():
    for name in SPEC_ORDER:
        functions, events, _ = _log(name)
        checker = ReplayChecker(functions)
        for event in events:
            checker.emit(event)
        checker.finalize()


def test_digest_excludes_provenance():
    functions, _, _ = _log("mcf")
    log_set = build_log_set(functions)
    blob = json.dumps(log_set, sort_keys=True)
    # Deliberately no wall-clock, machine, or backend fields: identical
    # runs must dedupe to one digest in the content-addressed store.
    for needle in ("time", "host", "backend", "duration"):
        assert needle not in blob


def test_checker_raises_at_mutated_record():
    functions, events, _ = _log("mcf")
    records = functions["main"]["records"]
    target = next(
        i for i, r in enumerate(records) if r["event"] == "accept"
    )
    records[target] = dict(
        records[target], event="reject", reason="constraint",
        constraints=["instructions"], violations=["too big"],
    )
    checker = ReplayChecker(functions)
    with pytest.raises(ReplayDivergence) as excinfo:
        for event in events:
            checker.emit(event)
    div = excinfo.value
    assert div.index == target
    dump = div.describe()
    assert "recorded:" in dump and "live:" in dump
    assert "CONSTRAINT_INSTRUCTIONS" in dump


def test_checker_raises_on_truncated_live_run():
    functions, events, _ = _log("mcf")
    cut = len(events) // 2
    checker = ReplayChecker(functions)
    for event in events[:cut]:
        checker.emit(event)
    with pytest.raises(ReplayDivergence):
        checker.finalize()


def test_checker_only_filter_skips_other_functions():
    functions, events, _ = _log("mcf")
    checker = ReplayChecker(functions, only={"no_such_function"})
    for event in events:
        checker.emit(event)
    assert checker.checked == 0


def test_first_divergence_identical_and_mutated():
    functions, _, _ = _log("mcf")
    again, _, _ = _log("mcf")
    assert first_divergence(functions, again) == []

    mutated = json.loads(json.dumps(again))
    bucket = mutated["main"]
    target = next(
        i for i, r in enumerate(bucket["records"])
        if r["event"] == "accept"
    )
    bucket["records"][target]["estimate"]["total_instructions"] += 1
    bucket["fingerprint"] = fingerprint_of(bucket["records"])
    divs = first_divergence(functions, mutated)
    assert len(divs) == 1
    assert divs[0].index == target
    text = divs[0].describe("clean", "mutated")
    assert "estimate.total_instructions" in text
    assert "CONSTRAINT_INSTRUCTIONS" in text


def test_fault_injected_run_bisects_to_one_attributed_divergence():
    """The acceptance drill: operand corruption flips exactly one
    decision stream, and the first diverging record names the estimate
    counters that drifted with their constraint attribution."""
    functions, _, _ = _log("bzip2")
    plane = FaultPlane(rate=1.0, kinds=("operand",))
    faulted, _, _ = _log("bzip2", plane=plane)
    assert plane.fired
    divs = first_divergence(functions, faulted)
    assert len(divs) == 1
    text = divs[0].describe("clean", "faulted")
    assert "estimate." in text
    assert "CONSTRAINT_" in text


def test_attach_stats_and_validate():
    functions, _, report = _log("mcf")
    stats = {
        "main": {
            "attempts": report.stats.attempts,
            "stats_fingerprint": report.stats.decision_fingerprint(),
            "status": "ok",
            "merges": report.stats.merges,
            "mtup": list(report.stats.mtup),
        }
    }
    attach_stats(functions, stats)
    log_set = build_log_set(functions)
    assert log_set["schema_version"] == DECISION_LOG_SCHEMA_VERSION
    validate_log_set(log_set)  # no raise
    assert log_set["counts"]["functions"] == len(functions)


def test_validate_rejects_corruption():
    functions, _, _ = _log("mcf")
    log_set = build_log_set(functions)

    bad = json.loads(json.dumps(log_set))
    bad["kind"] = "trace"
    with pytest.raises(ReplayError):
        validate_log_set(bad)

    bad = json.loads(json.dumps(log_set))
    bad["schema_version"] = DECISION_LOG_SCHEMA_VERSION + 1
    with pytest.raises(ReplayError):
        validate_log_set(bad)

    bad = json.loads(json.dumps(log_set))
    bad["functions"]["main"]["records"][0]["hb"] = "tampered"
    with pytest.raises(ReplayError, match="fingerprint"):
        validate_log_set(bad)

    bad = json.loads(json.dumps(log_set))
    bad["functions"]["main"]["merges"] = 9999
    bad["functions"]["main"]["status"] = "ok"
    with pytest.raises(ReplayError, match="merge counter"):
        validate_log_set(bad)


def test_diff_records_flattens_estimates():
    a = {"event": "accept", "estimate": {"reg_reads": 3, "memory_ops": 1}}
    b = {"event": "accept", "estimate": {"reg_reads": 4, "memory_ops": 1}}
    assert diff_records(a, b) == [("estimate.reg_reads", 3, 4)]
    assert diff_records(None, a)[0][0] == "estimate.memory_ops"


def test_guard_restore_carries_version_stamps():
    """Satellite: failed trials' restore instants stamp the restored
    block versions, so a trace can prove rollback produced fresh state."""
    plane = FaultPlane(rate=1.0, kinds=("optimizer",))
    events, report = _form_traced("mcf", plane=plane)
    restores = [e for e in events if e.name == "guard_restore"]
    assert restores, "no guarded restores under a raising fault plane"
    for event in restores:
        assert event.attrs["hb_version"] > 0
