"""The decision flight recorder: round-trip replay through a log file,
digest contents, divergence detection, and log-set validation."""

from __future__ import annotations

import json

import pytest

from repro.core.convergent import form_module
from repro.harness.replaycmd import (
    record_suite,
    run_replay_check,
    write_log_set,
)
from repro.obs.replay import (
    DECISION_LOG_SCHEMA_VERSION,
    ReplayError,
    attach_stats,
    build_log_set,
    decision_record,
    derived_counts,
    diff_records,
    fingerprint_of,
    first_divergence,
    log_from_trace,
    validate_log_set,
)
from repro.obs.trace import Tracer
from repro.profiles import collect_profile
from repro.robustness.faultinject import FaultPlane
from repro.workloads.spec import SPEC_BENCHMARKS, SPEC_ORDER


def _form_traced(name: str, plane=None):
    workload = SPEC_BENCHMARKS[name]
    module = workload.module()
    profile = collect_profile(
        module, args=workload.args, preload=workload.preload
    )
    tracer = Tracer()
    report = form_module(module, profile=profile, tracer=tracer, faults=plane)
    return tracer.events, report


def _log(name: str, plane=None):
    events, report = _form_traced(name, plane=plane)
    return log_from_trace(events), events, report


class FakeEvent:
    def __init__(self, name, **attrs):
        self.name = name
        self.attrs = attrs


def accept(func, hb, target, kind="merge", removed=1):
    return FakeEvent(
        "accept", function=func, hb=hb, target=target, kind=kind,
        removed=removed,
    )


def reject(func, hb, target, constraints=("instructions",)):
    return FakeEvent(
        "reject", function=func, hb=hb, target=target, reason="constraint",
        constraints=list(constraints),
    )


def test_decision_record_projects_accept_and_reject():
    a = decision_record("accept", accept("f", "b0", "b1", "unroll", 2).attrs)
    assert a == {
        "event": "accept", "hb": "b0", "target": "b1",
        "kind": "unroll", "removed": 2,
    }
    r = decision_record(
        "reject",
        reject("f", "b0", "b2", ["register_writes", "instructions"]).attrs,
    )
    assert r["event"] == "reject"
    assert r["reason"] == "constraint"
    # Attribution keeps the order the estimator reported it in.
    assert r["constraints"] == ["register_writes", "instructions"]


def test_fingerprint_changes_with_records():
    a = log_from_trace([accept("f", "b0", "b1")])["f"]["records"]
    b = log_from_trace([reject("f", "b0", "b1")])["f"]["records"]
    assert fingerprint_of(a) != fingerprint_of(b)
    assert fingerprint_of(a) == fingerprint_of(list(a))
    assert len(fingerprint_of(a)) == 16


def test_log_from_trace_groups_by_function_with_prefix():
    out = log_from_trace([
        accept("f", "b0", "b1"),
        FakeEvent("offer", function="f", hb="b0", target="b2"),
        reject("g", "b0", "b2"),
        accept("f", "b0", "b2"),
        FakeEvent("trial", function="f", hb="b0", target="b2"),
    ], prefix="w:")
    assert set(out) == {"w:f", "w:g"}
    assert [r["event"] for r in out["w:f"]["records"]] == [
        "accept", "offer", "accept",
    ]
    assert out["w:f"]["fingerprint"] == fingerprint_of(out["w:f"]["records"])


def test_decision_order_matters():
    e1, e2 = accept("f", "b0", "b1"), reject("f", "b0", "b2")
    fwd = log_from_trace([e1, e2])["f"]["fingerprint"]
    rev = log_from_trace([e2, e1])["f"]["fingerprint"]
    assert fwd != rev


def test_function_only_in_one_log_is_a_divergence():
    a = log_from_trace([accept("f", "b0", "b1")])
    b = log_from_trace([accept("f", "b0", "b1"), reject("g", "b0", "b2")])
    (div,) = first_divergence(a, b)
    assert (div.function, div.index, div.record_a) == ("g", 0, None)
    assert div.record_b["event"] == "reject"


def test_log_shape_and_counts():
    functions, events, report = _log("mcf")
    assert "main" in functions
    bucket = functions["main"]
    assert bucket["fingerprint"] == fingerprint_of(bucket["records"])
    counts = derived_counts(bucket["records"])
    assert counts["offers"] > 0
    assert counts["accepts"] == report.merges
    assert counts["mtup"] == list(report.mtup)
    # Offers carry their own ordinal; verdicts point at the offer they
    # answer.
    for record in bucket["records"]:
        assert record["offer"] >= 0
        if record["event"] == "offer":
            assert "pending" in record
        elif record["event"] == "accept":
            assert "estimate" in record and "kind" in record


def _write(tmp_path, log_set: dict, *edited: str) -> str:
    """Write ``log_set`` to a file; each ``edited`` function gets its
    fingerprint and counters re-derived so the file still validates."""
    functions = log_set["functions"]
    for key in edited:
        bucket = functions[key]
        counts = derived_counts(bucket["records"])
        bucket["fingerprint"] = fingerprint_of(bucket["records"])
        bucket["merges"] = counts["accepts"]
        bucket["mtup"] = counts["mtup"]
    path = str(tmp_path / "log.json")
    write_log_set(build_log_set(functions), path)
    return path


def _check_divergence(capsys, workload: str, path: str, fn=None) -> str:
    with pytest.raises(SystemExit) as excinfo:
        run_replay_check(workload, run=path, fn=fn)
    assert excinfo.value.code == 2
    return capsys.readouterr().out


def test_round_trip_replay_is_clean(tmp_path):
    log_set = record_suite(["mcf"])
    path = _write(tmp_path, log_set)
    report = run_replay_check("mcf", run=path)
    counts = log_set["counts"]
    decisions = counts["offers"] + counts["accepts"] + counts["rejects"]
    assert f"matched {path} — {decisions} decision(s)" in report


def test_replay_round_trip_every_spec_workload(tmp_path):
    path = _write(tmp_path, record_suite())
    for name in SPEC_ORDER:
        assert "replay ok" in run_replay_check(name, run=path)


def test_digest_excludes_provenance():
    functions, _, _ = _log("mcf")
    log_set = build_log_set(functions)
    blob = json.dumps(log_set, sort_keys=True)
    # Deliberately no wall-clock, machine, or backend fields: identical
    # runs must write byte-identical files with one digest.
    for needle in ("time", "host", "backend", "duration"):
        assert needle not in blob


def test_checker_raises_at_mutated_record(tmp_path, capsys):
    """Check mode names a recorded verdict the fresh run does not make."""
    log_set = record_suite(["mcf"])
    records = log_set["functions"]["mcf:main"]["records"]
    target = [i for i, r in enumerate(records) if r["event"] == "accept"][1]
    records[target] = dict(
        records[target], event="reject", reason="constraint",
        constraints=["instructions"], violations=["too big"],
    )
    out = _check_divergence(
        capsys, "mcf", _write(tmp_path, log_set, "mcf:main")
    )
    assert f"mcf:main: record #{target}," in out
    assert "recorded: rejected" in out and "live: accepted" in out
    assert "CONSTRAINT_INSTRUCTIONS" in out
    assert "last accepted merge: accepted (" in out


def test_checker_raises_on_truncated_live_run(tmp_path, capsys):
    """A recorded log that goes on after the fresh run stopped diverges
    at the first record the fresh run lacks."""
    log_set = record_suite(["mcf"])
    records = log_set["functions"]["mcf:main"]["records"]
    length = len(records)
    records.append(dict(records[-1]))
    out = _check_divergence(
        capsys, "mcf", _write(tmp_path, log_set, "mcf:main")
    )
    assert f"mcf:main: record #{length}," in out
    assert "live: <none>" in out


def test_checker_only_filter_skips_other_functions(tmp_path, capsys):
    """``--fn`` narrows the comparison: a divergence in another function
    of the workload does not fail it."""
    log_set = record_suite(["vortex"])
    records = log_set["functions"]["vortex:validate"]["records"]
    records[0] = dict(records[0], hb="tampered")
    path = _write(tmp_path, log_set, "vortex:validate")
    report = run_replay_check("vortex", run=path, fn="main")
    assert "1 function(s)" in report
    out = _check_divergence(capsys, "vortex", path, fn="validate")
    assert "vortex:validate: record #0" in out
    out = _check_divergence(capsys, "vortex", path)
    assert "vortex:validate" in out and "vortex:main:" not in out


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
            "attempts": report.attempts,
            "status": "ok",
            "merges": report.merges,
            "mtup": list(report.mtup),
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
    """Failed trials' restore instants stamp the restored block
    versions, which are the pre-trial ones: rollback puts the original
    block objects back."""
    plane = FaultPlane(rate=1.0, kinds=("optimizer",))
    events, report = _form_traced("mcf", plane=plane)
    restores = [e for e in events if e.name == "guard_restore"]
    assert restores, "no guarded restores under a raising fault plane"
    for event in restores:
        assert event.attrs["hb_version"] > 0
