"""Suite-level containment drill and oracle selfcheck (the CI gates)."""

from __future__ import annotations

import re

import pytest

from repro.harness import selfcheck
from repro.harness.cli import run as cli_run
from repro.harness.selfcheck import run_fault_drill, run_selfcheck
from repro.obs.replay import derived_counts, fingerprint_of
from repro.robustness.oracle import Divergence

#: A loop-heavy / branch-heavy / call-heavy slice of the suite: the full
#: 19-workload drill runs in the dedicated CI job, not per-test.
SUBSET = ["ammp", "crafty", "mcf", "vortex"]


def test_fault_drill_contains_every_injected_fault():
    drill = run_fault_drill(subset=SUBSET, rate=0.1, seed=0)
    assert drill["ok"], drill["report"]
    fired = sum(row["fired"] for row in drill["rows"])
    assert fired > 0, "a 10% plane must fire somewhere on this subset"
    for row in drill["rows"]:
        assert row["escaped"] == []
        assert row["clean_mismatch"] == []
        assert row["oracle_ok"]


def test_fault_drill_is_seed_deterministic():
    a = run_fault_drill(subset=["mcf"], rate=0.2, seed=9)
    b = run_fault_drill(subset=["mcf"], rate=0.2, seed=9)
    assert a["rows"] == b["rows"]


def test_fault_drill_fails_when_no_fault_fires():
    drill = run_fault_drill(subset=["mcf"], rate=1e-9, seed=0)
    assert sum(row["fired"] for row in drill["rows"]) == 0
    assert not drill["ok"]
    assert "no fault fired over the suite" in drill["report"]


def _tamper_with_faulted_run(monkeypatch, tamper) -> list:
    """Make the drill's faulted run (its second ``record_workload``)
    hand ``tamper`` its decision logs before the drill compares them;
    returns the logs of both runs as the drill sees them."""
    real = selfcheck.record_workload
    calls = []

    def record_workload(*args, **kwargs):
        module, report, trace, logs = real(*args, **kwargs)
        calls.append(logs)
        if len(calls) == 2:
            tamper(logs)
        return module, report, trace, logs

    monkeypatch.setattr(selfcheck, "record_workload", record_workload)
    return calls


def test_fault_drill_reports_attribution_drift_as_drift(monkeypatch):
    """An untouched function whose decision log differs only in one
    rejection's ``CONSTRAINT_*`` attribution made the same merges (equal
    m/t/u/p), but not the same decisions: the drill must say so, and
    print the first diverging record as ``replay`` does."""
    changed = []

    def tamper(logs):
        key, record = next(
            (key, record)
            for key, bucket in logs.items()
            for record in bucket["records"]
            if record.get("constraints")
        )
        record["constraints"] = record["constraints"] + ["memory_ops"]
        logs[key]["fingerprint"] = fingerprint_of(logs[key]["records"])
        changed.append(key)

    calls = _tamper_with_faulted_run(monkeypatch, tamper)
    drill = run_fault_drill(subset=["bzip2"], rate=1e-9, seed=0)
    (row,) = drill["rows"]
    (key,) = changed
    name = key.split(":", 1)[1]
    control, faulted = calls
    assert derived_counts(control[key]["records"]) == derived_counts(
        faulted[key]["records"]
    )
    assert row["touched"] == []
    assert row["clean_mismatch"] == [name]
    report = drill["report"]
    assert f"DRIFT: unfaulted @{name} formed differently" in report
    assert f"      {key}: record #" in report
    assert "constraints:" in report and "CONSTRAINT_MEMORY_OPS" in report
    assert not drill["ok"]


def test_fault_drill_reports_attempts_drift_as_drift(monkeypatch):
    """A guard-contained crash uses up an attempt and leaves no decision
    record: an untouched function whose log differs only in
    ``attempts`` has the same fingerprint, and is still DRIFT."""
    keys = []

    def tamper(logs):
        keys.append(next(iter(logs)))
        logs[keys[0]]["attempts"] += 1

    calls = _tamper_with_faulted_run(monkeypatch, tamper)
    drill = run_fault_drill(subset=["bzip2"], rate=1e-9, seed=0)
    (row,) = drill["rows"]
    (key,) = keys
    control, faulted = calls
    assert control[key]["fingerprint"] == faulted[key]["fingerprint"]
    attempts = control[key]["attempts"]
    assert row["clean_mismatch"] == [key.split(":", 1)[1]]
    assert (
        f"{key}: attempts control {attempts} faulted {attempts + 1}"
        in drill["report"]
    )


def test_selfcheck_failure_names_the_probe_and_the_last_merge(monkeypatch):
    """A divergence in the final check prints the probe that caught it
    and the last merge the run accepted."""
    real = selfcheck.differential_check
    caught = []

    def differential_check(before, after, probes):
        report = real(before, after, probes=probes)
        caught.append(probes[-1].label())
        report.divergences.append(Divergence(caught[-1], "memory", {}, {1: 2}))
        return report

    monkeypatch.setattr(selfcheck, "differential_check", differential_check)
    check = run_selfcheck(subset=["mcf"])
    assert not check["ok"]
    (row,) = check["rows"]
    assert f"offending probe: {caught[-1]} (diverged: memory)" in row["detail"]
    assert re.search(
        r"last accepted merge: @main \w+ <- \w+ \((merge|tail_duplication|"
        r"unroll|peel)\)",
        row["detail"],
    ), row["detail"]
    assert check["report"].endswith("selfcheck: FAIL")


@pytest.mark.parametrize("rate", ["0", "-1", "2"])
def test_cli_rejects_a_fault_rate_outside_the_unit_interval(rate):
    with pytest.raises(SystemExit, match=r"--fault-rate must be in \(0, 1\]"):
        cli_run(["selfcheck", "--faults", "--subset", "mcf",
                 "--fault-rate", rate])


def test_selfcheck_passes_and_drivers_agree():
    check = run_selfcheck(subset=SUBSET)
    assert check["ok"], check["report"]
    assert all(row["divergences"] == 0 for row in check["rows"])
