"""Suite-level containment drill and oracle selfcheck (the CI gates)."""

from __future__ import annotations

import pytest

from repro.harness import selfcheck
from repro.harness.cli import run as cli_run
from repro.harness.selfcheck import run_fault_drill, run_selfcheck
from repro.obs.replay import derived_counts, fingerprint_of

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


def test_fault_drill_reports_attribution_drift_as_drift(monkeypatch):
    """An untouched function whose decision log differs only in one
    rejection's ``CONSTRAINT_*`` attribution made the same merges (equal
    m/t/u/p), but not the same decisions: the drill must say so."""
    real = selfcheck.log_from_trace
    calls = []
    changed = []

    def log_from_trace(events):
        logs = real(events)
        calls.append(logs)
        if len(calls) == 2:  # the faulted run's log
            name, record = next(
                (name, record)
                for name, bucket in logs.items()
                for record in bucket["records"]
                if record.get("constraints")
            )
            record["constraints"] = record["constraints"] + ["memory_ops"]
            logs[name]["fingerprint"] = fingerprint_of(logs[name]["records"])
            changed.append(name)
        return logs

    monkeypatch.setattr(selfcheck, "log_from_trace", log_from_trace)
    drill = run_fault_drill(subset=["bzip2"], rate=1e-9, seed=0)
    (row,) = drill["rows"]
    (name,) = changed
    control, faulted = calls
    assert derived_counts(control[name]["records"]) == derived_counts(
        faulted[name]["records"]
    )
    assert row["touched"] == []
    assert row["clean_mismatch"] == changed
    assert f"DRIFT: unfaulted @{name} formed differently" in drill["report"]
    assert not drill["ok"]


@pytest.mark.parametrize("rate", ["0", "-1", "2"])
def test_cli_rejects_a_fault_rate_outside_the_unit_interval(rate):
    with pytest.raises(SystemExit, match=r"--fault-rate must be in \(0, 1\]"):
        cli_run(["selfcheck", "--faults", "--subset", "mcf",
                 "--fault-rate", rate])


def test_selfcheck_passes_and_drivers_agree():
    check = run_selfcheck(subset=SUBSET)
    assert check["ok"], check["report"]
    assert all(row["divergences"] == 0 for row in check["rows"])
