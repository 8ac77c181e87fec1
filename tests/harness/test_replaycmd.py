"""The ``replay`` verb end to end: check-mode replay, bisection, the
ledger decision store, and the satellite CLI/JSON surfaces."""

from __future__ import annotations

import json

import pytest

from repro.harness.cli import run as cli_run
from repro.harness.ledgercmd import record_suite_run
from repro.obs.ledger import Ledger
from repro.robustness.faultinject import FaultPlane

#: Operand corruption demonstrably flips formation decisions on bzip2,
#: which is what the bisection acceptance drill needs.
WORKLOAD = "bzip2"


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A ledger holding a clean run and a fault-injected run."""
    ledger_dir = str(tmp_path_factory.mktemp("ledger"))
    clean, clean_digest = record_suite_run(
        subset=[WORKLOAD], kind="test", ledger_dir=ledger_dir,
    )
    plane = FaultPlane(rate=1.0, kinds=("operand",))
    faulted, faulted_digest = record_suite_run(
        subset=[WORKLOAD], kind="test", ledger_dir=ledger_dir, faults=plane,
    )
    assert plane.fired
    return {
        "ledger_dir": ledger_dir,
        "clean": clean, "clean_digest": clean_digest,
        "faulted": faulted, "faulted_digest": faulted_digest,
    }


def test_record_persists_decision_log(recorded):
    ledger = Ledger(recorded["ledger_dir"])
    record = ledger.load(recorded["clean_digest"])
    digest = record["decision_log"]
    log_set = ledger.load_decisions(digest)
    assert f"{WORKLOAD}:main" in log_set["functions"]
    # Content addressing: re-recording the identical run dedupes.
    assert ledger.record_decisions(log_set) == digest


def test_replay_check_clean_run(recorded):
    report = cli_run([
        "replay", WORKLOAD,
        "--run", recorded["clean_digest"],
        "--ledger", recorded["ledger_dir"],
    ])
    assert "replay ok" in report
    assert "engine counters verified" in report


def test_replay_check_exits_2_when_live_counters_drift(
    recorded, tmp_path, capsys
):
    """A log whose decisions match the live run but whose embedded
    engine counter does not is an engine bug, not workload drift."""
    ledger = Ledger(recorded["ledger_dir"])
    log_set = ledger.load_decisions(recorded["clean"]["decision_log"])
    key = f"{WORKLOAD}:main"
    log_set["functions"][key]["attempts"] += 1
    path = tmp_path / "drifted.json"
    path.write_text(json.dumps(log_set))
    with pytest.raises(SystemExit) as excinfo:
        cli_run([
            "replay", WORKLOAD, "--run", str(path),
            "--ledger", recorded["ledger_dir"],
        ])
    assert excinfo.value.code == 2
    out = capsys.readouterr().out
    assert "engine counters drifted" in out
    assert f"{key}: attempts recorded" in out


def test_replay_check_latest_and_fn_filter(recorded):
    # `latest` is the faulted record (recorded second): a clean live
    # run against it must stop at the first diverging decision.
    with pytest.raises(SystemExit) as excinfo:
        cli_run([
            "replay", WORKLOAD, "--ledger", recorded["ledger_dir"],
        ])
    assert excinfo.value.code == 2

    report = cli_run([
        "replay", WORKLOAD, "--fn", "main",
        "--run", recorded["clean_digest"],
        "--ledger", recorded["ledger_dir"],
    ])
    assert "1 function(s)" in report

    with pytest.raises(SystemExit, match="no recorded log"):
        cli_run([
            "replay", WORKLOAD, "--fn", "nope",
            "--run", recorded["clean_digest"],
            "--ledger", recorded["ledger_dir"],
        ])


def test_replay_divergence_dump_names_the_decision(recorded, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_run([
            "replay", WORKLOAD,
            "--run", recorded["faulted_digest"],
            "--ledger", recorded["ledger_dir"],
        ])
    assert excinfo.value.code == 2
    out = capsys.readouterr().out
    assert "REPLAY DIVERGENCE" in out
    assert f"{WORKLOAD}:main" in out
    assert "recorded:" in out and "live:" in out
    assert "CONSTRAINT_" in out  # estimate drift carries attribution


def test_replay_unknown_workload(recorded):
    with pytest.raises(SystemExit, match="unknown workload"):
        cli_run([
            "replay", "quake3", "--ledger", recorded["ledger_dir"],
        ])


def test_bisect_self_is_clean(recorded):
    report = cli_run([
        "replay", recorded["clean_digest"], recorded["clean_digest"],
        "--bisect", "--ledger", recorded["ledger_dir"],
    ])
    assert "zero divergences" in report


def test_bisect_finds_first_attributed_divergence(recorded, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_run([
            "replay", recorded["clean_digest"], recorded["faulted_digest"],
            "--bisect", "--ledger", recorded["ledger_dir"],
        ])
    assert excinfo.value.code == 2
    out = capsys.readouterr().out
    assert "diverging function(s)" in out
    assert f"{WORKLOAD}:main" in out
    assert "offer #" in out
    assert "estimate." in out and "CONSTRAINT_" in out


def test_bisect_needs_two_references(recorded):
    with pytest.raises(SystemExit, match="two run references"):
        cli_run([
            "replay", recorded["clean_digest"], "--bisect",
            "--ledger", recorded["ledger_dir"],
        ])


def test_replay_accepts_record_files_and_raw_digests(
    recorded, tmp_path
):
    # A run-record JSON file resolves through its decision_log digest.
    path = tmp_path / "clean.json"
    path.write_text(json.dumps(recorded["clean"]))
    report = cli_run([
        "replay", WORKLOAD, "--run", str(path),
        "--ledger", recorded["ledger_dir"],
    ])
    assert "replay ok" in report
    # A raw decision-log digest resolves through the decision store.
    report = cli_run([
        "replay", WORKLOAD,
        "--run", recorded["clean"]["decision_log"],
        "--ledger", recorded["ledger_dir"],
    ])
    assert "replay ok" in report


def test_pre_recorder_record_is_rejected(recorded, tmp_path):
    legacy = {
        k: v for k, v in recorded["clean"].items() if k != "decision_log"
    }
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(legacy))
    with pytest.raises(SystemExit, match="decision_log"):
        cli_run([
            "replay", WORKLOAD, "--run", str(path),
            "--ledger", recorded["ledger_dir"],
        ])


def test_tampered_log_file_is_rejected(recorded, tmp_path):
    ledger = Ledger(recorded["ledger_dir"])
    log_set = ledger.load_decisions(recorded["clean"]["decision_log"])
    key = f"{WORKLOAD}:main"
    log_set["functions"][key]["records"][0]["hb"] = "tampered"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(log_set))
    with pytest.raises(SystemExit, match="invalid decision log"):
        cli_run([
            "replay", WORKLOAD, "--run", str(path),
            "--ledger", recorded["ledger_dir"],
        ])


# -- satellite surfaces -----------------------------------------------------


def test_stats_json_is_machine_readable():
    out = cli_run(["stats", "mcf", "--json"])
    data = json.loads(out)
    assert data["workload"] == "mcf"
    assert data["events"] > 0
    assert data["slowest_trials"]
    assert "formation" in data


def test_trace_json_carries_decision_log():
    out = cli_run(["trace", "mcf", "--json"])
    data = json.loads(out)
    assert data["workload"] == "mcf"
    assert data["decisions"]["main"]["records"]
    assert data["event_counts"]["accept"] > 0



@pytest.mark.parametrize(
    "argv, expect",
    [
        (
            ["replay", "--bisect", "--ledger", "{ledger}", "{run}", "{run}"],
            "zero divergences",
        ),
        (["trace", "--why", "b0,b1", WORKLOAD], "no events for pair (b0, b1)"),
    ],
    ids=["replay-bisect", "trace-why"],
)
def test_positionals_may_follow_options(recorded, argv, expect):
    """The documented forms put options first (`replay --bisect A B`)."""
    values = {
        "ledger": recorded["ledger_dir"],
        "run": recorded["clean_digest"],
    }
    assert expect in cli_run([arg.format(**values) for arg in argv])
