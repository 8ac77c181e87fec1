"""The ``replay`` verb end to end on decision-log files: check-mode
replay, bisection, unreadable files, and the satellite CLI/JSON
surfaces."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.harness.cli import run as cli_run
from repro.harness.replaycmd import record_suite, write_log_set
from repro.robustness.faultinject import FaultPlane

#: Operand corruption demonstrably flips formation decisions on bzip2,
#: which is what the bisection acceptance drill needs.
WORKLOAD = "bzip2"


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A clean and a fault-injected decision-log file of one workload."""
    root = tmp_path_factory.mktemp("logs")
    clean = record_suite([WORKLOAD])
    plane = FaultPlane(rate=1.0, kinds=("operand",))
    faulted = record_suite([WORKLOAD], faults=plane)
    assert plane.fired
    clean_path = str(root / "clean.json")
    faulted_path = str(root / "faulted.json")
    write_log_set(clean, clean_path)
    write_log_set(faulted, faulted_path)
    return {"clean": clean, "faulted": faulted,
            "clean_path": clean_path, "faulted_path": faulted_path}


def test_record_persists_decision_log(recorded):
    on_disk = json.loads(pathlib.Path(recorded["clean_path"]).read_text())
    assert on_disk == recorded["clean"]
    assert f"{WORKLOAD}:main" in on_disk["functions"]


def test_record_twice_writes_identical_files(tmp_path):
    """The log holds no timestamps or machine metadata, so recording the
    same code twice writes the same bytes, and bisecting them is clean."""
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (a, b):
        cli_run(["record", "--subset", "mcf,vortex", "--out", path])
    assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes()
    report = cli_run(["replay", "--bisect", a, b])
    assert "zero divergences — 3 function(s)" in report


def test_replay_check_clean_run(recorded):
    report = cli_run(["replay", WORKLOAD, "--run", recorded["clean_path"]])
    assert "replay ok" in report
    assert "engine counters verified" in report


def test_replay_check_exits_2_when_live_counters_drift(
    recorded, tmp_path, capsys
):
    """A log whose decisions match the live run but whose embedded
    engine counter does not is an engine bug, not workload drift."""
    log_set = json.loads(json.dumps(recorded["clean"]))
    key = f"{WORKLOAD}:main"
    log_set["functions"][key]["attempts"] += 1
    path = tmp_path / "drifted.json"
    path.write_text(json.dumps(log_set))
    with pytest.raises(SystemExit) as excinfo:
        cli_run(["replay", WORKLOAD, "--run", str(path)])
    assert excinfo.value.code == 2
    out = capsys.readouterr().out
    assert "engine counters drifted" in out
    assert f"{key}: attempts recorded" in out


def test_replay_check_fn_filter(recorded):
    report = cli_run([
        "replay", WORKLOAD, "--fn", "main", "--run", recorded["clean_path"],
    ])
    assert "1 function(s)" in report

    with pytest.raises(SystemExit, match="no recorded log"):
        cli_run([
            "replay", WORKLOAD, "--fn", "nope",
            "--run", recorded["clean_path"],
        ])
    with pytest.raises(SystemExit, match="needs --run FILE"):
        cli_run(["replay", WORKLOAD])
    with pytest.raises(SystemExit, match="no decisions for workload 'mcf'"):
        cli_run(["replay", "mcf", "--run", recorded["clean_path"]])


def test_replay_divergence_dump_names_the_decision(recorded, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_run(["replay", WORKLOAD, "--run", recorded["faulted_path"]])
    assert excinfo.value.code == 2
    out = capsys.readouterr().out
    assert f"REPLAY DIVERGENCE against {recorded['faulted_path']}" in out
    assert f"{WORKLOAD}:main" in out
    assert "recorded:" in out and "live:" in out
    assert "CONSTRAINT_" in out  # estimate drift carries attribution


def test_check_mode_and_bisect_name_the_same_first_divergence(
    recorded, capsys
):
    def head_line(argv) -> str:
        with pytest.raises(SystemExit) as excinfo:
            cli_run(argv)
        assert excinfo.value.code == 2
        out = capsys.readouterr().out
        return next(
            line for line in out.splitlines()
            if line.startswith(f"{WORKLOAD}:main: record #")
        )

    check = head_line(["replay", WORKLOAD, "--run", recorded["faulted_path"]])
    bisect = head_line([
        "replay", "--bisect", recorded["clean_path"],
        recorded["faulted_path"],
    ])
    assert "offer #" in check
    assert check == bisect


def test_replay_unknown_workload(recorded):
    with pytest.raises(SystemExit, match="unknown workload"):
        cli_run(["replay", "quake3", "--run", recorded["clean_path"]])


def test_bisect_self_is_clean(recorded):
    report = cli_run([
        "replay", recorded["clean_path"], recorded["clean_path"], "--bisect",
    ])
    assert "zero divergences" in report


def test_bisect_finds_first_attributed_divergence(recorded, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_run([
            "replay", recorded["clean_path"], recorded["faulted_path"],
            "--bisect",
        ])
    assert excinfo.value.code == 2
    out = capsys.readouterr().out
    assert "diverging function(s)" in out
    assert f"{WORKLOAD}:main" in out
    assert "offer #" in out
    assert "estimate." in out and "CONSTRAINT_" in out
    assert "diverging: 1" in out


def test_bisect_needs_two_references(recorded):
    with pytest.raises(SystemExit, match="two decision-log files"):
        cli_run(["replay", recorded["clean_path"], "--bisect"])


def test_pre_recorder_record_is_rejected(recorded, tmp_path):
    """A run record, which older versions wrote next to the log, is not a
    decision log."""
    legacy = {
        "schema_version": 3, "kind": "suite", "workloads": [WORKLOAD],
        "decision_log": "0" * 64, "functions": {},
    }
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(legacy))
    with pytest.raises(SystemExit, match="is not a valid decision log"):
        cli_run(["replay", WORKLOAD, "--run", str(path)])


def test_tampered_log_file_is_rejected(recorded, tmp_path):
    log_set = json.loads(json.dumps(recorded["clean"]))
    key = f"{WORKLOAD}:main"
    log_set["functions"][key]["records"][0]["hb"] = "tampered"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(log_set))
    with pytest.raises(
        SystemExit, match="not a valid decision log.*fingerprint"
    ):
        cli_run(["replay", WORKLOAD, "--run", str(path)])


@pytest.mark.parametrize("mode", ["check", "bisect"])
@pytest.mark.parametrize("content", [None, '{"kind": "trace"}', "not json"],
                         ids=["missing", "not-a-log", "not-json"])
def test_unreadable_log_file_exits_1_with_one_line(
    recorded, tmp_path, mode, content
):
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content)
    if mode == "check":
        argv = ["replay", WORKLOAD, "--run", str(bad)]
    else:
        argv = ["replay", "--bisect", recorded["clean_path"], str(bad)]
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro.harness", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and str(bad) in lines[0], result.stderr


# -- satellite surfaces -----------------------------------------------------


def test_stats_json_is_machine_readable(tmp_path):
    path = tmp_path / "stats.json"
    out = cli_run(["stats", "mcf", "--json", "--out", str(path)])
    assert path.read_text() == out + "\n"
    data = json.loads(out)
    assert data["workload"] == "mcf"
    assert data["events"] > 0
    assert data["slowest_trials"]
    assert "formation" in data


def test_trace_json_carries_decision_log():
    """``trace --json``'s decisions are the workload's functions exactly
    as a ``record`` file holds them, engine counters included."""
    out = cli_run(["trace", "mcf", "--json"])
    data = json.loads(out)
    assert data["workload"] == "mcf"
    assert data["decisions"] == record_suite(["mcf"])["functions"]
    assert data["decisions"]["mcf:main"]["records"]
    assert data["event_counts"]["accept"] > 0



@pytest.mark.parametrize(
    "argv, expect",
    [
        (["replay", "--bisect", "{run}", "{run}"], "zero divergences"),
        (["trace", "--why", "b0,b1", WORKLOAD], "no events for pair (b0, b1)"),
    ],
    ids=["replay-bisect", "trace-why"],
)
def test_positionals_may_follow_options(recorded, argv, expect):
    """The documented forms put options first (`replay --bisect A B`)."""
    values = {"run": recorded["clean_path"]}
    assert expect in cli_run([arg.format(**values) for arg in argv])
