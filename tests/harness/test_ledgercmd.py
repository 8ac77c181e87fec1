"""End-to-end tests for the record/compare verbs (repro.harness.ledgercmd).

Includes the acceptance drill: comparing a clean run against a
fault-injected one (FaultPlane operand corruption) must report the
drifted functions with constraint attribution and exit nonzero, while a
self-compare must come back clean.
"""

import json

import pytest

from repro.harness.cli import run as cli_run
from repro.harness.ledgercmd import (
    build_suite_record,
    record_suite_run,
    resolve_record,
    run_compare,
    run_record,
)
from repro.obs.ledger import Ledger, validate_record
from repro.robustness.faultinject import FaultPlane, injected

#: Small, fast workload; picked because operand corruption demonstrably
#: flips formation decisions on it (see test_fault_injected_run_drifts).
WORKLOAD = "bzip2"


@pytest.fixture(scope="module")
def clean_record():
    return build_suite_record(subset=[WORKLOAD], kind="test")


@pytest.fixture(scope="module")
def faulted_record():
    plane = FaultPlane(rate=1.0, kinds=("operand",))
    with injected(plane):
        record = build_suite_record(subset=[WORKLOAD], kind="test")
    assert plane.fired  # corruption actually happened
    return record


def test_record_validates_and_carries_decisions(clean_record):
    validate_record(clean_record)
    key = f"{WORKLOAD}:main"
    assert key in clean_record["functions"]
    entry = clean_record["functions"][key]
    assert entry["decisions"], "formation made no decisions?"
    verdicts = {d["verdict"] for d in entry["decisions"]}
    assert "accept" in verdicts
    assert entry["status"] == "ok"
    assert entry["blocks"] >= 1 and entry["instrs"] > 0
    assert len(entry["stats_fingerprint"]) == 16
    assert clean_record["phase_time_s"], "no phase timings aggregated"
    assert clean_record["telemetry"]["events"] > 0


def test_record_is_decision_deterministic(clean_record):
    again = build_suite_record(subset=[WORKLOAD], kind="test")
    key = f"{WORKLOAD}:main"
    assert (
        again["functions"][key]["fingerprint"]
        == clean_record["functions"][key]["fingerprint"]
    )


def test_record_suite_run_persists(tmp_path, clean_record):
    ledger_dir = str(tmp_path / "ledger")
    record, digest = record_suite_run(
        subset=[WORKLOAD], kind="test", ledger_dir=ledger_dir,
        out=str(tmp_path / "rec.json"),
    )
    assert Ledger(ledger_dir).latest() == digest
    on_disk = json.loads((tmp_path / "rec.json").read_text())
    validate_record(on_disk)
    assert resolve_record(str(tmp_path / "rec.json"), Ledger(ledger_dir)) == on_disk
    assert resolve_record("latest", Ledger(ledger_dir)) == on_disk


def test_self_compare_is_clean_and_exits_zero(tmp_path, clean_record):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(clean_record))
    report = run_compare(
        run_a=str(path), run_b=str(path),
        ledger_dir=str(tmp_path / "ledger"),
    )
    assert "verdict: clean" in report


def test_fault_injected_run_drifts_and_exits_nonzero(
    tmp_path, clean_record, faulted_record, capsys
):
    a = tmp_path / "clean.json"
    b = tmp_path / "faulted.json"
    a.write_text(json.dumps(clean_record))
    b.write_text(json.dumps(faulted_record))
    html = tmp_path / "report.html"
    with pytest.raises(SystemExit) as excinfo:
        run_compare(
            run_a=str(a), run_b=str(b),
            ledger_dir=str(tmp_path / "ledger"), html=str(html),
        )
    assert excinfo.value.code == 2
    printed = capsys.readouterr().out
    assert f"{WORKLOAD}:main" in printed  # names the drifted function
    assert "constraint" in printed  # with constraint attribution
    assert "DRIFT" in printed
    page = html.read_text()
    assert "decision drift" in page and f"{WORKLOAD}:main" in page


def test_compare_against_ledger_latest(tmp_path, clean_record):
    ledger_dir = str(tmp_path / "ledger")
    ledger = Ledger(ledger_dir)
    ledger.record(clean_record)
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(clean_record))
    report = run_compare(
        run_a=str(path), against_ledger="latest", ledger_dir=ledger_dir,
    )
    assert "verdict: clean" in report


def test_compare_argument_errors(tmp_path):
    with pytest.raises(SystemExit):
        run_compare(ledger_dir=str(tmp_path / "ledger"))
    with pytest.raises(SystemExit, match="needs one run"):
        run_compare(
            against_ledger="latest", ledger_dir=str(tmp_path / "ledger")
        )
    with pytest.raises(SystemExit, match="cannot read|invalid"):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        run_compare(
            run_a=str(bad), run_b=str(bad),
            ledger_dir=str(tmp_path / "ledger"),
        )


def test_compare_history_only(tmp_path, monkeypatch):
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps({
        "history": [
            {"timestamp": "t1", "sequential_fast_s": 0.2, "merges": 5,
             "quick": False, "workload_count": 19},
        ]
    }))
    report = run_compare(
        history=True, bench_json=str(bench),
        ledger_dir=str(tmp_path / "ledger"),
    )
    assert "bench history: 1 run(s)" in report
    empty = run_compare(
        history=True, bench_json=str(tmp_path / "none.json"),
        ledger_dir=str(tmp_path / "ledger"),
    )
    assert "empty" in empty


def test_cli_record_and_compare_verbs(tmp_path):
    ledger_dir = str(tmp_path / "ledger")
    out = tmp_path / "rec.json"
    report = cli_run([
        "record", "--subset", WORKLOAD, "--label", "cli-test",
        "--ledger", ledger_dir, "--out", str(out),
    ])
    assert "recorded run" in report and "cli-test" in report
    assert out.exists()
    compare = cli_run([
        "compare", str(out), "--against-ledger", "latest",
        "--ledger", ledger_dir,
    ])
    assert "verdict: clean" in compare


# -- bench history hygiene --------------------------------------------------


def _bench_result():
    return {
        "benchmark": "formation", "quick": True, "workloads": ["mcf"],
        "repeat": 1, "sequential_fast_s": 0.1,
        "merges": 5, "mtup": [5, 0, 0, 0],
    }


def test_write_json_stamps_and_validates_history(tmp_path):
    from repro.harness.bench import write_json

    path = str(tmp_path / "bench.json")
    write_json(_bench_result(), path)
    write_json(_bench_result(), path)
    doc = json.loads(open(path).read())
    assert len(doc["history"]) == 2
    for entry in doc["history"]:
        assert isinstance(entry["timestamp"], str) and entry["timestamp"]
    assert "history_dropped" not in doc


def test_write_json_repairs_null_timestamps_and_drops_garbage(tmp_path):
    from repro.harness.bench import write_json

    path = tmp_path / "bench.json"
    path.write_text(json.dumps({
        "timestamp": "2026-01-01T00:00:00+00:00",
        "history": [
            {"timestamp": None, "sequential_fast_s": 0.3, "merges": 7,
             "quick": False, "workload_count": 19},   # legacy: repaired
            {"nonsense": True},                        # dropped
        ],
    }))
    write_json(_bench_result(), str(path))
    doc = json.loads(path.read_text())
    assert doc["history_dropped"] == 1
    assert [e["timestamp"] for e in doc["history"][:1]] == [
        "2026-01-01T00:00:00+00:00"
    ]
    assert len(doc["history"]) == 2  # repaired legacy + the new run


def test_shipped_bench_history_is_schema_clean():
    """The repo's own BENCH_formation.json trajectory must validate —
    the `compare --history` plot reads it."""
    import os

    from repro.obs.ledger import validate_history_entry
    from repro.obs.rundiff import load_history

    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "BENCH_formation.json")
    if not os.path.exists(path):
        pytest.skip("no BENCH_formation.json in this checkout")
    history = load_history(path)
    assert history, "shipped bench history is empty"
    for entry in history:
        validate_history_entry(entry)


def test_run_record_quick_uses_quick_subset(tmp_path, monkeypatch):
    calls = {}

    def fake_record_suite_run(subset=None, **kwargs):
        calls["subset"] = subset
        return {"functions": {}, "workloads": [], "merges": 0,
                "mtup": [0, 0, 0, 0], "kind": "suite", "label": None,
                "telemetry": {"event_counts": {}}}, "0" * 64

    monkeypatch.setattr(
        "repro.harness.ledgercmd.record_suite_run", fake_record_suite_run
    )
    run_record(quick=True, ledger_dir=str(tmp_path))
    from repro.harness.bench import QUICK_SUBSET

    assert calls["subset"] == list(QUICK_SUBSET)
