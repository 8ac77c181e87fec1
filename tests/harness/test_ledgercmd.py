"""End-to-end tests for the record verb (repro.harness.ledgercmd)."""

import json

import pytest

from repro.harness.cli import run as cli_run
from repro.harness.ledgercmd import (
    build_suite_record,
    record_suite_run,
    run_record,
)
from repro.obs.ledger import Ledger, validate_record
from repro.obs.replay import log_digest
from tests.conftest import formed_program

#: Small, fast workload with constraint rejections in its decision log.
WORKLOAD = "bzip2"


@pytest.fixture(scope="module")
def clean_run():
    return build_suite_record(subset=[WORKLOAD], kind="test")


def test_record_validates_and_carries_decisions(clean_run):
    record, log_set = clean_run
    validate_record(record)
    assert record["decision_log"] == log_digest(log_set)
    key = f"{WORKLOAD}:main"
    entry = record["functions"][key]
    assert entry["status"] == "ok"
    assert entry["blocks"] >= 1 and entry["instrs"] > 0
    bucket = log_set["functions"][key]
    events = {r["event"] for r in bucket["records"]}
    assert {"offer", "accept"} <= events, "formation made no decisions?"
    # The log embeds the engine counters the record reports.
    assert bucket["merges"] == entry["merges"]
    assert bucket["mtup"] == entry["mtup"]
    assert bucket["attempts"] == entry["attempts"]
    assert record["telemetry"]["events"] > 0
    assert record["telemetry"]["event_counts"]["accept"] == record["merges"]


def test_record_is_decision_deterministic(clean_run):
    record, _ = build_suite_record(subset=[WORKLOAD], kind="test")
    assert record["decision_log"] == clean_run[0]["decision_log"]


def test_record_logs_match_the_golden_bf_pipeline(clean_run):
    """``record`` forms with driver defaults and the golden's BF pipeline
    through ``heuristic_config("BF")``: both make the same decisions."""
    _, log_set = clean_run
    _, _, golden_logs = formed_program(WORKLOAD, "BF")
    recorded = {
        key.split(":", 1)[1]: bucket["fingerprint"]
        for key, bucket in log_set["functions"].items()
    }
    assert recorded == {
        name: bucket["fingerprint"] for name, bucket in golden_logs.items()
    }


def test_record_suite_run_persists(tmp_path):
    ledger_dir = str(tmp_path / "ledger")
    record, digest = record_suite_run(
        subset=[WORKLOAD], kind="test", ledger_dir=ledger_dir,
        out=str(tmp_path / "rec.json"),
    )
    ledger = Ledger(ledger_dir)
    assert ledger.latest() == digest
    on_disk = json.loads((tmp_path / "rec.json").read_text())
    validate_record(on_disk)
    assert ledger.load("latest") == on_disk
    log_set = ledger.load_decisions(record["decision_log"])
    assert log_digest(log_set) == record["decision_log"]


def test_cli_record_verb(tmp_path):
    ledger_dir = str(tmp_path / "ledger")
    out = tmp_path / "rec.json"
    report = cli_run([
        "record", "--subset", WORKLOAD, "--label", "cli-test",
        "--ledger", ledger_dir, "--out", str(out),
    ])
    assert "recorded run" in report and "cli-test" in report
    assert "decision log:" in report
    assert out.exists()


def test_run_record_quick_uses_quick_subset(tmp_path, monkeypatch):
    calls = {}

    def fake_record_suite_run(subset=None, **kwargs):
        calls["subset"] = subset
        return {"functions": {}, "workloads": [], "merges": 0,
                "mtup": [0, 0, 0, 0], "kind": "suite", "label": None,
                "decision_log": "0" * 64,
                "telemetry": {"event_counts": {}}}, "0" * 64

    monkeypatch.setattr(
        "repro.harness.ledgercmd.record_suite_run", fake_record_suite_run
    )
    run_record(quick=True, ledger_dir=str(tmp_path))
    from repro.workloads.spec import QUICK_SUBSET

    assert calls["subset"] == list(QUICK_SUBSET)
