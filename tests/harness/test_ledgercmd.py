"""End-to-end tests for the record verb (``repro.harness.replaycmd``):
the decision-log file it writes and the counters embedded in it."""

import json

import pytest

from repro.harness.cli import run as cli_run
from repro.harness.replaycmd import (
    load_logs,
    record_suite,
    run_record,
    write_log_set,
)
from repro.obs.replay import build_log_set, derived_counts, log_digest
from tests.conftest import formed_program

#: Small, fast workload with constraint rejections in its decision log.
WORKLOAD = "bzip2"


@pytest.fixture(scope="module")
def clean_run():
    return record_suite(subset=[WORKLOAD])


def test_record_validates_and_carries_decisions(clean_run):
    log_set = clean_run
    key = f"{WORKLOAD}:main"
    bucket = log_set["functions"][key]
    assert bucket["status"] == "ok"
    events = {r["event"] for r in bucket["records"]}
    assert {"offer", "accept"} <= events, "formation made no decisions?"
    # The log embeds the engine counters, and building the set checked
    # them against the accepts its records imply.
    counts = derived_counts(bucket["records"])
    assert bucket["merges"] == counts["accepts"] > 0
    assert bucket["mtup"] == counts["mtup"]
    assert bucket["attempts"] >= bucket["merges"]
    assert log_set["counts"]["accepts"] == bucket["merges"]


def test_record_is_decision_deterministic(clean_run):
    again = record_suite(subset=[WORKLOAD])
    assert again == clean_run
    assert log_digest(again) == log_digest(clean_run)


def test_record_logs_match_the_golden_bf_pipeline(clean_run):
    """``record`` forms with driver defaults and the golden's BF pipeline
    through ``heuristic_config("BF")``: both make the same decisions."""
    log_set = clean_run
    _, _, golden_logs = formed_program(WORKLOAD, "BF")
    recorded = {
        key.split(":", 1)[1]: bucket["fingerprint"]
        for key, bucket in log_set["functions"].items()
    }
    assert recorded == {
        name: bucket["fingerprint"] for name, bucket in golden_logs.items()
    }


def test_record_suite_run_persists(clean_run, tmp_path):
    path = str(tmp_path / "log.json")
    write_log_set(clean_run, path)
    on_disk = json.loads((tmp_path / "log.json").read_text())
    assert on_disk == clean_run
    assert log_digest(on_disk) == log_digest(clean_run)
    assert load_logs(path) == clean_run["functions"]


def test_cli_record_verb(clean_run, tmp_path):
    out = tmp_path / "log.json"
    report = cli_run(["record", "--subset", WORKLOAD, "--out", str(out)])
    assert f"recorded 1 workload(s), 1 function(s) to {out}" in report
    assert f"decision log: {log_digest(clean_run)[:12]}" in report
    assert json.loads(out.read_text()) == clean_run

    with pytest.raises(SystemExit, match="needs --out FILE"):
        cli_run(["record", "--subset", WORKLOAD])


def test_run_record_quick_uses_quick_subset(tmp_path, monkeypatch):
    calls = {}

    def fake_record_suite(subset=None, faults=None):
        calls["subset"] = subset
        return build_log_set({})

    monkeypatch.setattr(
        "repro.harness.replaycmd.record_suite", fake_record_suite
    )
    run_record(quick=True, out=str(tmp_path / "log.json"))
    from repro.workloads.spec import QUICK_SUBSET

    assert calls["subset"] == list(QUICK_SUBSET)
