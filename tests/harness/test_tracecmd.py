"""Tests for the `trace` and `stats` CLI verbs (repro.harness.tracecmd)."""

import json

import pytest

from repro.harness import tracecmd
from repro.harness.cli import run as cli_run
from repro.harness.replaycmd import record_workload
from repro.harness.tracecmd import run_stats, run_trace
from repro.workloads.spec import prepare_workloads

WORKLOAD = "mcf"


@pytest.fixture(scope="module")
def recorded():
    ((name, workload, profile),) = prepare_workloads([WORKLOAD])
    return record_workload(name, workload, profile)


def test_record_returns_trace_report_module(recorded):
    module, report, trace, logs = recorded
    assert len(trace) > 0
    assert report.summary()  # a FormationReport
    assert any(func.name == "main" for func in module)
    main = logs[f"{WORKLOAD}:main"]
    assert main["records"] and main["status"] == "ok"
    assert main["attempts"] == report.functions["main"].attempts


def test_unknown_workload_exits_nonzero():
    with pytest.raises(SystemExit, match="unknown workload"):
        run_stats("not_a_benchmark")
    with pytest.raises(SystemExit, match="unknown workload"):
        run_trace("not_a_benchmark")


def test_trace_verb_needs_a_workload():
    with pytest.raises(SystemExit, match="needs a workload"):
        cli_run(["trace"])


def test_trace_renders_decision_tree():
    out = run_trace(WORKLOAD)
    assert out.startswith(f"trace: {WORKLOAD}:")
    assert "offer" in out and "accept" in out
    assert "formation:" in out


def test_trace_why_explains_a_real_pair(recorded):
    trace = recorded[2]
    offer = next(e for e in trace.named("offer") if "hb" in e.attrs)
    pair = f"{offer.attrs['hb']},{offer.attrs['target']}"
    out = run_trace(WORKLOAD, why=pair)
    assert f"decision path for {offer.attrs['hb']} <- {offer.attrs['target']}" in out
    assert "=>" in out  # reaches a one-line verdict (or "never reached")


def test_trace_why_unknown_pair_lists_offers():
    out = run_trace(WORKLOAD, why="zz9,zz10")
    assert "no events for pair" in out
    assert "offered pairs:" in out


def test_trace_why_json_carries_the_offered_pairs_the_text_prints():
    text = run_trace(WORKLOAD, why="zz9,zz10")
    data = json.loads(run_trace(WORKLOAD, why="zz9,zz10", as_json=True))
    why = data["why"]
    assert (why["found"], why["path"], why["verdict"]) == (False, [], None)
    assert why["offered"]
    listing = text.rsplit("offered pairs: ", 1)[1]
    assert listing == ", ".join(f"{hb},{target}" for hb, target in why["offered"])
    assert why["offered"] == sorted(why["offered"])


def test_trace_why_malformed_argument(monkeypatch):
    """A malformed ``--why`` exits before anything is formed."""
    def form(*args, **kwargs):
        raise AssertionError("formed before --why was parsed")

    monkeypatch.setattr(tracecmd, "record_workload", form)
    with pytest.raises(SystemExit, match="--why wants"):
        run_trace(WORKLOAD, why="justoneblock")


def test_trace_jsonl_round_trip(tmp_path, recorded):
    path = str(tmp_path / "events.jsonl")
    out = run_trace(WORKLOAD, jsonl=path)
    assert f"jsonl written to {path}" in out
    with open(path) as handle:
        events = [json.loads(line) for line in handle]
    assert events, "jsonl export is empty"
    # Formation is deterministic: the export carries the same event
    # count as an independent traced run, and the decision events
    # round-trip with their attribution intact.
    assert len(events) == len(recorded[2])
    rejects = [e for e in events if e["name"] == "reject"]
    assert all("reason" in e["attrs"] for e in rejects)


def test_trace_chrome_export(tmp_path):
    path = str(tmp_path / "chrome.json")
    out = run_trace(WORKLOAD, chrome=path)
    assert f"chrome trace written to {path}" in out
    with open(path) as handle:
        doc = json.load(handle)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    assert events and all("ph" in e for e in events)


def test_trace_dot_export_with_provenance(tmp_path):
    prefix = str(tmp_path / "cfg_")
    out = run_trace(WORKLOAD, dot=prefix)
    assert "dot written to" in out
    path = tmp_path / "cfg_main.dot"
    dot = path.read_text()
    assert dot.startswith("digraph")
    # mcf's formation accepts merges, so at least one hyperblock must be
    # rendered as a provenance-striped table node.
    assert "<table" in dot and "bgcolor=" in dot


def test_cli_trace_with_exports(tmp_path):
    jsonl = str(tmp_path / "t.jsonl")
    chrome = str(tmp_path / "t.json")
    out = cli_run(["trace", WORKLOAD, "--jsonl", jsonl, "--chrome", chrome])
    assert "trace:" in out
    with open(jsonl) as handle:
        assert [json.loads(line) for line in handle]
    assert json.load(open(chrome))


def test_json_mode_writes_every_export(tmp_path):
    """``--json`` changes what is printed, not which files are written."""
    prefix = str(tmp_path / "cfg_")
    jsonl = tmp_path / "t.jsonl"
    chrome = tmp_path / "t.json"
    out = cli_run([
        "trace", WORKLOAD, "--json", "--dot", prefix,
        "--jsonl", str(jsonl), "--chrome", str(chrome),
    ])
    data = json.loads(out)
    assert (tmp_path / "cfg_main.dot").read_text().startswith("digraph")
    assert len(jsonl.read_text().splitlines()) == data["events"]
    assert json.loads(chrome.read_text())["traceEvents"]


def test_verbs_reject_extra_positionals(capsys):
    """``--json`` takes no file: a path after it is an extra positional
    (``--out`` names the file), not silently ignored."""
    with pytest.raises(SystemExit) as excinfo:
        cli_run(["stats", WORKLOAD, "--json", "s.json"])
    assert excinfo.value.code == 2
    assert "got extra 's.json'" in capsys.readouterr().err


def test_stats_renders_aggregates():
    out = run_stats(WORKLOAD, top=3)
    assert out.startswith(f"stats: {WORKLOAD}:")
    assert "slowest trials" in out
    assert "rejections:" in out
    assert "phase table" in out
    assert "main" in out


def test_cli_stats():
    out = cli_run(["stats", WORKLOAD, "--top", "2"])
    assert "stats:" in out
