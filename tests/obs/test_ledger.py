"""Tests for the persistent run ledger (repro.obs.ledger)."""

import json

import pytest

from repro.obs.ledger import (
    RECORD_SCHEMA_VERSION,
    Ledger,
    LedgerError,
    decision_entry,
    decision_fingerprints,
    fingerprint_of,
    machine_metadata,
    run_hash,
    utc_timestamp,
    validate_record,
)


class FakeEvent:
    def __init__(self, name, **attrs):
        self.name = name
        self.attrs = attrs


class FakeTrace:
    def __init__(self, events):
        self.events = events


def accept(func, hb, target, kind="merge", removed=1):
    return FakeEvent(
        "accept", function=func, hb=hb, target=target, kind=kind,
        removed=removed,
    )


def reject(func, hb, target, reason="constraint", constraints=("instructions",)):
    return FakeEvent(
        "reject", function=func, hb=hb, target=target, reason=reason,
        constraints=list(constraints),
    )


def make_record(functions=None, **overrides):
    if functions is None:
        decisions = [decision_entry(accept("f", "b0", "b1"))]
        functions = {
            "w:f": {
                "fingerprint": fingerprint_of(decisions),
                "decisions": decisions,
                "merges": 1,
                "mtup": [1, 0, 0, 0],
                "status": "ok",
                "blocks": 2,
                "instrs": 10,
                "max_block": 6,
            }
        }
    record = {
        "schema_version": RECORD_SCHEMA_VERSION,
        "kind": "test",
        "timestamp": utc_timestamp(),
        "machine": machine_metadata(),
        "commit": {"rev": None, "dirty": None},
        "workloads": ["w"],
        "merges": 1,
        "mtup": [1, 0, 0, 0],
        "attempts": 2,
        "functions": functions,
        "phase_time_s": {"optimize": 0.001},
        "telemetry": {"events": 5},
    }
    record.update(overrides)
    return record


# -- fingerprints -----------------------------------------------------------


def test_decision_entry_projects_accept_and_reject():
    a = decision_entry(accept("f", "b0", "b1", kind="unroll", removed=2))
    assert a == {
        "verdict": "accept", "hb": "b0", "target": "b1",
        "kind": "unroll", "removed": 2,
    }
    r = decision_entry(
        reject("f", "b0", "b2", constraints=["register_writes", "instructions"])
    )
    assert r["verdict"] == "reject"
    assert r["reason"] == "constraint"
    # Constraints are sorted so attribute emission order never matters.
    assert r["constraints"] == ["instructions", "register_writes"]


def test_fingerprint_changes_with_decisions():
    a = [decision_entry(accept("f", "b0", "b1"))]
    b = [decision_entry(reject("f", "b0", "b1"))]
    assert fingerprint_of(a) != fingerprint_of(b)
    assert fingerprint_of(a) == fingerprint_of(list(a))
    assert len(fingerprint_of(a)) == 16


def test_decision_fingerprints_groups_by_function_with_prefix():
    trace = FakeTrace([
        accept("f", "b0", "b1"),
        FakeEvent("offer", function="f", hb="b0", target="b2"),  # not a decision
        reject("g", "b0", "b2"),
        accept("f", "b0", "b2"),
    ])
    out = decision_fingerprints(trace, prefix="w:")
    assert set(out) == {"w:f", "w:g"}
    assert len(out["w:f"]["decisions"]) == 2
    assert out["w:f"]["fingerprint"] == fingerprint_of(out["w:f"]["decisions"])


def test_decision_order_matters():
    e1, e2 = accept("f", "b0", "b1"), reject("f", "b0", "b2")
    fwd = decision_fingerprints(FakeTrace([e1, e2]))["f"]["fingerprint"]
    rev = decision_fingerprints(FakeTrace([e2, e1]))["f"]["fingerprint"]
    assert fwd != rev


# -- validation -------------------------------------------------------------


def test_validate_record_accepts_well_formed():
    validate_record(make_record())


def test_validate_record_rejects_missing_field():
    record = make_record()
    del record["merges"]
    with pytest.raises(LedgerError, match="merges"):
        validate_record(record)


def test_validate_record_rejects_wrong_schema_version():
    with pytest.raises(LedgerError, match="schema_version"):
        validate_record(make_record(schema_version=RECORD_SCHEMA_VERSION + 1))


def test_validate_record_rejects_tampered_fingerprint():
    record = make_record()
    entry = next(iter(record["functions"].values()))
    entry["fingerprint"] = "0" * 16
    with pytest.raises(LedgerError, match="fingerprint"):
        validate_record(record)


def test_validate_record_rejects_bool_masquerading_as_int():
    with pytest.raises(LedgerError, match="merges"):
        validate_record(make_record(merges=True))


# -- the ledger directory ---------------------------------------------------


def test_ledger_record_and_load_round_trip(tmp_path):
    ledger = Ledger(str(tmp_path / "ledger"))
    record = make_record()
    digest = ledger.record(record)
    assert digest == run_hash(record)
    assert ledger.latest() == digest
    loaded = ledger.load("latest")
    assert loaded == json.loads(json.dumps(record))  # JSON round-trip equal
    assert ledger.load(digest[:10]) == loaded


def test_ledger_recording_is_idempotent_but_indexed(tmp_path):
    ledger = Ledger(str(tmp_path / "ledger"))
    record = make_record()
    d1 = ledger.record(record)
    d2 = ledger.record(record)
    assert d1 == d2
    assert len(ledger.entries()) == 2  # both runs happened
    runs = list((tmp_path / "ledger" / "runs").iterdir())
    assert len(runs) == 1  # one content-addressed file


def test_ledger_rejects_invalid_record(tmp_path):
    ledger = Ledger(str(tmp_path / "ledger"))
    with pytest.raises(LedgerError):
        ledger.record({"schema_version": RECORD_SCHEMA_VERSION})


def test_ledger_resolve_errors(tmp_path):
    ledger = Ledger(str(tmp_path / "ledger"))
    with pytest.raises(LedgerError, match="empty"):
        ledger.resolve("latest")
    with pytest.raises(LedgerError, match="no ledger run"):
        ledger.resolve("deadbeef")
    a = make_record(label="a")
    b = make_record(label="b")
    ha = ledger.record(a)
    hb = ledger.record(b)
    common = 0
    while ha[common] == hb[common]:
        common += 1
    if common:
        with pytest.raises(LedgerError, match="ambiguous"):
            ledger.resolve(ha[:common])


def test_run_hash_is_content_stable():
    record = make_record(timestamp="2026-01-01T00:00:00+00:00")
    assert run_hash(record) == run_hash(json.loads(json.dumps(record)))
    other = make_record(timestamp="2026-01-01T00:00:01+00:00")
    assert run_hash(record) != run_hash(other)
