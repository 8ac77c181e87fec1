"""Tests for the persistent run ledger (repro.obs.ledger)."""

import json

import pytest

from repro.obs.ledger import (
    RECORD_SCHEMA_VERSION,
    Ledger,
    LedgerError,
    machine_metadata,
    run_hash,
    utc_timestamp,
    validate_record,
)


def make_record(functions=None, **overrides):
    if functions is None:
        functions = {
            "w:f": {
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
        "decision_log": "0" * 64,
        "telemetry": {"events": 5},
    }
    record.update(overrides)
    return record


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


def test_validate_record_requires_a_decision_log():
    record = make_record()
    del record["decision_log"]
    with pytest.raises(LedgerError, match="decision_log"):
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
