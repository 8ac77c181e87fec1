"""Persistent run ledger: schema-versioned run records, content-addressed.

Single-run telemetry answers "why was this merge rejected?"; the ledger
keeps runs so they can be compared later.  It holds two stores:

- **run records**: schema-versioned JSON documents holding, per
  function, the merge counters, fail-safe status and block composition
  after formation, plus the run's trace event counts, machine/commit
  metadata and the digest of the run's decision log;
- **decision logs** (:mod:`repro.obs.replay`), the one encoding of
  formation decisions, stored by digest so identical runs share a file.

Both live in an append-only directory (``.repro-ledger/`` by default)
with a human-greppable ``index.jsonl``.  The glue that *forms* the
workloads and assembles a record lives in
:mod:`repro.harness.ledgercmd`; this module, like the rest of
``repro.obs``, imports nothing from the rest of ``repro`` so every layer
can use it without cycles.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys
from typing import Optional

from repro.obs.replay import log_digest, validate_log_set

#: Bumped whenever the record layout changes incompatibly; reading a
#: record of another version is refused.
RECORD_SCHEMA_VERSION = 3

#: Default ledger directory, relative to the invoking working directory.
DEFAULT_LEDGER_DIR = ".repro-ledger"


class LedgerError(ValueError):
    """A record failed validation or a run reference did not resolve."""


# ---------------------------------------------------------------------------
# Record metadata
# ---------------------------------------------------------------------------


def utc_timestamp() -> str:
    return (
        datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds")
    )


def machine_metadata() -> dict:
    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def commit_metadata(cwd: Optional[str] = None) -> dict:
    """Best-effort git identity of the code that produced a record.

    Records must be writable from non-checkout environments (tarballs,
    site-packages), so every failure mode collapses to ``rev: None``.
    """
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5, cwd=cwd,
        )
        if rev.returncode != 0:
            return {"rev": None, "dirty": None}
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=5, cwd=cwd,
        )
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        return {"rev": rev.stdout.strip(), "dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"rev": None, "dirty": None}


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

#: ``key -> allowed types`` for the record's required top-level fields.
_RECORD_REQUIRED = {
    "schema_version": (int,),
    "kind": (str,),
    "timestamp": (str,),
    "machine": (dict,),
    "commit": (dict,),
    "workloads": (list,),
    "merges": (int,),
    "mtup": (list,),
    "attempts": (int,),
    "functions": (dict,),
    "telemetry": (dict,),
    "decision_log": (str,),
}

_FUNCTION_REQUIRED = {
    "merges": (int,),
    "mtup": (list,),
    "status": (str,),
    "blocks": (int,),
    "instrs": (int,),
    "max_block": (int,),
}


def _check(mapping: dict, spec: dict, where: str) -> None:
    for key, types in spec.items():
        if key not in mapping:
            raise LedgerError(f"{where}: missing required field {key!r}")
        value = mapping[key]
        if not isinstance(value, types) or isinstance(value, bool) and bool not in types:
            raise LedgerError(
                f"{where}: field {key!r} has type {type(value).__name__}, "
                f"wanted {'/'.join(t.__name__ for t in types)}"
            )


def validate_record(record: dict) -> None:
    """Raise :class:`LedgerError` unless ``record`` is a valid run record."""
    if not isinstance(record, dict):
        raise LedgerError("run record must be a JSON object")
    _check(record, _RECORD_REQUIRED, "run record")
    if record["schema_version"] != RECORD_SCHEMA_VERSION:
        raise LedgerError(
            f"run record: schema_version {record['schema_version']} "
            f"!= supported {RECORD_SCHEMA_VERSION}"
        )
    for name, entry in record["functions"].items():
        if not isinstance(entry, dict):
            raise LedgerError(f"run record: function {name!r} is not an object")
        _check(entry, _FUNCTION_REQUIRED, f"function {name!r}")


# ---------------------------------------------------------------------------
# The ledger directory
# ---------------------------------------------------------------------------


def run_hash(record: dict) -> str:
    """Content address: sha256 hex of the record's canonical JSON."""
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Ledger:
    """Append-only, content-addressed store of run records.

    Layout::

        <root>/runs/<sha256>.json   one file per distinct record
        <root>/index.jsonl          one line per recorded run (append-only)

    Records are immutable: recording identical content twice yields the
    same hash and does not rewrite the file (the index gains a second
    line, preserving the "a run happened" history).
    """

    def __init__(self, root: str = DEFAULT_LEDGER_DIR):
        self.root = root

    @property
    def runs_dir(self) -> str:
        return os.path.join(self.root, "runs")

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "index.jsonl")

    @property
    def decisions_dir(self) -> str:
        """Content-addressed store of decision logs (flight recorder).

        Lives next to ``runs/`` — run records reference a log by digest
        via their ``decision_log`` field.  Logs are stored
        separately because they are an order of magnitude larger than
        records and deliberately hash-stable across machines:
        two bit-identical runs share one log file.
        """
        return os.path.join(self.root, "decisions")

    # -- writing ---------------------------------------------------------

    def record(self, record: dict) -> str:
        """Validate, persist, and index ``record``; returns its run hash."""
        validate_record(record)
        digest = run_hash(record)
        os.makedirs(self.runs_dir, exist_ok=True)
        path = os.path.join(self.runs_dir, f"{digest}.json")
        if not os.path.exists(path):
            tmp = path + ".tmp"
            with open(tmp, "w") as handle:
                json.dump(record, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, path)
        index_line = {
            "run": digest,
            "timestamp": record["timestamp"],
            "kind": record["kind"],
            "label": record.get("label"),
            "workloads": len(record["workloads"]),
            "merges": record["merges"],
        }
        with open(self.index_path, "a") as handle:
            json.dump(index_line, handle, sort_keys=True)
            handle.write("\n")
        return digest

    def record_decisions(self, log_set: dict) -> str:
        """Validate and persist a decision-log set; returns its digest.

        Idempotent like :meth:`record`: identical logs (same decisions,
        any machine) share one file.
        """
        validate_log_set(log_set)
        digest = log_digest(log_set)
        os.makedirs(self.decisions_dir, exist_ok=True)
        path = os.path.join(self.decisions_dir, f"{digest}.json")
        if not os.path.exists(path):
            tmp = path + ".tmp"
            with open(tmp, "w") as handle:
                json.dump(log_set, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, path)
        return digest

    # -- reading ---------------------------------------------------------

    def resolve_decisions(self, ref: str) -> str:
        """Resolve a (possibly abbreviated) decision-log digest."""
        try:
            names = os.listdir(self.decisions_dir)
        except OSError:
            names = []
        matches = sorted(
            name[:-5]
            for name in names
            if name.endswith(".json") and name.startswith(ref)
        )
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise LedgerError(
                f"no decision log matches {ref!r} in {self.root!r}"
            )
        raise LedgerError(
            f"ambiguous decision-log reference {ref!r}: "
            + ", ".join(m[:12] for m in matches)
        )

    def load_decisions(self, ref: str) -> dict:
        """Load a decision log by digest prefix; validates on read."""
        digest = self.resolve_decisions(ref)
        path = os.path.join(self.decisions_dir, f"{digest}.json")
        try:
            with open(path) as handle:
                log_set = json.load(handle)
        except (OSError, ValueError) as exc:
            raise LedgerError(f"cannot read decision log {digest}: {exc}")
        validate_log_set(log_set)
        return log_set

    def entries(self) -> list[dict]:
        """Index lines, oldest first (empty for a fresh/missing ledger)."""
        try:
            with open(self.index_path) as handle:
                return [
                    json.loads(line)
                    for line in handle
                    if line.strip()
                ]
        except OSError:
            return []

    def latest(self) -> Optional[str]:
        """Hash of the most recently recorded run, or ``None``."""
        entries = self.entries()
        return entries[-1]["run"] if entries else None

    def resolve(self, ref: str) -> str:
        """Resolve ``"latest"`` or a (possibly abbreviated) run hash."""
        if ref == "latest":
            digest = self.latest()
            if digest is None:
                raise LedgerError(
                    f"ledger {self.root!r} is empty: nothing to resolve "
                    "'latest' against (record a run first)"
                )
            return digest
        try:
            names = os.listdir(self.runs_dir)
        except OSError:
            names = []
        matches = sorted(
            name[:-5]
            for name in names
            if name.endswith(".json") and name.startswith(ref)
        )
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise LedgerError(
                f"no ledger run matches {ref!r} in {self.root!r}"
            )
        raise LedgerError(
            f"ambiguous run reference {ref!r}: "
            + ", ".join(m[:12] for m in matches)
        )

    def load(self, ref: str) -> dict:
        """Load a record by ``"latest"`` / hash prefix; validates on read."""
        digest = self.resolve(ref)
        path = os.path.join(self.runs_dir, f"{digest}.json")
        try:
            with open(path) as handle:
                record = json.load(handle)
        except (OSError, ValueError) as exc:
            raise LedgerError(f"cannot read ledger run {digest}: {exc}")
        validate_record(record)
        return record
