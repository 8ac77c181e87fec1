"""Persistent run ledger: schema-versioned run records, content-addressed.

PR 4's telemetry answers *single-run* questions ("why was this merge
rejected?").  The paper's central claim — that unroll/peel/duplicate
decisions fall out of the merge order — is only checkable *across* runs:
did this commit change which merges were accepted, and why?  This module
gives every record/selfcheck/formation run a durable, diffable identity:

- a **run record**: a schema-versioned JSON document holding, per
  function, the ordered accept/reject *decision fingerprint* (with
  constraint attribution lifted from the trace), merge counters, block
  composition after formation, phase self-times, a telemetry snapshot,
  and machine/commit metadata;
- a **ledger**: an append-only on-disk directory (``.repro-ledger/`` by
  default) addressing each record by the sha256 of its canonical JSON,
  plus a human-greppable ``index.jsonl``;
- **validation** of run records.

Diffing two records (decision drift, merge-count and phase-time deltas)
lives in :mod:`repro.obs.rundiff`; the glue that actually *forms* the
workloads and assembles a record lives in :mod:`repro.harness.ledgercmd`
— this module, like the rest of ``repro.obs``, imports nothing from the
rest of ``repro`` so every layer can use it without cycles.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys
from typing import Optional, Sequence

#: Bumped whenever the record layout changes incompatibly.  ``compare``
#: refuses to diff records with mismatched schema versions.
RECORD_SCHEMA_VERSION = 1

#: Default ledger directory, relative to the invoking working directory.
DEFAULT_LEDGER_DIR = ".repro-ledger"

#: Event names that constitute a *decision* (everything else in a trace —
#: offers, phases, guard bookkeeping — is context, not outcome).
DECISION_EVENTS = frozenset({"accept", "reject"})


class LedgerError(ValueError):
    """A record failed validation or a run reference did not resolve."""


# ---------------------------------------------------------------------------
# Decision fingerprints
# ---------------------------------------------------------------------------


def decision_entry(event) -> dict:
    """The durable projection of one accept/reject trace event.

    Keeps exactly the attributes whose change *means* a decision changed:
    the pair, the verdict, the merge kind, and — for constraint
    rejections — which ``CONSTRAINT_*`` limits fired.  Timings, span ids
    and estimates are deliberately dropped so fingerprints are stable
    across machines and noise.
    """
    attrs = event.attrs
    entry = {
        "verdict": event.name,
        "hb": attrs.get("hb"),
        "target": attrs.get("target"),
    }
    if event.name == "accept":
        entry["kind"] = attrs.get("kind")
        entry["removed"] = attrs.get("removed")
    else:
        entry["reason"] = attrs.get("reason")
        if attrs.get("reason") == "constraint":
            entry["constraints"] = sorted(attrs.get("constraints", ()))
    return entry


def fingerprint_of(decisions: Sequence[dict]) -> str:
    """sha256 (short form) over the canonical JSON of a decision list."""
    blob = json.dumps(list(decisions), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def decision_fingerprints(trace, prefix: str = "") -> dict[str, dict]:
    """Per-function ordered decision lists + fingerprints from a trace.

    ``trace`` is a :class:`~repro.obs.trace.FormationTrace` (or anything
    with an ``events`` list in emission order).  Events are taken in
    emission order — deterministic for a deterministic formation run —
    and grouped by their ``function`` attribute, key-prefixed with
    ``prefix`` (the workload name) so functions from different workloads
    never collide in one record.
    """
    out: dict[str, dict] = {}
    for event in trace.events:
        if event.name not in DECISION_EVENTS:
            continue
        func = event.attrs.get("function")
        if func is None:
            continue
        key = f"{prefix}{func}"
        bucket = out.setdefault(key, {"decisions": []})
        bucket["decisions"].append(decision_entry(event))
    for bucket in out.values():
        bucket["fingerprint"] = fingerprint_of(bucket["decisions"])
    return out


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
    "phase_time_s": (dict,),
    "telemetry": (dict,),
}

_FUNCTION_REQUIRED = {
    "fingerprint": (str,),
    "decisions": (list,),
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
        if entry["fingerprint"] != fingerprint_of(entry["decisions"]):
            raise LedgerError(
                f"function {name!r}: fingerprint does not match its "
                "decision list (corrupt or hand-edited record)"
            )
        for decision in entry["decisions"]:
            if not isinstance(decision, dict) or "verdict" not in decision:
                raise LedgerError(
                    f"function {name!r}: malformed decision entry {decision!r}"
                )
    # Optional since PR 10: the digest of the full decision log (flight
    # recorder stream) persisted next to this record in the ledger's
    # ``decisions/`` store.  Older records simply lack the field.
    if "decision_log" in record and not isinstance(
        record["decision_log"], str
    ):
        raise LedgerError(
            "run record: field 'decision_log' must be a digest string"
        )


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
        via their optional ``decision_log`` field.  Logs are stored
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
        # Imported lazily: replay.py imports this module at load time.
        from repro.obs.replay import log_digest, validate_log_set

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
        from repro.obs.replay import validate_log_set

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
