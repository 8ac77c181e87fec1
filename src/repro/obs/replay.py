"""The decision flight recorder: schema-versioned decision logs and
first-divergence bisection.

The decision log is the one encoding of formation decisions: ``record``
writes a log set to a file, the formation golden pins each pipeline's
digest, and ``replay`` and the fault drill compare logs function by
function.  A digest mismatch says *that* two runs decided differently;
this module also answers "*which* decision diverged first, and what did
each side see?"  Two pieces:

- a **decision log** — per function, the ordered, machine-stable
  projection of the trace's offer/accept/reject instants: pair ids,
  ``CONSTRAINT_*`` attribution, the estimator's
  :class:`~repro.core.constraints.BlockEstimate` numbers, and the ordinal
  of the offer each verdict answers.  Timings, span ids and machine
  metadata are deliberately excluded, so two bit-identical formation
  runs — even on different machines — produce byte-identical logs with
  the *same* digest;
- a **bisector** (:func:`first_divergence`) — given two logs (two
  commits, a recorded file and a fresh run, a clean run and a fault
  drill), the first diverging record per function, with both sides'
  estimates and constraint attribution.

Like the rest of ``repro.obs`` this module imports nothing from the
rest of ``repro``: logs are built from trace events, and the engine
counters a log carries (``merges``/``mtup``/``attempts``) are passed in
by the harness layer.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Sequence

#: Bumped whenever the decision-record layout changes incompatibly.
DECISION_LOG_SCHEMA_VERSION = 1

#: Trace instants that enter the flight recorder.  Everything else in a
#: trace (spans, guard bookkeeping) is context the recorder deliberately
#: leaves behind: it is either timing-dependent or process-local, and
#: the log must be machine-stable.
FLIGHT_EVENTS = frozenset({"offer", "accept", "reject"})


class ReplayError(ValueError):
    """A decision log failed validation."""


# ---------------------------------------------------------------------------
# Record projection
# ---------------------------------------------------------------------------


def fingerprint_of(records: Sequence[dict]) -> str:
    """sha256 (short form) over the canonical JSON of a record list."""
    blob = json.dumps(list(records), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def decision_record(name: str, attrs: dict) -> dict:
    """The machine-stable projection of one offer/accept/reject event.

    Every value kept here is a pure function of the formation inputs
    (module, profile, policy, constraints, fault plane): block names,
    offer depth/seq, merge kind, constraint attribution, and the integer
    estimator projection.  Nothing timing- or process-dependent survives,
    which is what makes logs diff-able across machines.
    """
    record = {
        "event": name,
        "hb": attrs.get("hb"),
        "target": attrs.get("target"),
    }
    if name == "offer":
        record["depth"] = attrs.get("depth")
        record["seq"] = attrs.get("seq")
        if "pending" in attrs:
            record["pending"] = attrs["pending"]
    elif name == "accept":
        record["kind"] = attrs.get("kind")
        record["removed"] = attrs.get("removed")
        if "estimate" in attrs:
            record["estimate"] = dict(attrs["estimate"])
    else:  # reject
        record["reason"] = attrs.get("reason")
        if "kind" in attrs:
            record["kind"] = attrs["kind"]
        if "policy" in attrs:
            record["policy"] = attrs["policy"]
        if "constraints" in attrs:
            record["constraints"] = list(attrs["constraints"])
        if "violations" in attrs:
            record["violations"] = list(attrs["violations"])
        if "estimate" in attrs:
            record["estimate"] = dict(attrs["estimate"])
    return record


def log_from_trace(trace, prefix: str = "") -> dict[str, dict]:
    """Per-function decision logs from a finished trace.

    ``trace`` is anything with an ``events`` list in emission order (a
    :class:`~repro.obs.trace.Tracer` or
    :class:`~repro.obs.trace.FormationTrace`) — or the bare event
    sequence itself.  Events are
    grouped by their ``function`` attribute, key-prefixed with
    ``prefix`` (the workload name) so functions from different workloads
    never collide in one log set; each record carries
    the ordinal of the most recent preceding ``offer`` for its function,
    so a verdict can always be tied back to the offer it answers.
    """
    out: dict[str, dict] = {}
    offers: dict[str, int] = {}
    for event in getattr(trace, "events", trace):
        if event.name not in FLIGHT_EVENTS:
            continue
        func = event.attrs.get("function")
        if func is None:
            continue
        key = f"{prefix}{func}"
        bucket = out.setdefault(key, {"records": []})
        record = decision_record(event.name, event.attrs)
        if event.name == "offer":
            offers[key] = offers.get(key, -1) + 1
            record["offer"] = offers[key]
        else:
            record["offer"] = offers.get(key, -1)
        bucket["records"].append(record)
    for bucket in out.values():
        bucket["fingerprint"] = fingerprint_of(bucket["records"])
    return out


def derived_counts(records: Sequence[dict]) -> dict:
    """Counters a record list implies: offers, verdicts, per-kind accepts.

    ``mtup`` follows the paper's (merged, tail duplicated, unrolled,
    peeled) convention.  ``attempts`` is deliberately *not* derived: a
    guard-contained trial crash consumes an attempt without leaving any
    decision event, so only the engine's own counter is authoritative.
    """
    kinds = {"merge": 0, "tail_duplication": 0, "unroll": 0, "peel": 0}
    offers = accepts = rejects = 0
    for record in records:
        event = record.get("event")
        if event == "offer":
            offers += 1
        elif event == "accept":
            accepts += 1
            kind = record.get("kind")
            if kind in kinds:
                kinds[kind] += 1
        elif event == "reject":
            rejects += 1
    return {
        "offers": offers,
        "accepts": accepts,
        "rejects": rejects,
        "mtup": [
            accepts,
            kinds["tail_duplication"],
            kinds["unroll"],
            kinds["peel"],
        ],
    }


def build_log_set(functions: dict[str, dict]) -> dict:
    """Assemble (and validate) a complete, hashable decision-log set.

    The set holds *only* deterministic content — no timestamps or
    machine metadata — so identical formation runs recorded on
    different days or machines write byte-identical files with the
    same digest.
    """
    log_set = {
        "schema_version": DECISION_LOG_SCHEMA_VERSION,
        "kind": "decision_log",
        "functions": {name: functions[name] for name in sorted(functions)},
        "counts": _set_counts(functions),
    }
    validate_log_set(log_set)
    return log_set


def _set_counts(functions: dict[str, dict]) -> dict:
    totals = {"functions": len(functions), "offers": 0, "accepts": 0,
              "rejects": 0}
    for bucket in functions.values():
        counts = derived_counts(bucket.get("records", ()))
        totals["offers"] += counts["offers"]
        totals["accepts"] += counts["accepts"]
        totals["rejects"] += counts["rejects"]
    return totals


def log_digest(log_set: dict) -> str:
    """Content address: sha256 hex of the log set's canonical JSON."""
    blob = json.dumps(log_set, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def validate_log_set(log_set: dict) -> None:
    """Raise :class:`ReplayError` unless ``log_set`` is a valid log."""
    if not isinstance(log_set, dict):
        raise ReplayError("decision log must be a JSON object")
    if log_set.get("kind") != "decision_log":
        raise ReplayError(
            f"not a decision log (kind={log_set.get('kind')!r})"
        )
    if log_set.get("schema_version") != DECISION_LOG_SCHEMA_VERSION:
        raise ReplayError(
            f"decision log: schema_version {log_set.get('schema_version')} "
            f"!= supported {DECISION_LOG_SCHEMA_VERSION}"
        )
    functions = log_set.get("functions")
    if not isinstance(functions, dict):
        raise ReplayError("decision log: 'functions' must be an object")
    for name, bucket in functions.items():
        if not isinstance(bucket, dict):
            raise ReplayError(f"decision log: function {name!r} not an object")
        records = bucket.get("records")
        if not isinstance(records, list):
            raise ReplayError(
                f"decision log: function {name!r} has no record list"
            )
        for index, record in enumerate(records):
            if not isinstance(record, dict) or "event" not in record:
                raise ReplayError(
                    f"function {name!r}: malformed record #{index}: "
                    f"{record!r}"
                )
            if record["event"] not in FLIGHT_EVENTS:
                raise ReplayError(
                    f"function {name!r}: record #{index} has unknown "
                    f"event {record['event']!r}"
                )
        if bucket.get("fingerprint") != fingerprint_of(records):
            raise ReplayError(
                f"function {name!r}: fingerprint does not match its "
                "record list (corrupt or hand-edited log)"
            )
        counts = derived_counts(records)
        if "merges" in bucket and bucket["merges"] != counts["accepts"]:
            raise ReplayError(
                f"function {name!r}: embedded merge counter "
                f"{bucket['merges']} != {counts['accepts']} accepts in "
                "the record stream (MergeStats cross-check failed)"
            )
        if "mtup" in bucket and list(bucket["mtup"]) != counts["mtup"]:
            raise ReplayError(
                f"function {name!r}: embedded mtup {bucket['mtup']} != "
                f"{counts['mtup']} derived from the record stream"
            )


def attach_stats(
    functions: dict[str, dict], stats_by_function: dict[str, dict]
) -> dict[str, dict]:
    """Embed engine-side counters into per-function logs (in place).

    ``stats_by_function`` maps the same keys to dicts with ``merges``,
    ``mtup``, ``attempts`` and ``status`` — the engine's counters, which
    validation checks against the log's derived accept counts and
    check-mode replay checks against a fresh run's.  Functions that formed
    without any decision events (nothing to offer) gain an empty record
    bucket so both checks still cover them.
    """
    for key, stats in stats_by_function.items():
        bucket = functions.setdefault(key, {"records": []})
        bucket.setdefault("fingerprint", fingerprint_of(bucket["records"]))
        bucket.update(stats)
    return functions


# ---------------------------------------------------------------------------
# Rendering and bisection
# ---------------------------------------------------------------------------


def summarize_record(record: Optional[dict]) -> str:
    """One-line human rendering of a decision record."""
    if record is None:
        return "<none>"
    pair = f"({record.get('hb')},{record.get('target')})"
    event = record.get("event")
    if event == "offer":
        return (
            f"offer #{record.get('offer')} {pair} "
            f"depth={record.get('depth')} seq={record.get('seq')}"
        )
    if event == "accept":
        est = record.get("estimate") or {}
        detail = f"kind={record.get('kind')} removed={record.get('removed')}"
        if est:
            detail += f" est={est.get('total_instructions')}"
        return f"accepted {pair} {detail}"
    reason = record.get("reason")
    detail = str(reason)
    if reason == "constraint":
        detail = "+".join(constraint_labels(record)) or "constraint"
        est = record.get("estimate") or {}
        if est:
            detail += f" (est {est.get('total_instructions')})"
    return f"rejected {pair} [{detail}]"


def constraint_labels(record: dict) -> list[str]:
    """``CONSTRAINT_*`` names for a constraint-rejection record."""
    return [
        "CONSTRAINT_" + str(kind).upper()
        for kind in record.get("constraints", ())
    ]


#: Which structural constraint each :class:`BlockEstimate` counter feeds
#: (string mirror of ``repro.core.constraints`` — the obs layer cannot
#: import the core to ask).  Lets a divergence dump attribute estimate
#: drift to the block limit it pressures even when both runs reached the
#: same verdict: a one-instruction drift *is* a latent
#: ``CONSTRAINT_INSTRUCTIONS`` flip waiting for a fuller block.
ESTIMATE_CONSTRAINTS = {
    "real_instructions": "CONSTRAINT_INSTRUCTIONS",
    "fanout_instructions": "CONSTRAINT_INSTRUCTIONS",
    "null_writes": "CONSTRAINT_INSTRUCTIONS",
    "null_stores": "CONSTRAINT_INSTRUCTIONS",
    "total_instructions": "CONSTRAINT_INSTRUCTIONS",
    "memory_ops": "CONSTRAINT_MEMORY_OPS",
    "reg_reads": "CONSTRAINT_REGISTER_READS",
    "reg_writes": "CONSTRAINT_REGISTER_WRITES",
}


def diff_attribution(key: str) -> str:
    """Constraint tag (`` -> CONSTRAINT_*``) for a diff key, or ``""``."""
    if key.startswith("estimate."):
        constraint = ESTIMATE_CONSTRAINTS.get(key.split(".", 1)[1])
        if constraint:
            return f" -> {constraint}"
    elif key == "constraints":
        return " -> constraint verdict flipped"
    return ""


def diff_records(a: Optional[dict], b: Optional[dict]) -> list[tuple]:
    """``(key, a_value, b_value)`` for every differing field — estimates
    are flattened so the attribution diff names the exact counter."""
    out: list[tuple] = []
    a = a or {}
    b = b or {}
    keys = sorted(set(a) | set(b))
    for key in keys:
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        if key == "estimate":
            sub = sorted(set(va or {}) | set(vb or {}))
            for field in sub:
                fa = (va or {}).get(field)
                fb = (vb or {}).get(field)
                if fa != fb:
                    out.append((f"estimate.{field}", fa, fb))
        else:
            out.append((key, va, vb))
    return out


class FunctionDivergence:
    """First diverging record of one function between two logs."""

    __slots__ = ("function", "index", "record_a", "record_b")

    def __init__(
        self,
        function: str,
        index: int,
        record_a: Optional[dict],
        record_b: Optional[dict],
    ):
        self.function = function
        self.index = index
        self.record_a = record_a
        self.record_b = record_b

    @property
    def offer(self) -> Optional[int]:
        for record in (self.record_a, self.record_b):
            if record is not None and record.get("offer", -1) >= 0:
                return record["offer"]
        return None

    def describe(self, label_a: str = "A", label_b: str = "B") -> str:
        pair = None
        for record in (self.record_a, self.record_b):
            if record is not None:
                pair = f"({record.get('hb')},{record.get('target')})"
                break
        head = f"{self.function}: record #{self.index}"
        if self.offer is not None:
            head += f", offer #{self.offer}"
        if pair:
            head += f" on pair {pair}"
        lines = [
            head,
            f"  {label_a}: " + summarize_record(self.record_a),
            f"  {label_b}: " + summarize_record(self.record_b),
        ]
        for key, va, vb in diff_records(self.record_a, self.record_b):
            lines.append(
                f"    {key}: {label_a}={va!r} {label_b}={vb!r}"
                + diff_attribution(key)
            )
        return "\n".join(lines)


def first_divergence(
    functions_a: dict[str, dict], functions_b: dict[str, dict]
) -> list[FunctionDivergence]:
    """First diverging decision per function between two logs.

    Functions are independent decision streams, so each contributes at
    most one divergence — the earliest record index where the two logs
    disagree (including one log simply being longer, or a function
    existing on only one side).  Returns an empty list when the logs are
    decision-identical; fingerprints short-circuit matching functions.
    """
    out: list[FunctionDivergence] = []
    for key in sorted(set(functions_a) | set(functions_b)):
        bucket_a = functions_a.get(key)
        bucket_b = functions_b.get(key)
        if bucket_a is None or bucket_b is None:
            present = bucket_a or bucket_b
            records = present.get("records", ()) if present else ()
            first = records[0] if records else None
            out.append(
                FunctionDivergence(
                    key, 0,
                    first if bucket_a is not None else None,
                    first if bucket_b is not None else None,
                )
            )
            continue
        if bucket_a.get("fingerprint") == bucket_b.get("fingerprint"):
            continue
        records_a = bucket_a.get("records", ())
        records_b = bucket_b.get("records", ())
        for index in range(max(len(records_a), len(records_b))):
            record_a = records_a[index] if index < len(records_a) else None
            record_b = records_b[index] if index < len(records_b) else None
            if record_a != record_b:
                out.append(
                    FunctionDivergence(key, index, record_a, record_b)
                )
                break
        else:
            # Same records, different fingerprint: the log is corrupt —
            # surface it as a divergence at the end of the stream rather
            # than silently calling the runs identical.
            out.append(
                FunctionDivergence(key, len(records_a), None, None)
            )
    return out
