"""The ``record`` and ``compare`` CLI verbs: persist runs, diff runs.

``record`` forms a workload suite under the decision tracer and persists
a schema-versioned run record (per-function decision fingerprints with
constraint attribution, merge counters, block composition, phase
self-times, telemetry snapshot, machine/commit metadata) into the
append-only content-addressed ledger (``.repro-ledger/`` by default).
``trace --record`` and ``selfcheck --record`` reuse the same path, so
every harness entry point can leave a durable record.

``compare`` diffs two records — ledger references (``latest`` or a hash
prefix) or plain JSON file paths, so CI can gate against a committed
baseline under ``benchmarks/baselines/`` — and exits nonzero on decision
drift, or on a phase-time regression beyond the noise threshold when
both records came from the same machine.  ``--html`` additionally writes
a static self-contained report.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.core.convergent import form_module
from repro.obs.ledger import (
    RECORD_SCHEMA_VERSION,
    Ledger,
    LedgerError,
    commit_metadata,
    decision_fingerprints,
    fingerprint_of,
    machine_metadata,
    utc_timestamp,
    validate_record,
)
from repro.obs.replay import attach_stats, build_log_set, log_from_trace
from repro.obs.rundiff import diff_runs, format_diff, write_html_report
from repro.obs.sink import MemorySink
from repro.obs.trace import Tracer, tracing
from repro.harness.tracecmd import phase_table, rejection_breakdown
from repro.workloads.spec import QUICK_SUBSET, prepare_workloads


def _composition(func) -> dict:
    """Block-composition stats of a formed function."""
    sizes = [len(block) for block in func.blocks.values()]
    return {
        "blocks": len(sizes),
        "instrs": sum(sizes),
        "max_block": max(sizes, default=0),
    }


def build_suite_record(
    subset: Optional[list[str]] = None,
    kind: str = "suite",
    label: Optional[str] = None,
    decision_logs: Optional[dict] = None,
) -> dict:
    """Form ``subset`` (default: the full SPEC suite) under a tracer and
    assemble a run record.

    Formation runs with driver defaults (failsafe on) — the same
    configuration ``form_module`` callers get — so the recorded decisions
    are the decisions the system actually makes.  The traced pass is
    *untimed*: records are about decisions; wall-time comparisons come
    from the phase self-times the trace itself carries.

    ``decision_logs`` (optional out-param dict) is filled with the
    per-function flight-recorder logs projected from the same traces —
    no extra formation pass — with the engine's ``MergeStats`` counters
    and ``decision_fingerprint()`` embedded for cross-checking.
    """
    prepared = prepare_workloads(subset)
    functions: dict[str, dict] = {}
    phase_totals: dict[str, float] = {}
    event_counts: dict[str, int] = {}
    rejections: dict[str, int] = {}
    total_events = 0
    merges = 0
    attempts = 0
    mtup = [0, 0, 0, 0]
    for name, workload, profile in prepared:
        module = workload.module()
        tracer = Tracer(sinks=(MemorySink(),))
        with tracing(tracer):
            report = form_module(
                module, profile=profile, record_events=False
            )
        trace = tracer.finish()
        fingerprints = decision_fingerprints(trace, prefix=f"{name}:")
        log_stats: dict[str, dict] = {}
        for func in module:
            key = f"{name}:{func.name}"
            freport = report.functions[func.name]
            bucket = fingerprints.get(
                key, {"decisions": [], "fingerprint": _EMPTY_FINGERPRINT}
            )
            entry = {
                "fingerprint": bucket["fingerprint"],
                "decisions": bucket["decisions"],
                "merges": freport.stats.merges,
                "mtup": list(freport.stats.mtup),
                "attempts": freport.stats.attempts,
                "status": freport.status.value,
                "stats_fingerprint": freport.stats.decision_fingerprint(),
            }
            entry.update(_composition(func))
            functions[key] = entry
            log_stats[key] = _log_stats_entry(freport)
        if decision_logs is not None:
            decision_logs.update(
                attach_stats(
                    log_from_trace(trace, prefix=f"{name}:"), log_stats
                )
            )
        merges += report.stats.merges
        attempts += report.stats.attempts
        mtup = [a + b for a, b in zip(mtup, report.stats.mtup)]
        for row in phase_table(trace).values():
            for phase, dur in row.items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + dur
        for event_name, count in trace.event_counts().items():
            event_counts[event_name] = event_counts.get(event_name, 0) + count
        for reason, count in rejection_breakdown(trace).items():
            rejections[reason] = rejections.get(reason, 0) + count
        total_events += len(trace)

    total_phase = sum(phase_totals.values())
    record = {
        "schema_version": RECORD_SCHEMA_VERSION,
        "kind": kind,
        "label": label,
        "timestamp": utc_timestamp(),
        "machine": machine_metadata(),
        "commit": commit_metadata(),
        "workloads": [name for name, _, _ in prepared],
        "merges": merges,
        "mtup": mtup,
        "attempts": attempts,
        "functions": functions,
        "phase_time_s": {
            phase: round(phase_totals[phase], 6)
            for phase in sorted(phase_totals)
        },
        "phase_shares": {
            phase: round(phase_totals[phase] / total_phase, 4)
            if total_phase
            else 0.0
            for phase in sorted(phase_totals)
        },
        "telemetry": {
            "events": total_events,
            "event_counts": event_counts,
            "rejections": rejections,
        },
    }
    return record


#: Fingerprint of a function that saw no accept/reject decisions at all
#: (e.g. a single-block function with nothing to offer).
_EMPTY_FINGERPRINT = fingerprint_of(())


def _log_stats_entry(freport) -> dict:
    """Engine-side counters embedded in a function's decision log.

    ``merges``/``mtup`` are only embedded for clean formations: a
    failed-safe function was rolled back, so its counters describe the
    aborted attempt while its events may have been truncated — the
    validator's accepts==merges cross-check would be comparing different
    things.  The stats fingerprint and attempt count always ride along.
    """
    stats = {
        "attempts": freport.stats.attempts,
        "stats_fingerprint": freport.stats.decision_fingerprint(),
        "status": freport.status.value,
    }
    if freport.status.value == "ok":
        stats["merges"] = freport.stats.merges
        stats["mtup"] = list(freport.stats.mtup)
    return stats


def record_suite_run(
    subset: Optional[list[str]] = None,
    kind: str = "suite",
    label: Optional[str] = None,
    ledger_dir: str = None,
    out: Optional[str] = None,
) -> tuple[dict, str]:
    """Build a record, persist it, and return ``(record, run_hash)``.

    ``ledger_dir=None`` uses the default ledger; ``out`` additionally
    writes the record JSON to a standalone file (the form CI commits as
    a baseline under ``benchmarks/baselines/``).
    """
    decision_logs: dict = {}
    record = build_suite_record(
        subset=subset, kind=kind, label=label, decision_logs=decision_logs,
    )
    ledger = Ledger(ledger_dir) if ledger_dir else Ledger()
    # The flight-recorder log is persisted first so the run record can
    # reference it by digest; the digest is deterministic (the log holds
    # no timestamps or machine metadata), so identical runs still dedupe
    # in both stores.
    record["decision_log"] = ledger.record_decisions(
        build_log_set(decision_logs)
    )
    digest = ledger.record(record)
    if out:
        with open(out, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return record, digest


def summarize_record(record: dict, digest: str) -> str:
    drifty = [
        name
        for name, entry in record["functions"].items()
        if entry["status"] != "ok"
    ]
    lines = [
        f"recorded run {digest[:12]} ({record['kind']}"
        + (f", label={record['label']}" if record.get("label") else "")
        + ")",
        f"  workloads: {len(record['workloads'])}, "
        f"functions: {len(record['functions'])}, "
        f"merges: {record['merges']} "
        f"(m/t/u/p = {'/'.join(str(n) for n in record['mtup'])})",
        f"  decisions: "
        + ", ".join(
            f"{name}={count}"
            for name, count in sorted(
                record["telemetry"]["event_counts"].items()
            )
            if name in ("accept", "reject", "offer")
        ),
    ]
    if record.get("decision_log"):
        lines.append(
            f"  decision log: {record['decision_log'][:12]} "
            "(replay/bisect with `replay --run`)"
        )
    if drifty:
        lines.append(
            "  non-ok functions: "
            + ", ".join(f"{n} ({record['functions'][n]['status']})"
                        for n in drifty)
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI runners
# ---------------------------------------------------------------------------


def resolve_record(ref: str, ledger: Ledger) -> dict:
    """A run reference: an existing JSON file path, ``latest``, or a
    (possibly abbreviated) ledger run hash."""
    if os.path.exists(ref):
        try:
            with open(ref) as handle:
                record = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read run record {ref!r}: {exc}")
        try:
            validate_record(record)
        except LedgerError as exc:
            raise SystemExit(f"invalid run record {ref!r}: {exc}")
        return record
    try:
        return ledger.load(ref)
    except LedgerError as exc:
        raise SystemExit(str(exc))


def run_record(
    subset: Optional[list[str]] = None,
    quick: bool = False,
    label: Optional[str] = None,
    ledger_dir: Optional[str] = None,
    out: Optional[str] = None,
    kind: str = "suite",
) -> str:
    """The ``record`` verb (and the ``--record`` flag's implementation)."""
    if quick and subset is None:
        subset = list(QUICK_SUBSET)
    record, digest = record_suite_run(
        subset=subset,
        kind=kind,
        label=label,
        ledger_dir=ledger_dir,
        out=out,
    )
    report = summarize_record(record, digest)
    if out:
        report += f"\n  record written to {out}"
    return report


def run_compare(
    run_a: Optional[str] = None,
    run_b: Optional[str] = None,
    against_ledger: Optional[str] = None,
    ledger_dir: Optional[str] = None,
    html: Optional[str] = None,
    threshold: float = 0.15,
) -> str:
    """The ``compare`` verb.  Raises ``SystemExit`` (nonzero) on drift or
    on a same-machine phase-time regression beyond ``threshold``."""
    ledger = Ledger(ledger_dir) if ledger_dir else Ledger()

    if against_ledger is not None:
        if run_a is None:
            raise SystemExit(
                "compare --against-ledger needs one run to compare "
                "(e.g. `compare run.json --against-ledger latest`)"
            )
        if run_b is not None:
            raise SystemExit(
                "compare: give either two runs or one run plus "
                "--against-ledger, not both"
            )
        record_a = resolve_record(against_ledger, ledger)
        record_b = resolve_record(run_a, ledger)
    elif run_a is not None and run_b is not None:
        record_a = resolve_record(run_a, ledger)
        record_b = resolve_record(run_b, ledger)
    else:
        raise SystemExit(
            "compare needs two runs (`compare <run-a> <run-b>`) or one "
            "run plus --against-ledger"
        )

    diff = diff_runs(record_a, record_b, time_threshold=threshold)
    report = format_diff(diff)
    if html:
        write_html_report(diff, html)
        report += f"\nhtml report written to {html}"
    if diff["has_drift"] or diff["has_time_regression"]:
        print(report)
        raise SystemExit(2)
    return report
