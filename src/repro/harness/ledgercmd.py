"""The ``record`` CLI verb: persist a formation run to the ledger.

``record`` forms a workload suite under the decision tracer and persists
two documents into the append-only ledger (``.repro-ledger/`` by
default): the run's decision log (:mod:`repro.obs.replay`, the one
encoding of formation decisions, with the engine's counters embedded per
function) and a schema-versioned run record (per-function merge
counters, status and block composition, trace event counts,
machine/commit metadata) that references the log by digest.
``replay`` checks a live run against a recorded log and bisects two logs
to their first diverging decision (:mod:`repro.harness.replaycmd`).
"""

from __future__ import annotations

import json
from typing import Optional

from repro.core.convergent import form_module
from repro.obs.ledger import (
    RECORD_SCHEMA_VERSION,
    Ledger,
    commit_metadata,
    machine_metadata,
    utc_timestamp,
)
from repro.obs.replay import (
    attach_stats,
    build_log_set,
    log_digest,
    log_from_trace,
)
from repro.obs.sink import MemorySink
from repro.obs.trace import Tracer
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
    faults=None,
) -> tuple[dict, dict]:
    """Form ``subset`` (default: the full SPEC suite) under a tracer;
    returns ``(record, log_set)``.

    Formation runs with driver defaults (failsafe on) — the same
    configuration ``form_module`` callers get — so the recorded decisions
    are the decisions the system actually makes; ``faults`` (a
    :class:`repro.robustness.faultinject.FaultPlane`) perturbs every
    workload's run.  Records are about decisions, not time: for where
    time goes, use ``stats``.

    ``log_set`` holds the per-function decision logs projected from
    per-workload traces, with the engine's counters embedded; the record
    carries its digest as ``decision_log``.
    """
    prepared = prepare_workloads(subset)
    functions: dict[str, dict] = {}
    logs: dict[str, dict] = {}
    event_counts: dict[str, int] = {}
    total_events = 0
    merges = 0
    attempts = 0
    mtup = [0, 0, 0, 0]
    for name, workload, profile in prepared:
        module = workload.module()
        tracer = Tracer(sinks=(MemorySink(),))
        report = form_module(
            module, profile=profile, tracer=tracer, faults=faults
        )
        trace = tracer.finish()
        log_stats: dict[str, dict] = {}
        for func in module:
            key = f"{name}:{func.name}"
            freport = report.functions[func.name]
            entry = {
                "merges": freport.stats.merges,
                "mtup": list(freport.stats.mtup),
                "attempts": freport.stats.attempts,
                "status": freport.status.value,
            }
            entry.update(_composition(func))
            functions[key] = entry
            log_stats[key] = _log_stats_entry(freport)
        logs.update(
            attach_stats(log_from_trace(trace, prefix=f"{name}:"), log_stats)
        )
        merges += report.stats.merges
        attempts += report.stats.attempts
        mtup = [a + b for a, b in zip(mtup, report.stats.mtup)]
        for event_name, count in trace.event_counts().items():
            event_counts[event_name] = event_counts.get(event_name, 0) + count
        total_events += len(trace)

    log_set = build_log_set(logs)
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
        "decision_log": log_digest(log_set),
        "telemetry": {"events": total_events, "event_counts": event_counts},
    }
    return record, log_set


def _log_stats_entry(freport) -> dict:
    """Engine-side counters embedded in a function's decision log.

    ``merges``/``mtup`` are only embedded for clean formations: a
    failed-safe function was rolled back, so its counters describe the
    aborted attempt while its events may have been truncated — the
    validator's accepts==merges cross-check would be comparing different
    things.  The attempt count and status always ride along.
    """
    stats = {
        "attempts": freport.stats.attempts,
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
    faults=None,
) -> tuple[dict, str]:
    """Build a record, persist it and its decision log, and return
    ``(record, run_hash)``.

    ``ledger_dir=None`` uses the default ledger; ``out`` additionally
    writes the record JSON to a standalone file; ``faults`` is forwarded
    to :func:`build_suite_record`.
    """
    record, log_set = build_suite_record(
        subset=subset, kind=kind, label=label, faults=faults
    )
    ledger = Ledger(ledger_dir) if ledger_dir else Ledger()
    # The log holds no timestamps or machine metadata, so identical runs
    # dedupe in both stores.
    ledger.record_decisions(log_set)
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
        f"  decision log: {record['decision_log'][:12]} "
        "(replay/bisect with `replay --run`)",
    ]
    if drifty:
        lines.append(
            "  non-ok functions: "
            + ", ".join(f"{n} ({record['functions'][n]['status']})"
                        for n in drifty)
        )
    return "\n".join(lines)


def run_record(
    subset: Optional[list[str]] = None,
    quick: bool = False,
    label: Optional[str] = None,
    ledger_dir: Optional[str] = None,
    out: Optional[str] = None,
) -> str:
    """The ``record`` verb."""
    if quick and subset is None:
        subset = list(QUICK_SUBSET)
    record, digest = record_suite_run(
        subset=subset,
        label=label,
        ledger_dir=ledger_dir,
        out=out,
    )
    report = summarize_record(record, digest)
    if out:
        report += f"\n  record written to {out}"
    return report
