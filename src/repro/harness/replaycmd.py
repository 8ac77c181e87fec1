"""The ``record`` and ``replay`` CLI verbs: the flight recorder on files.

:func:`record_workload` is the one place the harness forms a workload
under a tracer: ``trace``, ``stats``, ``record``, ``replay``,
``selfcheck`` and both runs of the fault drill call it.

The flight recorder keeps one artifact, a decision-log file
(:mod:`repro.obs.replay`), and makes one comparison,
:func:`~repro.obs.replay.first_divergence` plus the embedded counters
(:func:`counter_drift`):

- ``record [--quick | --subset A,B] --out FILE`` forms the suite under a
  tracer and writes the validated log set to FILE, with the engine's
  counters (``status``, ``merges``, ``mtup``, ``attempts``) embedded per
  function.  The log holds no timestamps or machine metadata, so two
  recordings of the same code write byte-identical files;
- ``replay <workload> --run FILE [--fn NAME]`` re-forms the workload
  through the same helper (:func:`record_workload`) and compares the
  fresh log with the workload's functions in FILE (``--fn`` narrows the
  comparison to one function).  A diverging decision prints
  ``REPLAY DIVERGENCE`` with the first diverging record of each
  diverging function, both sides' constraint attribution and the
  recorded side's last accepted merge before it.  Matching decisions
  with a drifted embedded counter are an engine bug, not workload drift.
  Both exit 2; otherwise the check exits 0;
- ``replay --bisect A B`` reports the first diverging decision of every
  function between two files, exiting 2 on any divergence and 0 when
  the files are decision-identical.

A file that cannot be read or is not a valid decision log exits 1 with
one line naming it.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.core.convergent import form_module
from repro.obs.replay import (
    attach_stats,
    build_log_set,
    derived_counts,
    first_divergence,
    log_digest,
    log_from_trace,
    summarize_record,
    validate_log_set,
)
from repro.obs.trace import Tracer
from repro.workloads.spec import (
    QUICK_SUBSET,
    check_workload_names,
    prepare_workloads,
)

#: Engine counters embedded in a function's log, which check mode
#: compares with a fresh run's.
COUNTERS = ("status", "merges", "mtup", "attempts")


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


def record_workload(
    name: str, workload, profile, faults=None, probes=None
) -> tuple:
    """Form one prepared workload under a tracer: the one traced run
    behind every harness verb.

    Returns ``(module, report, trace, logs)``: the formed module, its
    :class:`~repro.robustness.guard.FormationReport`, the finished
    :class:`~repro.obs.trace.FormationTrace`, and the decision logs,
    keyed ``name:function`` with the engine's counters embedded.
    Formation runs with ``form_module``'s defaults, so the log holds the
    decisions every ``form_module`` caller gets; ``faults`` (a
    :class:`repro.robustness.faultinject.FaultPlane`) perturbs the run,
    and ``probes`` (:class:`~repro.robustness.oracle.BehaviorProbe`
    inputs) arms the per-function oracle.
    """
    module = workload.module()
    tracer = Tracer()
    report = form_module(
        module, profile=profile, probes=probes, tracer=tracer, faults=faults
    )
    trace = tracer.finish()
    logs = attach_stats(log_from_trace(trace, prefix=f"{name}:"), {
        f"{name}:{fname}": _counters(freport)
        for fname, freport in report.functions.items()
    })
    return module, report, trace, logs


def _counters(freport) -> dict:
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


def record_suite(subset: Optional[list[str]] = None, faults=None) -> dict:
    """The validated decision-log set of ``subset`` (default: the whole
    SPEC suite), each workload formed by :func:`record_workload`."""
    logs: dict[str, dict] = {}
    for name, workload, profile in prepare_workloads(subset):
        *_, workload_logs = record_workload(
            name, workload, profile, faults=faults
        )
        logs.update(workload_logs)
    return build_log_set(logs)


def write_log_set(log_set: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(log_set, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_logs(path: str) -> dict:
    """The per-function logs of a decision-log file.

    Exits 1 with one line naming the file when it cannot be read or is
    not a valid decision log.
    """
    try:
        with open(path) as handle:
            log_set = json.load(handle)
        validate_log_set(log_set)
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc.strerror}")
    except ValueError as exc:  # bad JSON or a ReplayError
        raise SystemExit(f"{path} is not a valid decision log: {exc}")
    return log_set["functions"]


def summarize_log_set(log_set: dict, path: str) -> str:
    functions = log_set["functions"]
    counts = derived_counts([
        record for bucket in functions.values()
        for record in bucket["records"]
    ])
    workloads = {key.split(":", 1)[0] for key in functions}
    lines = [
        f"recorded {len(workloads)} workload(s), {len(functions)} "
        f"function(s) to {path}",
        f"  merges: {counts['accepts']} "
        f"(m/t/u/p = {'/'.join(str(n) for n in counts['mtup'])})",
        f"  decisions: accept={counts['accepts']}, "
        f"offer={counts['offers']}, reject={counts['rejects']}",
        f"  decision log: {log_digest(log_set)[:12]} "
        "(compare with `replay --run` or `replay --bisect`)",
    ]
    drifty = [
        f"{key} ({bucket['status']})"
        for key, bucket in functions.items()
        if bucket["status"] != "ok"
    ]
    if drifty:
        lines.append("  non-ok functions: " + ", ".join(drifty))
    return "\n".join(lines)


def run_record(
    subset: Optional[list[str]] = None,
    quick: bool = False,
    out: Optional[str] = None,
) -> str:
    """The ``record`` verb."""
    if not out:
        raise SystemExit(
            "record needs --out FILE, the decision-log file to write"
        )
    if quick and subset is None:
        subset = list(QUICK_SUBSET)
    log_set = record_suite(subset)
    write_log_set(log_set, out)
    return summarize_log_set(log_set, out)


# ---------------------------------------------------------------------------
# Check mode
# ---------------------------------------------------------------------------


def run_replay_check(
    workload_name: str,
    run: Optional[str],
    fn: Optional[str] = None,
) -> str:
    """Re-form one workload and compare its log with the file ``run``.

    Raises ``SystemExit(2)`` on a diverging decision, or when the
    decisions match but an embedded engine counter differs from the
    fresh run's, with the dump on stdout.  On success returns a short
    confirmation.
    """
    if not run:
        raise SystemExit(
            "replay <workload> needs --run FILE, a decision-log file "
            "`record --out` wrote"
        )
    check_workload_names([workload_name])
    recorded = load_logs(run)
    prefix = f"{workload_name}:"
    in_file = sorted(key for key in recorded if key.startswith(prefix))
    if not in_file:
        raise SystemExit(
            f"{run} has no decisions for workload {workload_name!r} "
            "(recorded workloads: "
            + ", ".join(sorted({k.split(':', 1)[0] for k in recorded}))
            + ")"
        )
    if fn is not None and prefix + fn not in in_file:
        raise SystemExit(
            f"no recorded log for {prefix + fn!r} in {run}; recorded "
            "functions: " + ", ".join(in_file)
        )
    ((name, workload, profile),) = prepare_workloads([workload_name])
    *_, fresh = record_workload(name, workload, profile)
    if fn is not None:
        fresh = {key: fresh[key] for key in fresh if key == prefix + fn}
        in_file = [prefix + fn]
    recorded = {key: recorded[key] for key in in_file}

    divergences = first_divergence(recorded, fresh)
    if divergences:
        print(format_divergences(divergences, recorded, run))
        raise SystemExit(2)
    drifted = counter_drift(recorded, fresh)
    if drifted:
        lines = [
            "replay: decision stream matched but engine counters "
            "drifted (out of sync with the decision log — this is a "
            "bug, not workload drift):"
        ]
        for key, field, was, now in drifted:
            lines.append(f"  {key}: {field} recorded {was} live {now}")
        print("\n".join(lines))
        raise SystemExit(2)

    decisions = sum(len(bucket["records"]) for bucket in recorded.values())
    return (
        f"replay ok: {workload_name} matched {run} — "
        f"{decisions} decision(s) across {len(recorded)} function(s), "
        "engine counters verified"
    )


def counter_drift(recorded: dict, fresh: dict) -> list[tuple]:
    """``(key, field, recorded value, fresh value)`` for every engine
    counter (:data:`COUNTERS`) embedded in a ``recorded`` log that the
    ``fresh`` log of the same key does not repeat.

    With :func:`~repro.obs.replay.first_divergence` this is the whole
    comparison of two logs: a guard-contained trial crash uses up an
    attempt without leaving a decision record, so only the counters
    show it.
    """
    return [
        (key, field, bucket[field], fresh[key].get(field))
        for key, bucket in sorted(recorded.items())
        for field in COUNTERS
        if field in bucket and fresh[key].get(field) != bucket[field]
    ]


def format_divergences(divergences, recorded: dict, label: str) -> str:
    """The check-mode dump: each diverging function's first diverging
    record and the recorded side's last accepted merge before it."""
    lines = [f"REPLAY DIVERGENCE against {label}"]
    for divergence in divergences:
        lines.append(divergence.describe("recorded", "live"))
        bucket = recorded.get(divergence.function)
        before = bucket["records"][:divergence.index] if bucket else ()
        last = next(
            (r for r in reversed(before) if r["event"] == "accept"), None
        )
        if last is not None:
            lines.append("  last accepted merge: " + summarize_record(last))
    lines.append(
        f"functions compared: {len(recorded)}, "
        f"diverging: {len(divergences)}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Bisect mode
# ---------------------------------------------------------------------------


def run_replay_bisect(path_a: str, path_b: str) -> str:
    """First-divergence bisection between two decision-log files.

    Returns the zero-divergence summary, or prints the per-function
    first divergences and raises ``SystemExit(2)``.
    """
    functions_a = load_logs(path_a)
    functions_b = load_logs(path_b)
    divergences = first_divergence(functions_a, functions_b)
    if not divergences:
        total = sum(
            len(bucket["records"]) for bucket in functions_a.values()
        )
        return (
            f"bisect: zero divergences — {len(functions_a)} function(s), "
            f"{total} decision record(s) identical between "
            f"{path_a} and {path_b}"
        )
    lines = [
        f"bisect: {len(divergences)} diverging function(s) between "
        f"A={path_a} and B={path_b}; first divergence of each:",
        "",
    ]
    for divergence in divergences:
        lines.append(divergence.describe("A", "B"))
        lines.append("")
    compared = len(set(functions_a) | set(functions_b))
    lines.append(
        f"functions compared: {compared}, diverging: {len(divergences)}, "
        f"identical: {compared - len(divergences)}"
    )
    print("\n".join(lines))
    raise SystemExit(2)
