"""The ``trace`` and ``stats`` CLI verbs: record a formation run's
decision trace and answer questions from it.

Both form one SPEC workload through
:func:`repro.harness.replaycmd.record_workload`, the harness's one
traced run.  ``trace`` prints the decision record — every offer, trial,
rejection (with the structural constraint that fired), acceptance and
guard action.  ``--why HB,TARGET`` narrows the output to the full
decision path of one (hyperblock, target) pair: the paper's "why did
this merge happen / get rejected" question, answered from the trace
instead of a debugger.  ``--jsonl``, ``--chrome`` and ``--dot`` write
the finished trace's events (one JSON object per line), a Chrome
``chrome://tracing`` / Perfetto file and per-function DOT CFGs, with or
without ``--json``.

``stats`` aggregates the same traced formation: the slowest trials, the
rejection-reason breakdown (split by structural constraint), and the
per-function phase table whose shares are computed over span *self
time* — the ``liveness`` phase nests inside ``commit``, so commit is
charged its self time only and the shares sum to ~100%.

Each verb builds its data once (:func:`stats_data`,
:func:`explain_decision_data`); ``--json`` prints it and the text
renders it.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.harness.replaycmd import record_workload
from repro.obs.sink import write_chrome_trace, write_jsonl
from repro.obs.trace import PHASE_SPANS, FormationTrace, TraceEvent
from repro.workloads.spec import prepare_workloads


# ---------------------------------------------------------------------------
# trace rendering
# ---------------------------------------------------------------------------


_VERDICT_EVENTS = frozenset({"accept", "reject"})


def _format_event(
    name: str, attrs: dict, dur: Optional[float], depth: int
) -> str:
    parts = [("  " * depth) + name]
    pair = attrs.get("hb"), attrs.get("target")
    if pair[0] is not None and pair[1] is not None:
        parts.append(f"{pair[0]}<-{pair[1]}")
    elif "function" in attrs:
        parts.append(attrs["function"])
    if name == "reject":
        reason = attrs.get("reason", "?")
        parts.append(f"[{reason}]")
        if reason == "constraint":
            parts.append("+".join(attrs.get("constraints", ())))
    elif name == "accept":
        parts.append(f"kind={attrs.get('kind')} removed={attrs.get('removed')}")
    elif name == "trial":
        verdict = "committed" if attrs.get("committed") else "rejected"
        parts.append(verdict)
    if dur is not None:
        parts.append(f"({dur * 1e3:.3f}ms)")
    return " ".join(str(p) for p in parts)


def _render_tree(trace: FormationTrace, events, depth: int, out: list[str]) -> None:
    for event in events:
        out.append(_format_event(event.name, event.attrs, event.dur, depth))
        _render_tree(trace, trace.children(event.span_id), depth + 1, out)


def _parse_why(why: Optional[str]) -> Optional[tuple[str, str]]:
    """``(hb, target)`` from ``--why HB,TARGET``; exits on a malformed
    value before anything is formed."""
    if not why:
        return None
    try:
        hb, target = (part.strip() for part in why.split(",", 1))
    except ValueError:
        raise SystemExit(
            f"--why wants 'HB,TARGET' (e.g. --why b0,b3), got {why!r}"
        )
    return hb, target


def explain_decision_data(trace: FormationTrace, hb: str, target: str) -> dict:
    """``--why``'s data: the pair's event path and verdict.

    Raw events via ``as_dict`` plus a one-object verdict summary, and
    for a pair with no events the sorted ``[hb, target]`` pairs that
    were offered; ``trace --why --json`` prints it and the text renders
    it.
    """
    path = trace.decision_path(hb, target)
    verdict = None
    for event in path:
        if event.name in _VERDICT_EVENTS:
            verdict = event
    data: dict = {
        "hb": hb,
        "target": target,
        "found": bool(path),
        "path": [event.as_dict() for event in path],
    }
    if not path:
        data["offered"] = [
            list(pair)
            for pair in sorted(
                {
                    (e.attrs["hb"], e.attrs["target"])
                    for e in trace.named("offer")
                    if "hb" in e.attrs and "target" in e.attrs
                }
            )
        ]
    if verdict is None:
        data["verdict"] = None
    else:
        summary = {"event": verdict.name}
        for key in ("kind", "removed", "reason", "constraints",
                    "violations", "estimate"):
            if key in verdict.attrs:
                summary[key] = verdict.attrs[key]
        data["verdict"] = summary
    return data


def _explain_decision(data: dict) -> str:
    hb, target, path = data["hb"], data["target"], data["path"]
    if not path:
        listing = (
            ", ".join(f"{h},{t}" for h, t in data["offered"]) or "<none>"
        )
        return (
            f"no events for pair ({hb}, {target}); offered pairs: {listing}"
        )
    lines = [f"decision path for {hb} <- {target}:"]
    ids = {record["id"] for record in path}
    for record in path:
        depth = 1 if record.get("parent") not in ids else 2
        lines.append(_format_event(
            record["name"], record.get("attrs", {}), record.get("dur"), depth
        ))
    # One-line verdict so the answer does not have to be read out of the
    # tree: the final accept/reject for the pair.
    verdict = data["verdict"]
    if verdict is None:
        lines.append("  => never reached a trial verdict")
    elif verdict["event"] == "accept":
        lines.append(
            f"  => merged (kind={verdict.get('kind')}, "
            f"removed {verdict.get('removed')})"
        )
    else:
        reason = verdict.get("reason")
        detail = ""
        if reason == "constraint":
            detail = ": " + "; ".join(verdict.get("violations", ()))
        lines.append(f"  => rejected ({reason}{detail})")
    return "\n".join(lines)


def _formation_data(report) -> dict:
    return {
        name: {"status": str(status), "mtup": list(mtup)}
        for name, (status, mtup) in report.summary().items()
    }


def run_trace(
    workload: str,
    why: Optional[str] = None,
    jsonl: Optional[str] = None,
    chrome: Optional[str] = None,
    dot: Optional[str] = None,
    as_json: bool = False,
) -> str:
    """The ``trace`` verb: record, export, and render one formation run.

    ``dot`` is a filename prefix: each formed function is written to
    ``<prefix><function>.dot`` with hyperblocks striped by originating
    basic block (see :func:`repro.ir.dot.merge_provenance`), the visual
    side of a drift report's before/after.  ``as_json`` prints the run's
    data instead of the tree: event counts, the formation summary, the
    ``--why`` explanation, and under ``decisions`` the workload's
    decision logs exactly as a ``record`` file holds them (keyed
    ``workload:function``, engine counters embedded).  The exports are
    written in both modes.
    """
    pair = _parse_why(why)
    ((name, prepared, profile),) = prepare_workloads([workload])
    module, report, trace, logs = record_workload(name, prepared, profile)
    written = []
    if chrome:
        write_chrome_trace(trace.events, chrome, meta={"workload": workload})
        written.append(f"  chrome trace written to {chrome}")
    if jsonl:
        write_jsonl(trace.events, jsonl)
        written.append(f"  jsonl written to {jsonl}")
    if dot:
        from repro.ir.dot import function_to_dot, merge_provenance

        for func in module:
            path = f"{dot}{func.name}.dot"
            provenance = merge_provenance(trace, function=func.name)
            with open(path, "w") as handle:
                handle.write(
                    function_to_dot(func, provenance=provenance) + "\n"
                )
            written.append(f"  dot written to {path}")

    data: dict = {
        "workload": workload,
        "events": len(trace),
        "event_counts": trace.event_counts(),
        "formation": _formation_data(report),
        "decisions": logs,
    }
    if pair is not None:
        data["why"] = explain_decision_data(trace, *pair)
    if as_json:
        return json.dumps(data, indent=2, sort_keys=True)

    lines = [
        f"trace: {workload}: {data['events']} events",
        "  " + ", ".join(
            f"{event}={count}" for event, count in data["event_counts"].items()
        ),
        "  formation: " + ", ".join(
            f"{fname}={row['status']}:{tuple(row['mtup'])}"
            for fname, row in data["formation"].items()
        ),
        *written,
        "",
    ]
    if pair is not None:
        lines.append(_explain_decision(data["why"]))
    else:
        _render_tree(trace, trace.roots(), 0, lines)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# stats rendering
# ---------------------------------------------------------------------------


def phase_table(trace: FormationTrace) -> dict[str, dict[str, float]]:
    """Per-function phase self-times, in seconds.

    ``liveness`` spans nest inside ``commit`` spans, so commit is charged
    its *self* time (total minus nested liveness); every other phase has
    no nested phases.  The returned shares therefore sum to ~100% of
    phase-attributed time.
    """
    nested_liveness: dict[Optional[int], float] = {}
    for event in trace.events:
        if event.name == "liveness" and event.dur is not None:
            nested_liveness[event.parent_id] = (
                nested_liveness.get(event.parent_id, 0.0) + event.dur
            )
    table: dict[str, dict[str, float]] = {}
    for event in trace.events:
        if event.name not in PHASE_SPANS or event.dur is None:
            continue
        func = event.attrs.get("function", "<module>")
        dur = event.dur
        if event.name == "commit":
            dur -= nested_liveness.get(event.span_id, 0.0)
        row = table.setdefault(func, {})
        row[event.name] = row.get(event.name, 0.0) + dur
    return table


def rejection_breakdown(trace: FormationTrace) -> dict[str, int]:
    """Counts by rejection reason; constraint rejects split per constraint
    kind as ``constraint:<kind>`` (a trial violating two limits counts
    under both)."""
    out: dict[str, int] = {}
    for event in trace.named("reject"):
        reason = event.attrs.get("reason", "?")
        out[reason] = out.get(reason, 0) + 1
        if reason == "constraint":
            for kind in event.attrs.get("constraints", ()):
                key = f"constraint:{kind}"
                out[key] = out.get(key, 0) + 1
    return out


def slowest_trials(trace: FormationTrace, top: int) -> list[TraceEvent]:
    trials = [e for e in trace.spans("trial")]
    trials.sort(key=lambda e: -(e.dur or 0.0))
    return trials[:top]


def stats_data(workload: str, top: int = 10) -> dict:
    """The ``stats`` verb's data: the aggregates ``--json`` prints and
    the table renders."""
    ((name, prepared, profile),) = prepare_workloads([workload])
    _, report, trace, _ = record_workload(name, prepared, profile)
    return {
        "workload": workload,
        "events": len(trace),
        "event_counts": trace.event_counts(),
        "slowest_trials": [
            {
                "function": event.attrs.get("function"),
                "hb": event.attrs.get("hb"),
                "target": event.attrs.get("target"),
                "dur_s": event.dur,
                "committed": bool(event.attrs.get("committed")),
            }
            for event in slowest_trials(trace, top)
        ],
        "rejections": rejection_breakdown(trace),
        "phase_table_s": phase_table(trace),
        "formation": _formation_data(report),
    }


def run_stats(workload: str, top: int = 10, as_json: bool = False) -> str:
    """The ``stats`` verb: aggregate one traced formation run."""
    data = stats_data(workload, top=top)
    if as_json:
        return json.dumps(data, indent=2, sort_keys=True)
    lines = [f"stats: {workload}: {data['events']} events"]

    lines.append(f"  top {top} slowest trials:")
    for trial in data["slowest_trials"]:
        verdict = "committed" if trial["committed"] else "rejected"
        lines.append(
            f"    {trial['function']}: {trial['hb']} <- "
            f"{trial['target']}  {trial['dur_s'] * 1e3:.3f}ms  {verdict}"
        )

    breakdown = data["rejections"]
    lines.append("  rejections:")
    if breakdown:
        for reason in sorted(breakdown):
            lines.append(f"    {reason:<28} {breakdown[reason]}")
    else:
        lines.append("    <none>")

    table = data["phase_table_s"]
    grand_total = sum(sum(row.values()) for row in table.values())
    lines.append("  phase table (self time):")
    header = f"    {'function':<16}" + "".join(
        f"{phase:>12}" for phase in PHASE_SPANS
    ) + f"{'total':>12}{'share':>8}"
    lines.append(header)
    for func in sorted(table):
        row = table[func]
        total = sum(row.values())
        cells = "".join(
            f"{row.get(phase, 0.0) * 1e3:>10.2f}ms" for phase in PHASE_SPANS
        )
        share = total / grand_total if grand_total else 0.0
        lines.append(f"    {func:<16}{cells}{total * 1e3:>10.2f}ms{share:>8.1%}")

    return "\n".join(lines)
