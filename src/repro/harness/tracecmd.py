"""The ``trace`` and ``stats`` CLI verbs: record a formation run's
decision trace and answer questions from it.

``trace`` forms one SPEC workload under a tracer and prints the
decision record — every offer, trial, rejection (with the structural
constraint that fired), acceptance and guard action.  ``--why HB,TARGET``
narrows the output to the full decision path of one (hyperblock, target)
pair: the paper's "why did this merge happen / get rejected" question,
answered from the trace instead of a debugger.  ``--jsonl`` and
``--chrome`` export the raw events (one JSON object per line) and a
Chrome ``chrome://tracing`` / Perfetto file.

``stats`` runs the same traced formation and aggregates: the slowest
trials, the rejection-reason breakdown (split by structural constraint),
and the per-function phase table whose shares are computed over span
*self time* — the ``liveness`` phase nests inside ``commit``, so commit
is charged its self time only and the shares sum to ~100%.
"""

from __future__ import annotations

from typing import Optional

from repro.core.convergent import form_module
from repro.obs.sink import JsonlSink, MemorySink, write_chrome_trace
from repro.obs.trace import PHASE_SPANS, FormationTrace, TraceEvent, Tracer
from repro.workloads.spec import prepare_workloads


def record_formation_trace(
    workload_name: str,
    jsonl: Optional[str] = None,
) -> tuple[FormationTrace, object, object]:
    """Form one SPEC workload under a fresh tracer.

    Returns ``(trace, formation report, formed module)``.  Setup (module
    build, profile collection) happens outside the trace so the record is
    purely about formation decisions; the formed module rides along so
    callers can render what the decisions produced (``--dot``).
    """
    ((_, workload, profile),) = prepare_workloads([workload_name])
    module = workload.module()
    sinks: list = [MemorySink()]
    jsonl_sink: Optional[JsonlSink] = None
    if jsonl:
        jsonl_sink = JsonlSink(jsonl)
        sinks.append(jsonl_sink)
    tracer = Tracer(sinks=sinks)
    try:
        report = form_module(module, profile=profile, tracer=tracer)
    finally:
        # Deterministic flush even when formation raises: whatever was
        # traced is complete lines on disk (close is idempotent; the
        # tracer's finish() below closes the sink again harmlessly).
        if jsonl_sink is not None:
            jsonl_sink.close()
    return tracer.finish(), report, module


# ---------------------------------------------------------------------------
# trace rendering
# ---------------------------------------------------------------------------


_VERDICT_EVENTS = frozenset({"accept", "reject"})


def _format_event(event: TraceEvent, depth: int) -> str:
    attrs = event.attrs
    parts = [("  " * depth) + event.name]
    pair = attrs.get("hb"), attrs.get("target")
    if pair[0] is not None and pair[1] is not None:
        parts.append(f"{pair[0]}<-{pair[1]}")
    elif "function" in attrs:
        parts.append(attrs["function"])
    if event.name == "reject":
        reason = attrs.get("reason", "?")
        parts.append(f"[{reason}]")
        if reason == "constraint":
            parts.append("+".join(attrs.get("constraints", ())))
    elif event.name == "accept":
        parts.append(f"kind={attrs.get('kind')} removed={attrs.get('removed')}")
    elif event.name == "trial":
        verdict = "committed" if attrs.get("committed") else "rejected"
        parts.append(verdict)
    if event.dur is not None:
        parts.append(f"({event.dur * 1e3:.3f}ms)")
    return " ".join(str(p) for p in parts)


def _render_tree(trace: FormationTrace, events, depth: int, out: list[str]) -> None:
    for event in events:
        out.append(_format_event(event, depth))
        _render_tree(trace, trace.children(event.span_id), depth + 1, out)


def explain_decision_data(trace: FormationTrace, hb: str, target: str) -> dict:
    """Machine-readable ``--why``: the pair's event path and verdict.

    The same selection as :func:`_explain_decision`, shaped for tooling
    (``trace --why ... --json``): raw events via ``as_dict`` plus a
    one-object verdict summary.
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


def _explain_decision(trace: FormationTrace, hb: str, target: str) -> str:
    path = trace.decision_path(hb, target)
    if not path:
        pairs = sorted(
            {
                (e.attrs["hb"], e.attrs["target"])
                for e in trace.named("offer")
                if "hb" in e.attrs and "target" in e.attrs
            }
        )
        listing = ", ".join(f"{h},{t}" for h, t in pairs) or "<none>"
        return (
            f"no events for pair ({hb}, {target}); offered pairs: {listing}"
        )
    lines = [f"decision path for {hb} <- {target}:"]
    ids = {e.span_id for e in path}
    for event in path:
        depth = 1 if event.parent_id not in ids else 2
        lines.append(_format_event(event, depth))
    # One-line verdict so the answer does not have to be read out of the
    # tree: the final accept/reject for the pair.
    verdict = None
    for event in path:
        if event.name in _VERDICT_EVENTS:
            verdict = event
    if verdict is None:
        lines.append("  => never reached a trial verdict")
    elif verdict.name == "accept":
        lines.append(
            f"  => merged (kind={verdict.attrs.get('kind')}, "
            f"removed {verdict.attrs.get('removed')})"
        )
    else:
        reason = verdict.attrs.get("reason")
        detail = ""
        if reason == "constraint":
            detail = ": " + "; ".join(verdict.attrs.get("violations", ()))
        lines.append(f"  => rejected ({reason}{detail})")
    return "\n".join(lines)


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
    side of a drift report's before/after.  ``as_json`` renders the run
    (and the ``--why`` explanation) as a JSON document instead of the
    tree, with the decision stream in flight-recorder record form.
    """
    trace, report, module = record_formation_trace(workload, jsonl=jsonl)
    if as_json:
        import json as _json

        from repro.obs.replay import log_from_trace

        data: dict = {
            "workload": workload,
            "events": len(trace),
            "event_counts": trace.event_counts(),
            "formation": {
                name: {"status": str(status), "mtup": list(mtup)}
                for name, (status, mtup) in report.summary().items()
            },
            "decisions": log_from_trace(trace),
        }
        if chrome:
            write_chrome_trace(
                trace.events, chrome, meta={"workload": workload}
            )
        if why:
            try:
                hb, target = (part.strip() for part in why.split(",", 1))
            except ValueError:
                raise SystemExit(
                    f"--why wants 'HB,TARGET' (e.g. --why b0,b3), "
                    f"got {why!r}"
                )
            data["why"] = explain_decision_data(trace, hb, target)
        return _json.dumps(data, indent=2, sort_keys=True)
    lines = [
        f"trace: {workload}: {len(trace)} events",
        "  " + ", ".join(
            f"{name}={count}" for name, count in trace.event_counts().items()
        ),
        "  formation: " + ", ".join(
            f"{name}={status}:{mtup}"
            for name, (status, mtup) in report.summary().items()
        ),
    ]
    if chrome:
        write_chrome_trace(trace.events, chrome, meta={"workload": workload})
        lines.append(f"  chrome trace written to {chrome}")
    if jsonl:
        lines.append(f"  jsonl written to {jsonl}")
    if dot:
        from repro.ir.dot import function_to_dot, merge_provenance

        for func in module:
            path = f"{dot}{func.name}.dot"
            provenance = merge_provenance(trace, function=func.name)
            with open(path, "w") as handle:
                handle.write(
                    function_to_dot(func, provenance=provenance) + "\n"
                )
            lines.append(f"  dot written to {path}")
    if why:
        try:
            hb, target = (part.strip() for part in why.split(",", 1))
        except ValueError:
            raise SystemExit(
                f"--why wants 'HB,TARGET' (e.g. --why b0,b3), got {why!r}"
            )
        lines.append("")
        lines.append(_explain_decision(trace, hb, target))
    else:
        lines.append("")
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
    """Machine-readable ``stats``: the same aggregates the table renders."""
    trace, report, _ = record_formation_trace(workload)
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
        "formation": {
            name: {"status": str(status), "mtup": list(mtup)}
            for name, (status, mtup) in report.summary().items()
        },
    }


def run_stats(workload: str, top: int = 10, as_json: bool = False) -> str:
    """The ``stats`` verb: aggregate one traced formation run."""
    if as_json:
        import json as _json

        return _json.dumps(stats_data(workload, top=top), indent=2,
                           sort_keys=True)
    trace, _, _ = record_formation_trace(workload)
    lines = [f"stats: {workload}: {len(trace)} events"]

    lines.append(f"  top {top} slowest trials:")
    for event in slowest_trials(trace, top):
        attrs = event.attrs
        verdict = "committed" if attrs.get("committed") else "rejected"
        lines.append(
            f"    {attrs.get('function')}: {attrs.get('hb')} <- "
            f"{attrs.get('target')}  {event.dur * 1e3:.3f}ms  {verdict}"
        )

    breakdown = rejection_breakdown(trace)
    lines.append("  rejections:")
    if breakdown:
        for reason in sorted(breakdown):
            lines.append(f"    {reason:<28} {breakdown[reason]}")
    else:
        lines.append("    <none>")

    table = phase_table(trace)
    grand_total = sum(sum(row.values()) for row in table.values())
    lines.append("  phase table (self time):")
    header = f"    {'function':<16}" + "".join(
        f"{phase:>12}" for phase in _PHASE_ORDER
    ) + f"{'total':>12}{'share':>8}"
    lines.append(header)
    for func in sorted(table):
        row = table[func]
        total = sum(row.values())
        cells = "".join(
            f"{row.get(phase, 0.0) * 1e3:>10.2f}ms" for phase in _PHASE_ORDER
        )
        share = total / grand_total if grand_total else 0.0
        lines.append(f"    {func:<16}{cells}{total * 1e3:>10.2f}ms{share:>8.1%}")

    return "\n".join(lines)


_PHASE_ORDER = ("optimize", "estimate", "commit", "liveness", "oracle")
