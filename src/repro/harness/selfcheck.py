"""Suite-level self-check and fault-drill drivers.

Two CI-facing entry points over the robustness layer:

- :func:`run_selfcheck` forms every SPEC workload with the differential
  oracle armed (``selfcheck="function"``) and re-checks the final formed
  module against the pre-formation module on the workload's own inputs;
  both must agree for the run to pass.
- :func:`run_fault_drill` is the containment proof behind ``selfcheck
  --faults``: form the suite once clean and once under a seeded
  :class:`FaultPlane`, then check that the plane fired at all, that the
  faulted run never escaped a fault (every plane-touched function is
  ``degraded``/``failed_safe``), that every *untouched* function made
  byte-identical merge decisions (equal decision-log fingerprints), and
  that the oracle passes on everything the faulted run formed.
"""

from __future__ import annotations

from typing import Optional

from repro.core.convergent import form_module
from repro.obs.replay import log_from_trace
from repro.obs.trace import FormationTrace, Tracer
from repro.robustness.faultinject import TRIAL_KINDS, FaultPlane
from repro.robustness.guard import FunctionStatus
from repro.robustness.oracle import BehaviorProbe, differential_check
from repro.workloads.spec import prepare_workloads


def _workload_probes(workload) -> list[BehaviorProbe]:
    """The workload's own inputs, plus a cold all-zeros probe."""
    module = workload.module()
    nparams = len(module.function("main").params)
    return [
        BehaviorProbe(args=workload.args, preload=dict(workload.preload)),
        BehaviorProbe(args=(0,) * nparams),
    ]


def run_selfcheck(subset: Optional[list[str]] = None) -> dict:
    """Oracle self-check over the SPEC suite (the ``--selfcheck`` gate).

    Per workload: form with ``selfcheck="function"`` armed, then run one
    final differential check of the formed module against a fresh
    pre-formation module over the workload's inputs.  Returns a dict
    with ``ok``, per-workload rows, and a formatted ``report``.
    """
    rows = []
    for name, workload, profile in prepare_workloads(subset):
        probes = _workload_probes(workload)
        module = workload.module()
        # Each workload forms under its own tracer, so a failure can be
        # explained from the decision record: the probe that caught the
        # divergence and the last merge accepted before it.
        tracer = Tracer()
        report = form_module(
            module,
            profile=profile,
            selfcheck="function",
            oracle_probes=probes,
            tracer=tracer,
        )
        final = differential_check(
            workload.module(), module, probes=probes, tracer=tracer
        )
        trace = tracer.finish()
        detail = ""
        if not final.ok:
            detail = final.describe() + "\n    " + _failure_context(trace)
        rows.append(
            {
                "workload": name,
                "ok": len(report.ok_functions),
                "degraded": len(report.degraded_functions),
                "failed_safe": len(report.failed_safe_functions),
                "divergences": len(final.divergences),
                "detail": detail,
            }
        )

    ok = all(row["divergences"] == 0 for row in rows)
    return {"ok": ok, "rows": rows, "report": _format_selfcheck(rows, ok)}


def _failure_context(trace: FormationTrace) -> str:
    """Point a selfcheck failure at its trace evidence: the probe whose
    verdict flagged the divergence and the last accepted merge span."""
    parts = []
    failed = [
        e for e in trace.named("oracle_probe") if not e.attrs.get("ok")
    ]
    if failed:
        last = failed[-1]
        diverged = ", ".join(last.attrs.get("diverged", ())) or "?"
        parts.append(
            f"offending probe: {last.attrs.get('probe')} "
            f"(diverged: {diverged})"
        )
    accept = trace.last_accept()
    if accept is not None:
        attrs = accept.attrs
        parts.append(
            f"last accepted merge: @{attrs.get('function')} "
            f"{attrs.get('hb')} <- {attrs.get('target')} "
            f"({attrs.get('kind')})"
        )
    return "; ".join(parts) if parts else "no trace events recorded"


def _format_selfcheck(rows: list[dict], ok: bool) -> str:
    lines = ["selfcheck: differential-simulation oracle over the SPEC suite"]
    lines.append(f"{'workload':<12} {'ok':>3} {'degr':>4} {'safe':>4} {'div':>4}")
    for row in rows:
        lines.append(
            f"{row['workload']:<12} {row['ok']:>3} {row['degraded']:>4} "
            f"{row['failed_safe']:>4} {row['divergences']:>4}"
        )
        if row["detail"]:
            lines.append(f"    {row['detail']}")
    lines.append("selfcheck: PASS" if ok else "selfcheck: FAIL")
    return "\n".join(lines)


def run_fault_drill(
    subset: Optional[list[str]] = None,
    rate: float = 0.1,
    seed: int = 0,
    kinds: tuple = TRIAL_KINDS,
) -> dict:
    """Fault-containment drill over the SPEC suite (``selfcheck --faults``).

    Returns a dict with ``ok`` plus per-workload rows recording: faults
    fired, functions degraded/failed-safe, which *un*-faulted functions
    changed their status or their decision log (any offer, verdict,
    ``CONSTRAINT_*`` attribution or estimate) versus the clean control
    run, and whether the oracle passed on the faulted run's output.  Both
    runs form under a tracer.  A drill whose plane fired no fault over
    the whole suite proves nothing, so it fails too.
    """
    rows = []
    for name, workload, profile in prepare_workloads(subset):
        control = workload.module()
        tracer = Tracer()
        control_report = form_module(control, profile=profile, tracer=tracer)
        control_logs = log_from_trace(tracer.collected_events())

        faulted = workload.module()
        plane = FaultPlane(rate=rate, seed=seed, kinds=kinds)
        tracer = Tracer()
        # selfcheck guards the corrupting kinds: a silently wrong
        # hyperblock must be caught and rolled back, not shipped.
        faulted_report = form_module(
            faulted,
            profile=profile,
            selfcheck="function",
            oracle_probes=_workload_probes(workload),
            tracer=tracer,
            faults=plane,
        )
        faulted_logs = log_from_trace(tracer.collected_events())

        touched = {fault.function for fault in plane.fired}
        escaped = [
            fname
            for fname in touched
            if faulted_report.status_of(fname) is FunctionStatus.OK
        ]
        clean_mismatch = [
            func.name
            for func in control
            if func.name not in touched
            and _outcome(control_report, control_logs, func.name)
            != _outcome(faulted_report, faulted_logs, func.name)
        ]
        oracle = differential_check(
            workload.module(), faulted, probes=_workload_probes(workload)
        )
        rows.append(
            {
                "workload": name,
                "fired": len(plane.fired),
                "touched": sorted(touched),
                "degraded": len(faulted_report.degraded_functions),
                "failed_safe": len(faulted_report.failed_safe_functions),
                "escaped": escaped,
                "clean_mismatch": clean_mismatch,
                "oracle_ok": oracle.ok,
            }
        )
    fired = any(row["fired"] for row in rows)
    ok = fired and all(
        not row["escaped"] and not row["clean_mismatch"] and row["oracle_ok"]
        for row in rows
    )
    return {
        "ok": ok,
        "rate": rate,
        "seed": seed,
        "rows": rows,
        "report": _format_drill(rows, rate, seed, fired, ok),
    }


def _outcome(report, logs: dict, fname: str) -> tuple:
    """A function's status and decision-log fingerprint (``None`` when
    it made no decision)."""
    bucket = logs.get(fname)
    fingerprint = bucket["fingerprint"] if bucket is not None else None
    return report.status_of(fname), fingerprint


def _format_drill(
    rows: list[dict], rate: float, seed: int, fired: bool, ok: bool
) -> str:
    lines = [f"fault drill: rate={rate} seed={seed}"]
    lines.append(
        f"{'workload':<12} {'fired':>5} {'degr':>4} {'safe':>4} "
        f"{'escaped':>7} {'drift':>5} {'oracle':>6}"
    )
    for row in rows:
        lines.append(
            f"{row['workload']:<12} {row['fired']:>5} {row['degraded']:>4} "
            f"{row['failed_safe']:>4} {len(row['escaped']):>7} "
            f"{len(row['clean_mismatch']):>5} "
            f"{'pass' if row['oracle_ok'] else 'FAIL':>6}"
        )
        for fname in row["escaped"]:
            lines.append(f"    ESCAPED: fault touched @{fname} but status is ok")
        for fname in row["clean_mismatch"]:
            lines.append(f"    DRIFT: unfaulted @{fname} formed differently")
    if not fired:
        lines.append(
            "  no fault fired over the suite: this drill exercised nothing "
            "(raise --fault-rate or pick another --fault-seed)"
        )
    lines.append("fault drill: PASS" if ok else "fault drill: FAIL")
    return "\n".join(lines)
