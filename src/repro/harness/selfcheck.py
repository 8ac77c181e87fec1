"""Suite-level self-check and fault-drill drivers.

Two CI-facing entry points over the robustness layer, each forming
through :func:`repro.harness.replaycmd.record_workload`:

- :func:`run_selfcheck` forms every SPEC workload with the differential
  oracle armed (``form_module(probes=...)``) and re-checks the final formed
  module against the pre-formation module on the workload's own inputs;
  both must agree for the run to pass.
- :func:`run_fault_drill` is the containment proof behind ``selfcheck
  --faults``: form the suite once clean and once under a seeded
  :class:`FaultPlane`, then check that the plane fired at all, that the
  faulted run never escaped a fault (every plane-touched function is
  ``degraded``/``failed_safe``), that every *untouched* function's
  decision log matches the clean run's the way ``replay`` compares logs
  (:func:`~repro.obs.replay.first_divergence` plus the embedded
  ``status``/``merges``/``mtup``/``attempts``), and that the oracle
  passes on everything the faulted run formed.
"""

from __future__ import annotations

from typing import Optional

from repro.harness.replaycmd import counter_drift, record_workload
from repro.obs.replay import first_divergence
from repro.obs.trace import FormationTrace
from repro.robustness.faultinject import TRIAL_KINDS, FaultPlane
from repro.robustness.guard import FunctionStatus
from repro.robustness.oracle import (
    BehaviorProbe,
    OracleReport,
    differential_check,
)
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
    """Oracle self-check over the SPEC suite (the ``selfcheck`` verb).

    Per workload: form with the per-function oracle armed, then run one
    final differential check of the formed module against a fresh
    pre-formation module over the workload's inputs.  Returns a dict
    with ``ok``, per-workload rows, and a formatted ``report``.
    """
    rows = []
    for name, workload, profile in prepare_workloads(subset):
        probes = _workload_probes(workload)
        module, report, trace, _ = record_workload(
            name, workload, profile, probes=probes
        )
        final = differential_check(workload.module(), module, probes=probes)
        detail = ""
        if not final.ok:
            detail = (
                final.describe() + "\n    " + _failure_context(final, trace)
            )
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


def _failure_context(final: OracleReport, trace: FormationTrace) -> str:
    """Point a selfcheck failure at its evidence: the last probe the
    final check flagged and the last merge the trace accepted."""
    probe = final.divergences[-1].probe
    diverged = ", ".join(
        d.observable for d in final.divergences if d.probe == probe
    )
    parts = [f"offending probe: {probe} (diverged: {diverged})"]
    accept = trace.last_accept()
    if accept is not None:
        attrs = accept.attrs
        parts.append(
            f"last accepted merge: @{attrs.get('function')} "
            f"{attrs.get('hb')} <- {attrs.get('target')} "
            f"({attrs.get('kind')})"
        )
    return "; ".join(parts)


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
    moved versus the clean control run (``clean_mismatch``, with
    ``drift`` holding each one's first diverging record or drifted
    counters, as ``replay`` prints them), and whether the oracle passed
    on the faulted run's output.  A drill whose plane fired no fault
    over the whole suite proves nothing, so it fails too.
    """
    rows = []
    for name, workload, profile in prepare_workloads(subset):
        control, _, _, control_logs = record_workload(name, workload, profile)
        plane = FaultPlane(rate=rate, seed=seed, kinds=kinds)
        # selfcheck guards the corrupting kinds: a silently wrong
        # hyperblock must be caught and rolled back, not shipped.
        faulted, faulted_report, _, faulted_logs = record_workload(
            name, workload, profile, faults=plane,
            probes=_workload_probes(workload),
        )

        touched = {fault.function for fault in plane.fired}
        escaped = [
            fname
            for fname in touched
            if faulted_report.status_of(fname) is FunctionStatus.OK
        ]
        prefix = f"{name}:"
        drift = _drift(
            {prefix + func.name for func in control
             if func.name not in touched},
            control_logs, faulted_logs,
        )
        clean_mismatch = [
            func.name for func in control if prefix + func.name in drift
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
                "drift": {
                    fname: drift[prefix + fname] for fname in clean_mismatch
                },
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


def _drift(keys: set, control: dict, faulted: dict) -> dict[str, str]:
    """Each log key in ``keys`` whose faulted-run log moved, with what
    ``replay`` would print for it: the first diverging record or, when
    the records match, the drifted counters."""
    control = {key: control[key] for key in keys}
    faulted = {key: faulted[key] for key in keys}
    drift = {
        divergence.function: divergence.describe("control", "faulted")
        for divergence in first_divergence(control, faulted)
    }
    counters: dict[str, list[str]] = {}
    for key, field, was, now in counter_drift(control, faulted):
        counters.setdefault(key, []).append(
            f"{key}: {field} control {was} faulted {now}"
        )
    for key, lines in counters.items():
        drift.setdefault(key, "\n".join(lines))
    return drift


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
            for line in row["drift"][fname].splitlines():
                lines.append(f"      {line}")
    if not fired:
        lines.append(
            "  no fault fired over the suite: this drill exercised nothing "
            "(raise --fault-rate or pick another --fault-seed)"
        )
    lines.append("fault drill: PASS" if ok else "fault drill: FAIL")
    return "\n".join(lines)
