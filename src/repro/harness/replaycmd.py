"""The ``replay`` CLI verb: check-mode replay and decision bisection.

Two modes over the flight-recorder logs the ledger stores next to run
records (:mod:`repro.obs.replay`):

- **check mode** — ``replay <workload> [--fn NAME] [--run REF]`` re-runs
  formation with a :class:`~repro.obs.replay.ReplayChecker` attached to
  the live tracer, validating every offer/accept/reject against the
  recorded stream and halting at the first divergence with a full
  context dump (record and offer index, both sides' estimates, the
  constraint-attribution diff, and the last accepted merge).  Exit 2 on
  divergence, so CI can gate on it;
- **bisect mode** — ``replay --bisect <runA> <runB>`` loads two logs
  (ledger run references, decision-log digests, or JSON file paths) and
  reports the first diverging decision per function — turning
  "fingerprints differ" into "offer #47 on pair (bb3,bb7): A accepted,
  B rejected CONSTRAINT_INSTRUCTIONS".  Exit 2 when any divergence is
  found, 0 when the runs are decision-identical.

Replay re-forms with the exact configuration ``record`` used (driver
defaults), so a clean check also compares the live engine counters
(``merges``, ``mtup``, ``attempts``) with the ones the log embedded at
record time.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.core.convergent import form_module
from repro.obs.ledger import Ledger, LedgerError
from repro.obs.replay import (
    ReplayChecker,
    ReplayDivergence,
    ReplayError,
    first_divergence,
    validate_log_set,
)
from repro.obs.sink import MemorySink
from repro.obs.trace import Tracer
from repro.profiles import collect_profile
from repro.workloads.spec import SPEC_BENCHMARKS, SPEC_ORDER


def resolve_log_functions(ref: str, ledger: Ledger) -> tuple[dict, str]:
    """Resolve a reference to a decision log; returns ``(functions, label)``.

    Accepts, in order of preference:

    - a JSON file path — either a decision-log set or a run record whose
      ``decision_log`` digest resolves in the ledger;
    - ``latest`` or a run-hash prefix — the referenced record's log;
    - a decision-log digest prefix (when no run matches).
    """
    if os.path.exists(ref):
        try:
            with open(ref) as handle:
                doc = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read {ref!r}: {exc}")
        if isinstance(doc, dict) and doc.get("kind") == "decision_log":
            try:
                validate_log_set(doc)
            except ReplayError as exc:
                raise SystemExit(f"invalid decision log {ref!r}: {exc}")
            return doc["functions"], ref
        digest = doc.get("decision_log") if isinstance(doc, dict) else None
        if not digest:
            raise SystemExit(
                f"{ref!r} is neither a decision log nor a run record "
                "with a 'decision_log' digest (re-record with this "
                "version to capture one)"
            )
        try:
            return ledger.load_decisions(digest)["functions"], ref
        except (LedgerError, ReplayError) as exc:
            raise SystemExit(str(exc))
    # Ledger references: run first (the common case), then the decision
    # store directly, so raw log digests work too.
    try:
        record = ledger.load(ref)
    except LedgerError as run_error:
        try:
            log_set = ledger.load_decisions(ref)
        except (LedgerError, ReplayError):
            raise SystemExit(str(run_error))
        return log_set["functions"], f"decisions:{ref}"
    digest = record.get("decision_log")
    if not digest:
        raise SystemExit(
            f"ledger run {ref!r} predates the flight recorder (no "
            "'decision_log' field); re-record to capture one"
        )
    try:
        return ledger.load_decisions(digest)["functions"], ref
    except (LedgerError, ReplayError) as exc:
        raise SystemExit(str(exc))


# ---------------------------------------------------------------------------
# Check mode
# ---------------------------------------------------------------------------


def run_replay_check(
    workload_name: str,
    fn: Optional[str] = None,
    run: str = "latest",
    ledger_dir: Optional[str] = None,
) -> str:
    """Re-run one workload's formation against a recorded decision log.

    Raises ``SystemExit(2)`` at the first divergence, or when the
    decision stream matched but a live engine counter differs from the
    one the log embedded, with the dump on stdout.  On success returns a
    short confirmation.
    """
    if workload_name not in SPEC_BENCHMARKS:
        raise SystemExit(
            f"unknown workload {workload_name!r}; "
            f"available: {', '.join(SPEC_ORDER)}"
        )
    ledger = Ledger(ledger_dir) if ledger_dir else Ledger()
    functions, label = resolve_log_functions(run, ledger)
    prefix = f"{workload_name}:"
    in_scope = {key for key in functions if key.startswith(prefix)}
    if fn is not None:
        wanted = f"{prefix}{fn}"
        if wanted not in in_scope:
            raise SystemExit(
                f"no recorded log for {wanted!r} in {label}; recorded "
                "functions: " + (", ".join(sorted(in_scope)) or "<none>")
            )
        only = {wanted}
    else:
        if not in_scope:
            raise SystemExit(
                f"run {label} has no recorded decisions for workload "
                f"{workload_name!r} (recorded workloads: "
                + ", ".join(sorted({k.split(':', 1)[0] for k in functions}))
                + ")"
            )
        only = in_scope

    workload = SPEC_BENCHMARKS[workload_name]
    module = workload.module()
    profile = collect_profile(
        module, args=workload.args, preload=workload.preload
    )
    checker = ReplayChecker(functions, prefix=prefix, only=only)
    tracer = Tracer(sinks=(MemorySink(), checker))
    try:
        # Mirror the `record` verb's configuration: driver defaults.
        report = form_module(module, profile=profile, tracer=tracer)
    except ReplayDivergence as divergence:
        print(format_divergence_dump(divergence, label))
        raise SystemExit(2)
    try:
        checker.finalize()
    except ReplayDivergence as divergence:
        print(format_divergence_dump(divergence, label))
        raise SystemExit(2)

    mismatched = []
    for key in sorted(only):
        freport = report.functions.get(key[len(prefix):])
        if freport is None:
            continue
        live = {
            "merges": freport.stats.merges,
            "mtup": list(freport.stats.mtup),
            "attempts": freport.stats.attempts,
        }
        for field, value in live.items():
            recorded = functions[key].get(field)
            if recorded is not None and recorded != value:
                mismatched.append((key, field, recorded, value))
    if mismatched:
        lines = [
            "replay: decision stream matched but engine counters "
            "drifted (out of sync with the decision log — this is a "
            "bug, not workload drift):"
        ]
        for key, field, recorded, value in mismatched:
            lines.append(
                f"  {key}: {field} recorded {recorded} live {value}"
            )
        print("\n".join(lines))
        raise SystemExit(2)

    return (
        f"replay ok: {workload_name} matched {label} — "
        f"{checker.checked} decision(s) across {len(only)} function(s), "
        "engine counters verified"
    )


def format_divergence_dump(
    divergence: ReplayDivergence, label: str
) -> str:
    lines = [
        f"REPLAY DIVERGENCE against {label}",
        divergence.describe(),
        "",
        "The live run stops at the diverging decision; everything "
        "before it matched the recording.",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Bisect mode
# ---------------------------------------------------------------------------


def run_replay_bisect(
    ref_a: str,
    ref_b: str,
    ledger_dir: Optional[str] = None,
) -> str:
    """First-divergence bisection between two recorded runs.

    Returns the zero-divergence summary, or prints the per-function
    first divergences and raises ``SystemExit(2)``.
    """
    ledger = Ledger(ledger_dir) if ledger_dir else Ledger()
    functions_a, label_a = resolve_log_functions(ref_a, ledger)
    functions_b, label_b = resolve_log_functions(ref_b, ledger)
    divergences = first_divergence(functions_a, functions_b)
    if not divergences:
        total = sum(
            len(bucket.get("records", ())) for bucket in functions_a.values()
        )
        return (
            f"bisect: zero divergences — {len(functions_a)} function(s), "
            f"{total} decision record(s) identical between "
            f"{label_a} and {label_b}"
        )
    lines = [
        f"bisect: {len(divergences)} diverging function(s) between "
        f"A={label_a} and B={label_b}; first divergence of each:",
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
