"""Decision-drift diffing between two run records.

Given two records from :mod:`repro.obs.ledger`, :func:`diff_runs`
produces a structured diff answering the regression-gate questions:

- **decision drift** — per function, did any ``(hyperblock, target)``
  offer flip between accept and reject, and which ``CONSTRAINT_*``
  attribution or rejection reason changed?  Functions present in only
  one record are drift too (a workload gained/lost functions).
- **merge-count deltas** — per function and total m/t/u/p movement.
- **phase-time deltas** — per formation phase, with a relative noise
  threshold; time regressions only *gate* when both records carry the
  same machine fingerprint (cross-machine wall times are reported but
  never failed on — "same code, different machine" is not a regression).

:func:`format_diff` renders the diff as text, :func:`html_report` as a
static self-contained HTML page (drift table and phase-share bars).
Nothing here imports outside ``repro.obs``, keeping the package
dependency-free.
"""

from __future__ import annotations

import html as _html
from typing import Sequence

from repro.obs.ledger import LedgerError, RECORD_SCHEMA_VERSION

#: Phase-time changes below this relative delta are noise, not signal.
DEFAULT_TIME_THRESHOLD = 0.15


# ---------------------------------------------------------------------------
# Decision alignment
# ---------------------------------------------------------------------------


def _decision_summary(decision: dict) -> str:
    """One-token rendering of a decision used for flip comparison."""
    if decision.get("verdict") == "accept":
        return f"accept[{decision.get('kind')}]"
    reason = decision.get("reason")
    text = f"reject[{reason}]"
    constraints = decision.get("constraints")
    if constraints:
        text += ":" + "+".join(constraints)
    return text


def _by_pair(decisions: Sequence[dict]) -> dict[tuple, list[str]]:
    """Group a decision list by (hb, target), preserving per-pair order."""
    out: dict[tuple, list[str]] = {}
    for decision in decisions:
        key = (decision.get("hb"), decision.get("target"))
        out.setdefault(key, []).append(_decision_summary(decision))
    return out


def _verdicts_only(summaries: list[str]) -> list[str]:
    return [s.split("[", 1)[0] for s in summaries]


def _pair_flips(
    decisions_a: Sequence[dict], decisions_b: Sequence[dict]
) -> list[dict]:
    """Offers whose decision sequence differs between the two records.

    A flip is classified ``"verdict"`` when the accept/reject sequence
    itself changed (the paper-level drift) and ``"attribution"`` when the
    verdicts agree but the rejection reason or fired constraints moved
    (e.g. a trial that used to violate ``register_writes`` now violates
    ``instructions`` — the outcome held, the cause did not).
    """
    pairs_a = _by_pair(decisions_a)
    pairs_b = _by_pair(decisions_b)
    flips = []
    for pair in sorted(
        set(pairs_a) | set(pairs_b), key=lambda p: (str(p[0]), str(p[1]))
    ):
        seq_a = pairs_a.get(pair, [])
        seq_b = pairs_b.get(pair, [])
        if seq_a == seq_b:
            continue
        flips.append(
            {
                "hb": pair[0],
                "target": pair[1],
                "a": seq_a,
                "b": seq_b,
                "change": (
                    "verdict"
                    if _verdicts_only(seq_a) != _verdicts_only(seq_b)
                    else "attribution"
                ),
            }
        )
    return flips


# ---------------------------------------------------------------------------
# Record diffing
# ---------------------------------------------------------------------------


def _run_summary(record: dict) -> dict:
    return {
        "kind": record.get("kind"),
        "label": record.get("label"),
        "timestamp": record.get("timestamp"),
        "commit": record.get("commit", {}).get("rev"),
        "workloads": len(record.get("workloads", ())),
        "merges": record.get("merges"),
        "machine": record.get("machine", {}).get("platform"),
    }


def diff_runs(
    record_a: dict,
    record_b: dict,
    time_threshold: float = DEFAULT_TIME_THRESHOLD,
) -> dict:
    """Structured diff of two run records (A = baseline, B = candidate)."""
    for side, record in (("a", record_a), ("b", record_b)):
        version = record.get("schema_version")
        if version != RECORD_SCHEMA_VERSION:
            raise LedgerError(
                f"run {side}: schema_version {version!r} is not "
                f"comparable (supported: {RECORD_SCHEMA_VERSION})"
            )

    funcs_a = record_a.get("functions", {})
    funcs_b = record_b.get("functions", {})
    functions: dict[str, dict] = {}
    drifted: list[str] = []
    for name in sorted(set(funcs_a) | set(funcs_b)):
        entry_a = funcs_a.get(name)
        entry_b = funcs_b.get(name)
        if entry_a is None or entry_b is None:
            status = "only_b" if entry_a is None else "only_a"
            present = entry_b if entry_a is None else entry_a
            functions[name] = {
                "status": status,
                "merges_a": entry_a["merges"] if entry_a else None,
                "merges_b": entry_b["merges"] if entry_b else None,
                "flips": [],
                "fingerprint_a": entry_a["fingerprint"] if entry_a else None,
                "fingerprint_b": entry_b["fingerprint"] if entry_b else None,
                "decisions": len(present["decisions"]),
            }
            drifted.append(name)
            continue
        row = {
            "status": "same",
            "merges_a": entry_a["merges"],
            "merges_b": entry_b["merges"],
            "flips": [],
            "fingerprint_a": entry_a["fingerprint"],
            "fingerprint_b": entry_b["fingerprint"],
        }
        if entry_a["fingerprint"] != entry_b["fingerprint"]:
            row["status"] = "drifted"
            row["flips"] = _pair_flips(
                entry_a["decisions"], entry_b["decisions"]
            )
            drifted.append(name)
        functions[name] = row

    phases_a = record_a.get("phase_time_s", {})
    phases_b = record_b.get("phase_time_s", {})
    same_machine = record_a.get("machine") == record_b.get("machine")
    phase_deltas: dict[str, dict] = {}
    regressions: list[str] = []
    for phase in sorted(set(phases_a) | set(phases_b)):
        a_val = float(phases_a.get(phase, 0.0))
        b_val = float(phases_b.get(phase, 0.0))
        ratio = (b_val / a_val) if a_val > 0 else None
        regressed = bool(
            same_machine
            and ratio is not None
            and ratio > 1.0 + time_threshold
        )
        phase_deltas[phase] = {
            "a_s": round(a_val, 6),
            "b_s": round(b_val, 6),
            "delta_s": round(b_val - a_val, 6),
            "ratio": round(ratio, 3) if ratio is not None else None,
            "regressed": regressed,
        }
        if regressed:
            regressions.append(phase)

    mtup_a = record_a.get("mtup", [0, 0, 0, 0])
    mtup_b = record_b.get("mtup", [0, 0, 0, 0])
    return {
        "run_a": _run_summary(record_a),
        "run_b": _run_summary(record_b),
        "same_machine": same_machine,
        "time_threshold": time_threshold,
        "functions": functions,
        "drifted": drifted,
        "merge_delta": {
            "a": record_a.get("merges", 0),
            "b": record_b.get("merges", 0),
            "delta": record_b.get("merges", 0) - record_a.get("merges", 0),
            "mtup_a": list(mtup_a),
            "mtup_b": list(mtup_b),
        },
        "phase_deltas": phase_deltas,
        "time_regressions": regressions,
        "has_drift": bool(drifted),
        "has_time_regression": bool(regressions),
    }


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def format_diff(diff: dict) -> str:
    lines = ["run comparison (A = baseline, B = candidate)"]
    for side in ("run_a", "run_b"):
        summary = diff[side]
        commit = (summary.get("commit") or "?")[:10]
        lines.append(
            f"  {side[-1].upper()}: {summary.get('kind')} "
            f"@{commit} {summary.get('timestamp')} "
            f"({summary.get('workloads')} workloads, "
            f"{summary.get('merges')} merges)"
        )
    if not diff["same_machine"]:
        lines.append(
            "  machines differ: phase times are informational only "
            "(decision drift still gates)"
        )

    merge = diff["merge_delta"]
    lines.append(
        f"  merges: {merge['a']} -> {merge['b']} "
        f"({merge['delta']:+d}); m/t/u/p "
        f"{'/'.join(str(n) for n in merge['mtup_a'])} -> "
        f"{'/'.join(str(n) for n in merge['mtup_b'])}"
    )

    drifted = diff["drifted"]
    if drifted:
        lines.append(f"  decision drift in {len(drifted)} function(s):")
        for name in drifted:
            row = diff["functions"][name]
            if row["status"] in ("only_a", "only_b"):
                side = "baseline" if row["status"] == "only_a" else "candidate"
                lines.append(f"    {name}: present only in the {side} run")
                continue
            lines.append(
                f"    {name}: merges {row['merges_a']} -> {row['merges_b']}, "
                f"{len(row['flips'])} flipped offer(s)"
            )
            for flip in row["flips"]:
                lines.append(
                    f"      {flip['hb']} <- {flip['target']} "
                    f"[{flip['change']}]: "
                    f"{' '.join(flip['a']) or '<absent>'}  ==>  "
                    f"{' '.join(flip['b']) or '<absent>'}"
                )
    else:
        lines.append("  decision drift: none (all fingerprints identical)")

    lines.append(
        f"  phase times (noise threshold {diff['time_threshold']:.0%}"
        + (", same machine" if diff["same_machine"] else "")
        + "):"
    )
    for phase, delta in diff["phase_deltas"].items():
        ratio = f"{delta['ratio']:.2f}x" if delta["ratio"] is not None else "n/a"
        marker = "  << REGRESSION" if delta["regressed"] else ""
        lines.append(
            f"    {phase:<10} {delta['a_s'] * 1e3:>9.2f}ms -> "
            f"{delta['b_s'] * 1e3:>9.2f}ms  ({ratio}){marker}"
        )

    verdict = []
    if diff["has_drift"]:
        verdict.append(f"DRIFT in {len(drifted)} function(s)")
    if diff["has_time_regression"]:
        verdict.append(
            "TIME REGRESSION in " + ", ".join(diff["time_regressions"])
        )
    lines.append("  verdict: " + ("; ".join(verdict) if verdict else "clean"))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# HTML rendering
# ---------------------------------------------------------------------------

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 64em; color: #1a1a2e; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; width: 100%; font-size: 0.9em; }
th, td { border: 1px solid #d8d8e0; padding: 0.35em 0.6em; text-align: left; }
th { background: #f2f2f7; }
code { background: #f2f2f7; padding: 0 0.25em; border-radius: 3px; }
.ok { color: #1d7a3a; font-weight: 600; }
.bad { color: #b3261e; font-weight: 600; }
.muted { color: #6b6b7b; }
.bar { display: inline-block; height: 0.8em; border-radius: 2px;
       vertical-align: middle; }
.bar.a { background: #7a8fd4; } .bar.b { background: #d48f7a; }
"""


def _esc(value) -> str:
    return _html.escape(str(value))


def _phase_bars(diff: dict) -> list[str]:
    deltas = diff["phase_deltas"]
    peak = max(
        (max(d["a_s"], d["b_s"]) for d in deltas.values()), default=0.0
    )
    rows = []
    for phase, delta in deltas.items():
        cells = []
        for side in ("a", "b"):
            width = (
                delta[f"{side}_s"] / peak * 240 if peak else 0.0
            )
            cells.append(
                f'<td><span class="bar {side}" '
                f'style="width:{width:.1f}px"></span> '
                f"{delta[f'{side}_s'] * 1e3:.2f}ms</td>"
            )
        ratio = (
            f"{delta['ratio']:.2f}x" if delta["ratio"] is not None else "n/a"
        )
        marker = (
            '<span class="bad">regression</span>'
            if delta["regressed"]
            else '<span class="muted">ok</span>'
        )
        rows.append(
            f"<tr><td>{_esc(phase)}</td>{cells[0]}{cells[1]}"
            f"<td>{ratio}</td><td>{marker}</td></tr>"
        )
    return rows


def html_report(
    diff: dict,
    title: str = "Formation run comparison",
) -> str:
    """Render a self-contained static HTML drift report."""
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
    ]
    verdict_bits = []
    if diff["has_drift"]:
        verdict_bits.append(
            f"<span class='bad'>decision drift in "
            f"{len(diff['drifted'])} function(s)</span>"
        )
    if diff["has_time_regression"]:
        verdict_bits.append(
            "<span class='bad'>phase-time regression: "
            + _esc(", ".join(diff["time_regressions"]))
            + "</span>"
        )
    if not verdict_bits:
        verdict_bits.append("<span class='ok'>clean: no drift, no regression</span>")
    parts.append("<p>" + " · ".join(verdict_bits) + "</p>")

    parts.append("<h2>Runs</h2><table><tr><th></th><th>kind</th>"
                 "<th>commit</th><th>timestamp</th><th>workloads</th>"
                 "<th>merges</th><th>machine</th></tr>")
    for label, side in (("A (baseline)", "run_a"), ("B (candidate)", "run_b")):
        summary = diff[side]
        parts.append(
            f"<tr><td>{label}</td><td>{_esc(summary.get('kind'))}</td>"
            f"<td><code>{_esc((summary.get('commit') or '?')[:10])}</code></td>"
            f"<td>{_esc(summary.get('timestamp'))}</td>"
            f"<td>{_esc(summary.get('workloads'))}</td>"
            f"<td>{_esc(summary.get('merges'))}</td>"
            f"<td class='muted'>{_esc(summary.get('machine'))}</td></tr>"
        )
    parts.append("</table>")
    if not diff["same_machine"]:
        parts.append(
            "<p class='muted'>Machines differ: phase times below are "
            "informational only; only decision drift gates.</p>"
        )

    parts.append("<h2>Decision drift</h2>")
    if diff["drifted"]:
        parts.append(
            "<table><tr><th>function</th><th>offer</th><th>change</th>"
            "<th>baseline</th><th>candidate</th></tr>"
        )
        for name in diff["drifted"]:
            row = diff["functions"][name]
            if row["status"] in ("only_a", "only_b"):
                side = "baseline" if row["status"] == "only_a" else "candidate"
                parts.append(
                    f"<tr><td>{_esc(name)}</td><td colspan='4' class='bad'>"
                    f"present only in the {side} run</td></tr>"
                )
                continue
            for flip in row["flips"]:
                parts.append(
                    f"<tr><td>{_esc(name)}</td>"
                    f"<td><code>{_esc(flip['hb'])} &larr; "
                    f"{_esc(flip['target'])}</code></td>"
                    f"<td>{_esc(flip['change'])}</td>"
                    f"<td>{_esc(' '.join(flip['a']) or '<absent>')}</td>"
                    f"<td>{_esc(' '.join(flip['b']) or '<absent>')}</td></tr>"
                )
        parts.append("</table>")
        parts.append(
            "<p class='muted'>Visualize a drifted function with "
            "<code>python -m repro.harness trace &lt;workload&gt; "
            "--dot before_</code> on each side: the DOT export tints "
            "hyperblock composition by originating basic block.</p>"
        )
    else:
        parts.append("<p class='ok'>No decision drift: every per-function "
                     "fingerprint is identical.</p>")

    parts.append(
        "<h2>Merge counts</h2><p>"
        f"{diff['merge_delta']['a']} &rarr; {diff['merge_delta']['b']} "
        f"({diff['merge_delta']['delta']:+d}); m/t/u/p "
        f"{'/'.join(str(n) for n in diff['merge_delta']['mtup_a'])} &rarr; "
        f"{'/'.join(str(n) for n in diff['merge_delta']['mtup_b'])}</p>"
    )

    parts.append(
        "<h2>Phase times</h2><table><tr><th>phase</th><th>A</th><th>B</th>"
        "<th>ratio</th><th>gate</th></tr>"
    )
    parts.extend(_phase_bars(diff))
    parts.append("</table>")

    parts.append(
        "<p class='muted'>Generated by <code>python -m repro.harness "
        "compare</code>. Acknowledge intentional drift by refreshing the "
        "baseline record (see docs/OBSERVABILITY.md).</p></body></html>"
    )
    return "\n".join(parts)


def write_html_report(
    diff: dict,
    path: str,
    title: str = "Formation run comparison",
) -> None:
    with open(path, "w") as handle:
        handle.write(html_report(diff, title=title))
        handle.write("\n")

