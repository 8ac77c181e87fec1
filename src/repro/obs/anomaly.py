"""Trajectory anomaly detection over the bench history (``--gate-trend``).

The regression gate so far is *pairwise*: this run against one committed
baseline.  That misses slow drifts (five consecutive +3% runs) and
flags nothing when the baseline itself was an outlier.  This module
gates the *trajectory* instead: every timing series accumulated in
``BENCH_formation.json``'s ``history`` list is scored with a **robust
z-score** — median and MAD (median absolute deviation) instead of mean
and standard deviation, because bench history is exactly the kind of
small, outlier-contaminated sample where one bad run would poison a
mean-based detector's own reference:

    z = 0.6745 * (x - median) / MAD

(0.6745 scales MAD to the standard deviation of a normal distribution,
so the conventional |z| > 3.5 outlier threshold applies.)  When MAD is
zero — common for short, quantized histories — the detector falls back
to the scaled mean absolute deviation, and declares a point anomalous
only if it differs at all when both spreads are zero.

Series are extracted per (tier, backend): the headline suite time, each
scaling tier's ``sequential_fast_s``, and each backend's per-phase self
times (``phase_self_s``).  Mixed histories are grouped by quick-mode and
workload count so a full-suite run is never scored against quick-subset
points.

Only the **latest** point gates (CI asks "is this run an outlier",
not "was some past run weird"), and only in the slow direction by
default — a run suddenly twice as fast is suspicious too, but failing
CI for being fast would teach people to delete history.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

#: Conventional robust-z outlier threshold (Iglewicz & Hoaglin).
DEFAULT_THRESHOLD = 3.5

#: Series with fewer points than this are not scored: a median over two
#: points calls everything normal and a third point an outlier.
MIN_POINTS = 5

#: MAD-to-sigma consistency constant for the normal distribution.
MAD_SCALE = 0.6745


def robust_zscore(value: float, history: Sequence[float]) -> float:
    """Robust z of ``value`` against ``history`` (which excludes it).

    Positive means slower-than-typical for timing series.  Returns 0.0
    when the history carries no spread and the value matches it.
    """
    if not history:
        return 0.0
    med = statistics.median(history)
    mad = statistics.median(abs(x - med) for x in history)
    if mad > 0:
        return MAD_SCALE * (value - med) / mad
    # Degenerate spread: scaled mean absolute deviation, then exact-match.
    mean_ad = sum(abs(x - med) for x in history) / len(history)
    if mean_ad > 0:
        return (value - med) / (1.2533 * mean_ad)
    return 0.0 if value == med else float("inf") * (1 if value > med else -1)


@dataclass
class SeriesVerdict:
    """One series' scoring of its latest point."""

    series: str
    value: float
    median: float
    zscore: float
    points: int
    anomalous: bool

    def describe(self) -> str:
        status = "ANOMALY" if self.anomalous else "ok"
        return (
            f"{status:>7}  z={self.zscore:+6.2f}  latest={self.value:.4f}s "
            f"median={self.median:.4f}s n={self.points}  {self.series}"
        )


def _series_key(entry: dict) -> str:
    """Comparability group: quick-mode and workload count."""
    mode = "quick" if entry.get("quick") else "full"
    return f"{mode}/{entry.get('workload_count', 0)}wl"


def extract_series(history: Sequence[dict]) -> dict[str, list[float]]:
    """``{series name: ordered values}`` from bench history entries.

    Series names encode the comparability group, tier and backend —
    e.g. ``quick/5wl suite sequential_fast_s``, ``full/19wl tier=50x
    sequential_fast_s``, ``quick/5wl backend=legacy phase=commit``.
    Entries missing a field simply do not contribute to that series.
    """
    series: dict[str, list[float]] = {}

    def push(name: str, value) -> None:
        if isinstance(value, (int, float)) and value >= 0:
            series.setdefault(name, []).append(float(value))

    for entry in history:
        if not isinstance(entry, dict):
            continue
        group = _series_key(entry)
        push(f"{group} suite sequential_fast_s",
             entry.get("sequential_fast_s"))
        push(f"{group} suite sequential_legacy_s",
             entry.get("sequential_legacy_s"))
        push(f"{group} suite guarded_s", entry.get("guarded_s"))
        for row in entry.get("scaling", ()):
            if isinstance(row, dict) and "tier" in row:
                push(
                    f"{group} tier={row['tier']} sequential_fast_s",
                    row.get("sequential_fast_s"),
                )
        phase_self = entry.get("phase_self_s")
        if isinstance(phase_self, dict):
            for backend, phases in sorted(phase_self.items()):
                if not isinstance(phases, dict):
                    continue
                for phase, dur in sorted(phases.items()):
                    push(f"{group} backend={backend} phase={phase}", dur)
    return series


def score_latest(
    series: dict[str, list[float]],
    threshold: float = DEFAULT_THRESHOLD,
    min_points: int = MIN_POINTS,
    both_directions: bool = False,
) -> list[SeriesVerdict]:
    """Score each series' newest point against its own past.

    ``both_directions=True`` also flags too-fast outliers (useful
    interactively; the CI gate only fails slow ones).
    """
    verdicts: list[SeriesVerdict] = []
    for name in sorted(series):
        values = series[name]
        if len(values) < min_points:
            continue
        latest, past = values[-1], values[:-1]
        z = robust_zscore(latest, past)
        anomalous = z > threshold or (both_directions and z < -threshold)
        verdicts.append(
            SeriesVerdict(
                series=name,
                value=latest,
                median=statistics.median(past),
                zscore=z,
                points=len(values),
                anomalous=anomalous,
            )
        )
    return verdicts


def gate_trend(
    bench_json_path: str,
    threshold: float = DEFAULT_THRESHOLD,
    min_points: int = MIN_POINTS,
) -> tuple[bool, str]:
    """The ``bench --gate-trend`` entry point: ``(ok, report text)``.

    Reads the bench JSON (including the run just appended to its
    history), scores every series' latest point, and fails only on
    slow-direction outliers.  A history too short to score passes with
    a note — an empty gate must not block the first weeks of a repo's
    life.
    """
    try:
        with open(bench_json_path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        return False, f"trend gate: cannot read {bench_json_path!r}: {exc}"
    history = doc.get("history")
    if not isinstance(history, list) or not history:
        return True, (
            f"trend gate: no history in {bench_json_path!r} yet — "
            "nothing to score (pass)"
        )
    verdicts = score_latest(
        extract_series(history),
        threshold=threshold,
        min_points=min_points,
    )
    if not verdicts:
        return True, (
            f"trend gate: history has {len(history)} run(s) but no series "
            f"with >= {min_points} comparable points — nothing to score "
            "(pass)"
        )
    anomalies = [v for v in verdicts if v.anomalous]
    lines = [
        f"trend gate over {bench_json_path} "
        f"({len(history)} runs, {len(verdicts)} series scored, "
        f"|z| threshold {threshold}):"
    ]
    for verdict in verdicts:
        lines.append("  " + verdict.describe())
    lines.append(
        "trend gate: FAIL — latest run is a trajectory outlier on "
        f"{len(anomalies)} series"
        if anomalies
        else "trend gate: PASS"
    )
    return not anomalies, "\n".join(lines)


def summarize_series(
    series: dict[str, list[float]], name: str
) -> Optional[dict]:
    """Median/MAD/latest summary of one series (for reports and tests)."""
    values = series.get(name)
    if not values:
        return None
    med = statistics.median(values)
    mad = statistics.median(abs(x - med) for x in values)
    return {
        "name": name,
        "points": len(values),
        "median": med,
        "mad": mad,
        "latest": values[-1],
    }
