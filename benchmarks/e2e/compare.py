"""Compare two sets of end-to-end benchmark results against the bounds.

    python3 benchmarks/e2e/compare.py A1.json A2.json A3.json --vs B1.json B2.json B3.json

Each file is a ``run.py --out`` result.  For every (workload, end-to-end
metric) pair the report gives each side's median and quartiles over its
files, the change from A to B, and a verdict against the metric's bound
in ``BENCHMARK.json``:

- ``same``: B's median is within the bound of A's;
- ``worse`` / ``better``: it is beyond the bound, in that direction;
- ``unresolved``: one side's own quartile spread exceeds the bound, and
  not every run of one side beats every run of the other.

The decision digests of both sides are compared too.  Exits 1 when any
verdict is ``worse`` or ``unresolved`` or a digest differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

BENCHMARK_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list, b: list, bound: float, lower_is_better: bool) -> tuple:
    """(verdict, relative change A -> B, signed so that positive is worse)."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1 if lower_is_better else -1
    if qa[1]:
        worse_by = sign * (qb[1] - qa[1]) / abs(qa[1])
    else:
        worse_by = 0.0 if qb[1] == qa[1] else sign * float("inf")
    spread = max(_spread(qa), _spread(qb))
    b_beats_a = all(sign * (y - x) < 0 for x in a for y in b)
    a_beats_b = all(sign * (x - y) < 0 for x in a for y in b)
    if spread > bound and not (a_beats_b or b_beats_a):
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > bound:
        return "better", worse_by
    return "same", worse_by


def _spread(q: tuple) -> float:
    return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0


def load(paths: list) -> list:
    runs = []
    for path in paths:
        with open(path) as handle:
            runs.append(json.load(handle)["workloads"])
    return runs


def compare(side_a: list, side_b: list, bench: dict) -> tuple:
    """Report lines and whether every row passed."""
    lines = [
        f"{'workload':<17} {'metric':<24} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'worse by':>9} {'bound':>6}  verdict"
    ]
    ok = True
    workloads = [w for w in side_a[0] if all(w in run for run in side_a + side_b)]
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [run[workload]["e2e"][name]["value"] for run in side_a]
            b = [run[workload]["e2e"][name]["value"] for run in side_b]
            result, worse_by = verdict(
                a, b, metric["bound"], metric["better"] == "lower"
            )
            ok &= result in ("same", "better")
            lines.append(
                f"{workload:<17} {name:<24} {_cell(a):>34} {_cell(b):>34} "
                f"{worse_by:>+9.2%} {metric['bound']:>6g}  {result}"
            )
        digests_a = {run[workload]["decision_digest"] for run in side_a}
        digests_b = {run[workload]["decision_digest"] for run in side_b}
        same = len(digests_a | digests_b) == 1
        ok &= same
        lines.append(
            f"{workload:<17} {'decision_digest':<24} "
            + ("identical" if same else
               f"DIFFERENT: A {sorted(digests_a)} B {sorted(digests_b)}")
        )
    return lines, ok


def _cell(values: list) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", nargs="+", help="result files of side A")
    parser.add_argument("--vs", nargs="+", required=True, metavar="B",
                        help="result files of side B")
    args = parser.parse_args(argv)
    if len(args.a) < 2 or len(args.vs) < 2:
        parser.error("give at least two result files per side")
    with open(BENCHMARK_PATH) as handle:
        bench = json.load(handle)
    lines, ok = compare(load(args.a), load(args.vs), bench)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
