"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    python -m repro.harness table1 [--subset ammp_1,sieve] [--out FILE]
    python -m repro.harness table2
    python -m repro.harness table3
    python -m repro.harness figure7
    python -m repro.harness all --out results.txt
    python -m repro.harness selfcheck [--subset mcf,vortex]
    python -m repro.harness selfcheck --faults [--fault-rate 0.1] \
        [--fault-seed 0]
    python -m repro.harness trace mcf [--why b0,b3] [--jsonl t.jsonl] \
        [--chrome t.json] [--dot prefix_] [--json]
    python -m repro.harness stats mcf [--top 10] [--json --out s.json]
    python -m repro.harness record [--quick] --out log.json
    python -m repro.harness replay mcf --run log.json [--fn main]
    python -m repro.harness replay --bisect a.json b.json

Options and positionals may come in any order.  ``--out`` writes the
report that stdout carries (for ``record``, the decision-log file).

``selfcheck`` runs the differential-simulation oracle over the SPEC
suite and fails the run on any divergence; ``selfcheck --faults`` runs
the seeded fault-containment drill instead.  ``trace`` and ``stats``
record one workload's formation under the decision tracer
(:mod:`repro.obs`) and render the record / its aggregates.

``record`` writes the suite's decision log, with the engine counters
embedded per function, to the ``--out`` file.  ``replay`` re-forms a
workload and compares its decisions with such a file; ``replay
--bisect`` names the first diverging decision of each function between
two files (:mod:`repro.harness.replaycmd`).

Performance is measured end to end by ``benchmarks/e2e`` (see
``docs/PERFORMANCE.md``), not by a verb here.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from repro.harness.tables import figure7, table1, table2, table3


def _parse_subset(text: Optional[str]) -> Optional[list[str]]:
    if not text:
        return None
    return [name.strip() for name in text.split(",") if name.strip()]


def run(argv: Optional[list[str]] = None) -> str:
    """Run one verb and return its report, which never ends in a newline.

    ``main()`` prints the report and ``--out`` writes it followed by one
    newline, so stdout and the file carry the same bytes.  A failed
    ``selfcheck`` writes its report too, then prints it to stderr and
    exits 1.
    """
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Regenerate the tables and figures of 'Merging Head "
        "and Tail Duplication for Convergent Hyperblock Formation' "
        "(MICRO 2006).",
    )
    parser.add_argument(
        "target",
        choices=[
            "table1", "table2", "table3", "figure7", "all", "selfcheck",
            "trace", "stats", "record", "replay",
        ],
        help="which experiment to regenerate ('selfcheck' runs the "
        "differential-simulation oracle or, with --faults, the fault "
        "drill, 'trace'/'stats' record one workload under the decision "
        "tracer, 'record' writes the suite's decision log to --out, "
        "'replay' compares a re-formed workload with a decision-log file "
        "or bisects two files to the first diverging decision)",
    )
    parser.add_argument(
        "workload", nargs="?",
        help="trace/stats/replay: the SPEC workload to form under the "
        "tracer; replay --bisect: the baseline decision-log file",
    )
    parser.add_argument(
        "other", nargs="?",
        help="replay --bisect: the candidate decision-log file",
    )
    parser.add_argument(
        "--subset",
        help="comma-separated benchmark names (default: the full suite)",
    )
    parser.add_argument(
        "--out",
        help="also write the report (with --json, the JSON) to this "
        "file; record: the decision-log file to write",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="record: the five-workload quick subset",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="stats / trace: emit machine-readable JSON instead of the "
        "rendered tables",
    )
    parser.add_argument(
        "--faults", action="store_true",
        help="selfcheck: run the fault-containment drill instead of the "
        "oracle check",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.1,
        help="selfcheck --faults: fault probability per trial, in (0, 1]",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="selfcheck --faults: fault-plane seed (default: 0)",
    )
    parser.add_argument(
        "--why",
        help="trace: explain one decision — 'HB,TARGET' block names",
    )
    parser.add_argument(
        "--jsonl", help="trace: also write raw events to this JSONL file"
    )
    parser.add_argument(
        "--chrome",
        help="trace: also write a Chrome/Perfetto trace to this file",
    )
    parser.add_argument(
        "--top", type=int, default=10,
        help="stats: how many slowest trials to list",
    )
    parser.add_argument(
        "--dot",
        help="trace: write per-function DOT files (provenance-striped "
        "hyperblocks) with this filename prefix",
    )
    parser.add_argument(
        "--fn", default=None,
        help="replay: compare only this function",
    )
    parser.add_argument(
        "--run",
        help="replay: the decision-log file to compare the workload with",
    )
    parser.add_argument(
        "--bisect", action="store_true",
        help="replay: compare the two positional decision-log files and "
        "report the first diverging decision per function (exit 2 on "
        "any divergence)",
    )
    # Intermixed: the optional positionals may follow options
    # (`replay --bisect A B`), which plain parse_args would reject.
    args = parser.parse_intermixed_args(argv)
    if not 0 < args.fault_rate <= 1:
        raise SystemExit(
            f"--fault-rate must be in (0, 1], got {args.fault_rate:g}"
        )
    takes = _POSITIONALS.get(args.target, 0)
    extra = [arg for arg in (args.workload, args.other)[takes:] if arg]
    if extra:
        parser.error(
            f"{args.target} takes {takes} positional argument(s), got "
            f"extra {', '.join(map(repr, extra))}"
        )
    report, failure = _dispatch(args, _parse_subset(args.subset))
    if args.out and args.target != "record":
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
    if failure:
        print(report, file=sys.stderr)
        raise SystemExit(failure)
    return report


#: How many positionals (``workload``, ``other``) each verb reads.
_POSITIONALS = {"trace": 1, "stats": 1, "replay": 2}


def _dispatch(args, subset: Optional[list[str]]) -> tuple[str, Optional[str]]:
    """The verb's report and, for a failed ``selfcheck``, the exit
    message."""
    if args.target == "replay":
        from repro.harness.replaycmd import run_replay_bisect, run_replay_check

        if args.bisect:
            if not args.workload or not args.other:
                raise SystemExit(
                    "replay --bisect needs two decision-log files "
                    "(e.g. `replay --bisect a.json b.json`)"
                )
            return run_replay_bisect(args.workload, args.other), None
        if not args.workload:
            raise SystemExit(
                "replay needs a workload name (check mode) or "
                "--bisect with two decision-log files"
            )
        return run_replay_check(args.workload, run=args.run, fn=args.fn), None

    if args.target == "record":
        from repro.harness.replaycmd import run_record

        return run_record(subset=subset, quick=args.quick, out=args.out), None

    if args.target in ("trace", "stats"):
        from repro.harness.tracecmd import run_stats, run_trace

        if not args.workload:
            raise SystemExit(f"{args.target} needs a workload name")
        if args.target == "trace":
            return run_trace(
                args.workload, why=args.why, jsonl=args.jsonl,
                chrome=args.chrome, dot=args.dot, as_json=args.json,
            ), None
        return run_stats(args.workload, top=args.top, as_json=args.json), None

    if args.target == "selfcheck" and args.faults:
        from repro.harness.selfcheck import run_fault_drill

        drill = run_fault_drill(
            subset=subset, rate=args.fault_rate,
            seed=args.fault_seed,
        )
        failure = None if drill["ok"] else (
            "fault drill failed: a fault escaped containment or no "
            "fault fired"
        )
        return drill["report"], failure

    if args.target == "selfcheck":
        from repro.harness.selfcheck import run_selfcheck

        check = run_selfcheck(subset=subset)
        failure = None if check["ok"] else "selfcheck failed: oracle divergence"
        return check["report"], failure

    sections: list[str] = []
    started = time.time()

    if args.target in ("table1", "figure7", "all"):
        t1 = table1(subset=subset)
        if args.target != "figure7":
            sections.append(t1.format())
        if args.target in ("figure7", "all"):
            sections.append(figure7(t1).format())
    if args.target in ("table2", "all"):
        sections.append(table2(subset=subset).format())
    if args.target in ("table3", "all"):
        sections.append(table3(subset=subset).format())

    report = ("\n\n" + "=" * 72 + "\n\n").join(sections)
    report += f"\n\n(generated in {time.time() - started:.1f}s)"
    return report, None


def main() -> None:  # console entry point
    print(run())


if __name__ == "__main__":
    main()
