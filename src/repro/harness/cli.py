"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    python -m repro.harness table1 [--subset ammp_1,sieve] [--out FILE]
    python -m repro.harness table2
    python -m repro.harness table3
    python -m repro.harness figure7
    python -m repro.harness all --out results.txt
    python -m repro.harness selfcheck [--subset sieve,mcf]
    python -m repro.harness table1 --selfcheck
    python -m repro.harness selfcheck --faults [--fault-rate 0.1] \
        [--fault-seed 0]
    python -m repro.harness trace mcf [--why b0,b3] [--jsonl t.jsonl] \
        [--chrome t.json] [--dot prefix_]
    python -m repro.harness stats mcf [--top 10]
    python -m repro.harness record [--quick] [--label ci] [--out rec.json]
    python -m repro.harness compare <run-a> <run-b> [--html report.html]
    python -m repro.harness compare rec.json --against-ledger latest
    python -m repro.harness replay mcf [--fn main] [--run latest]
    python -m repro.harness replay --bisect <runA> <runB>

Options and positionals may come in any order.

``selfcheck`` (or the ``--selfcheck`` flag on any target) runs the
differential-simulation oracle over the suite before the experiment and
fails the run on any divergence; ``selfcheck --faults`` runs the seeded
fault-containment drill instead.  ``trace`` and ``stats`` record one
workload's formation under the decision tracer (:mod:`repro.obs`) and
render the record / its aggregates.

``record`` persists a run record (per-function decision fingerprints,
merge counts, phase times) into the ``.repro-ledger/`` directory — also
reachable as ``--record`` on ``selfcheck``/``trace``; and
``compare`` diffs two records (files, ledger hashes, or ``latest``),
exiting nonzero on decision drift or a same-machine phase-time
regression beyond ``--threshold``.

``replay`` validates a live formation run against the flight-recorder
decision log a ``record`` run left in the ledger, halting at the first
divergence; ``replay --bisect`` pinpoints the first diverging decision
between two recorded runs (:mod:`repro.harness.replaycmd`).

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
    newline, so stdout and the file carry the same bytes.
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
            "trace", "stats", "record", "compare", "replay",
        ],
        help="which experiment to regenerate ('selfcheck' runs the "
        "differential-simulation oracle or, with --faults, the fault "
        "drill, 'trace'/'stats' record one workload under the decision "
        "tracer, 'record' persists a run record to the ledger, 'compare' "
        "diffs two run records, 'replay' check-replays a workload "
        "against a recorded decision log or bisects two recorded runs to "
        "the first diverging decision)",
    )
    parser.add_argument(
        "workload", nargs="?",
        help="trace/stats/replay: the SPEC workload to form under the "
        "tracer; compare / replay --bisect: the baseline run (file path, "
        "ledger hash, or 'latest')",
    )
    parser.add_argument(
        "other", nargs="?",
        help="compare / replay --bisect: the candidate run (file path, "
        "ledger hash, or 'latest')",
    )
    parser.add_argument(
        "--subset",
        help="comma-separated benchmark names (default: the full suite)",
    )
    parser.add_argument("--out", help="also write the report to this file")
    parser.add_argument(
        "--quick", action="store_true",
        help="record: the five-workload quick subset",
    )
    parser.add_argument(
        "--json", nargs="?", const="-", default=None,
        help="stats / trace: emit machine-readable JSON instead of the "
        "rendered tables (bare --json prints to stdout, or give a path)",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="run the differential-simulation oracle over the subset "
        "before the experiment; exit 1 on any divergence",
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
        "--record", action="store_true",
        help="selfcheck/trace: also persist a run record to the ledger",
    )
    parser.add_argument(
        "--ledger", default=None,
        help="ledger directory (default: .repro-ledger)",
    )
    parser.add_argument(
        "--label", help="record: free-form label stored with the run",
    )
    parser.add_argument(
        "--against-ledger", dest="against_ledger", metavar="REF",
        help="compare: baseline from the ledger ('latest' or a hash "
        "prefix) instead of a second positional run",
    )
    parser.add_argument(
        "--html", help="compare: also write a self-contained HTML report",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.15,
        help="compare: relative phase-time change below which a delta "
        "is noise (default 0.15)",
    )
    parser.add_argument(
        "--fn", default=None,
        help="replay: restrict check-mode replay to this function",
    )
    parser.add_argument(
        "--run", default="latest",
        help="replay: which recorded run to check against — a ledger "
        "run ('latest' or a hash prefix), a decision-log digest, or a "
        "JSON file path (default: latest)",
    )
    parser.add_argument(
        "--bisect", action="store_true",
        help="replay: compare the two positional run references and "
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
    return _dispatch(args, _parse_subset(args.subset))


def _dispatch(args, subset: Optional[list[str]]) -> str:
    if args.target == "replay":
        from repro.harness.replaycmd import run_replay_bisect, run_replay_check

        if args.bisect:
            if not args.workload or not args.other:
                raise SystemExit(
                    "replay --bisect needs two run references "
                    "(e.g. `replay --bisect latest run_b.json`)"
                )
            report = run_replay_bisect(
                args.workload, args.other, ledger_dir=args.ledger
            )
        else:
            if not args.workload:
                raise SystemExit(
                    "replay needs a workload name (check mode) or "
                    "--bisect with two run references"
                )
            report = run_replay_check(
                args.workload, fn=args.fn, run=args.run,
                ledger_dir=args.ledger,
            )
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(report + "\n")
        return report

    if args.target == "record":
        from repro.harness.ledgercmd import run_record

        report = run_record(
            subset=subset, quick=args.quick, label=args.label,
            ledger_dir=args.ledger, out=args.out,
        )
        return report

    if args.target == "compare":
        from repro.harness.ledgercmd import run_compare

        return run_compare(
            run_a=args.workload, run_b=args.other,
            against_ledger=args.against_ledger, ledger_dir=args.ledger,
            html=args.html, threshold=args.threshold,
        )

    if args.target in ("trace", "stats"):
        from repro.harness.tracecmd import run_stats, run_trace

        if not args.workload:
            raise SystemExit(f"{args.target} needs a workload name")
        as_json = args.json is not None
        if args.target == "trace":
            report = run_trace(
                args.workload, why=args.why, jsonl=args.jsonl,
                chrome=args.chrome, dot=args.dot, as_json=as_json,
            )
            if args.record:
                from repro.harness.ledgercmd import run_record

                report += "\n" + run_record(
                    subset=[args.workload], kind="trace",
                    label=args.label, ledger_dir=args.ledger,
                )
        else:
            report = run_stats(args.workload, top=args.top, as_json=as_json)
        if as_json and args.json != "-":
            with open(args.json, "w") as handle:
                handle.write(report + "\n")
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(report + "\n")
        return report

    if args.target == "selfcheck" and args.faults:
        from repro.harness.selfcheck import run_fault_drill

        drill = run_fault_drill(
            subset=subset, rate=args.fault_rate,
            seed=args.fault_seed,
        )
        report = drill["report"]
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(report + "\n")
        if not drill["ok"]:
            print(report, file=sys.stderr)
            raise SystemExit(
                "fault drill failed: a fault escaped containment or no "
                "fault fired"
            )
        return report

    if args.target == "selfcheck" or args.selfcheck:
        from repro.harness.selfcheck import run_selfcheck

        # Table targets take *microbenchmark* subsets; the oracle runs
        # over SPEC workloads, so only forward SPEC-speaking subsets.
        check_subset = subset if args.target == "selfcheck" else None
        check = run_selfcheck(subset=check_subset)
        if not check["ok"]:
            print(check["report"], file=sys.stderr)
            raise SystemExit("selfcheck failed: oracle divergence")
        if args.target == "selfcheck":
            report = check["report"]
            if args.record:
                from repro.harness.ledgercmd import run_record

                report += "\n" + run_record(
                    subset=check_subset, kind="selfcheck",
                    label=args.label, ledger_dir=args.ledger,
                )
            if args.out:
                with open(args.out, "w") as handle:
                    handle.write(report + "\n")
            return report

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
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
    return report


def main() -> None:  # console entry point
    print(run())


if __name__ == "__main__":
    main()
