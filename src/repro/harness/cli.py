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
    python -m repro.harness fleet [--workers 4] [--corpus 10x] \
        [--modules 12] [--journal j.jsonl] [--resume] [--max-jobs N] \
        [--verify-serial] [--record]
    python -m repro.harness fleet --drill [--fault-rate 0.1] [--fault-seed 2]
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
reachable as ``--record`` on ``selfcheck``/``trace``/``fleet``; and
``compare`` diffs two records (files, ledger hashes, or ``latest``),
exiting nonzero on decision drift or a same-machine phase-time
regression beyond ``--threshold``.

``fleet`` runs a corpus on the persistent self-healing worker fleet
(:mod:`repro.harness.fleet`): journalled, resumable (``--journal`` /
``--resume``), verifiable bit-identical to serial (``--verify-serial``).
``fleet --drill`` instead runs the kill/stall/raise containment drill.

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
            "trace", "stats", "record", "compare", "fleet", "replay",
        ],
        help="which experiment to regenerate ('selfcheck' runs the "
        "differential-simulation oracle or, with --faults, the fault "
        "drill, 'trace'/'stats' record one workload under the decision "
        "tracer, 'record' persists a run record to the ledger, 'compare' "
        "diffs two run records, 'fleet' runs a corpus on the "
        "self-healing worker fleet, 'replay' check-replays a workload "
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
        "--workers", type=int, default=None,
        help="fleet only: worker-process count, at least 1 (default: 4 "
        "for --drill, else up to 4 by CPU count)",
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
        help="selfcheck --faults / fleet --drill: fault probability per "
        "trial / per module, in (0, 1]",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="selfcheck --faults / fleet --drill: fault-plane seed "
        "(default: 0 for selfcheck, 2 for the fleet drill)",
    )
    parser.add_argument(
        "--drill", action="store_true",
        help="fleet: run the kill/stall/raise containment drill instead "
        "of a plain corpus run",
    )
    parser.add_argument(
        "--corpus", default="10x",
        help="fleet: corpus specifier — a scaling tier (10x/50x/200x) "
        "or 'spec' (the 19 SPEC workloads)",
    )
    parser.add_argument(
        "--modules", type=int, default=12,
        help="fleet: how many synthetic modules a scaling-tier corpus "
        "holds (ignored for --corpus spec)",
    )
    parser.add_argument(
        "--corpus-seed", type=int, default=None, dest="corpus_seed",
        help="fleet: base seed of the synthetic corpus (default: the "
        "scaling-tier seed, 2006)",
    )
    parser.add_argument(
        "--journal", default=None,
        help="fleet: append-only run journal path; completed jobs are "
        "journalled so a killed driver can --resume",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="fleet: skip jobs already completed in --journal (refuses "
        "if the journal's corpus configuration differs)",
    )
    parser.add_argument(
        "--max-jobs", type=int, default=None, dest="max_jobs",
        help="fleet: abandon the run after this many completions (the "
        "CI resume smoke's stand-in for a killed driver)",
    )
    parser.add_argument(
        "--verify-serial", action="store_true", dest="verify_serial",
        help="fleet: re-form the corpus in-process and fail on any "
        "decision-fingerprint divergence",
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
        help="selfcheck/trace/fleet: also persist a run record to the "
        "ledger",
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
    if args.workers is not None and args.workers < 1:
        raise SystemExit(f"--workers must be at least 1, got {args.workers}")
    return _dispatch(args, _parse_subset(args.subset))


def _dispatch(args, subset: Optional[list[str]]) -> str:
    if args.target == "fleet":
        from repro.harness.fleet import FleetError

        try:
            report = _run_fleet_target(args)
        except FleetError as exc:
            raise SystemExit(f"fleet: {exc}")
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(report + "\n")
        return report

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
            seed=args.fault_seed if args.fault_seed is not None else 0,
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


def _run_fleet_target(args) -> str:
    """The ``fleet`` verb: drill, or a (resumable) journalled corpus run."""
    from repro.harness.fleet import (
        DEFAULT_FLEET_WORKERS,
        FleetConfig,
        build_corpus,
        compare_against_serial,
        corpus_config_fingerprint,
        run_fleet_corpus,
        run_fleet_drill,
        serial_corpus_entries,
    )
    from repro.workloads.generators import SCALING_SEED

    if args.drill:
        drill = run_fleet_drill(
            corpus=args.corpus,
            modules=args.modules,
            seed=args.corpus_seed
            if args.corpus_seed is not None
            else SCALING_SEED,
            workers=args.workers if args.workers is not None else 4,
            rate=args.fault_rate,
            fault_seed=args.fault_seed if args.fault_seed is not None else 2,
        )
        if not drill["ok"]:
            print(drill["report"], file=sys.stderr)
            raise SystemExit(
                "fleet drill failed: a fault escaped containment or the "
                "fleet diverged from serial"
            )
        return drill["report"]

    seed = args.corpus_seed if args.corpus_seed is not None else SCALING_SEED
    corpus_items = build_corpus(args.corpus, args.modules, seed)
    config_fp = corpus_config_fingerprint(args.corpus, args.modules, seed, None)
    config = FleetConfig(
        workers=args.workers if args.workers is not None
        else DEFAULT_FLEET_WORKERS
    )
    result = run_fleet_corpus(
        corpus_items,
        config=config,
        journal_path=args.journal,
        resume=args.resume,
        config_fingerprint=config_fp,
        stop_after=args.max_jobs,
    )
    stats = result.fleet_stats
    lines = [
        f"fleet: corpus={args.corpus} jobs={len(result.workloads)} "
        f"workers={config.workers}",
        f"  completed: {len(result.completed)}, "
        f"resumed from journal: {len(result.resumed)}, "
        f"unfinished: {len(result.unfinished)}",
    ]
    if stats:
        lines.append(
            f"  respawns: {stats.get('respawns', 0)}, "
            f"requeues: {stats.get('requeues', 0)}, "
            f"lease expiries: {stats.get('lease_expiries', 0)}, "
            f"quarantined: {len(stats.get('quarantined', ()))}"
        )
    if result.journal_path:
        lines.append(f"  journal: {result.journal_path}")
    if not result.finished:
        lines.append(
            f"  run truncated after --max-jobs {args.max_jobs}; resume "
            f"with: fleet --corpus {args.corpus} --modules {args.modules} "
            f"--journal {args.journal} --resume"
        )
        return "\n".join(lines)

    record = result.record(label=args.label)
    merges = record["merges"]
    lines.append(
        f"  merges: {merges}, functions: {len(record['functions'])}, "
        "record: validated"
    )
    if args.verify_serial:
        serial = serial_corpus_entries(
            [
                (name, module.copy(), profile)
                for name, module, profile in corpus_items
            ]
        )
        drift = compare_against_serial(result.entries, serial)
        if drift:
            lines.append("  DECISION DRIFT vs serial:")
            lines.extend(f"    {problem}" for problem in drift)
            print("\n".join(lines), file=sys.stderr)
            raise SystemExit(
                f"fleet run diverged from serial in {len(drift)} place(s)"
            )
        lines.append(
            f"  verify-serial: {len(serial)} jobs byte-identical to the "
            "sequential driver"
        )
    if args.record:
        from repro.obs.ledger import Ledger
        from repro.obs.replay import build_log_set

        ledger = Ledger(args.ledger) if args.ledger else Ledger()
        # Workers ship their decision events back with task results, so
        # the merged corpus record gets a flight-recorder log too —
        # making fleet runs bisectable like any `record` run.
        log_functions = result.decision_log_functions()
        if log_functions:
            record["decision_log"] = ledger.record_decisions(
                build_log_set(log_functions)
            )
        digest = ledger.record(record)
        lines.append(f"  ledger: recorded {digest[:12]} -> {ledger.root}")
        if "decision_log" in record:
            lines.append(
                f"  decision log: {record['decision_log'][:12]} "
                f"({len(log_functions)} function stream(s))"
            )
    return "\n".join(lines)


def main() -> None:  # console entry point
    print(run())


if __name__ == "__main__":
    main()
