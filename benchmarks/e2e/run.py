"""End-to-end Figure-6 pipeline benchmark.

One workload, in this process::

    python3 benchmarks/e2e/run.py --workload spec19 --seed 7 --seconds 20 --trace 0

Every workload, each in a fresh child interpreter, one at a time::

    python3 benchmarks/e2e/run.py --seed 2006 --out e2e-r1.json
    python3 benchmarks/e2e/run.py --seed 2006 --out e2e-r1.json --trace 1 --trace-out e2e-trace.json

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` with ``--workload`` runs traced and reports the per-layer
metrics; without ``--workload`` it runs every workload untraced and then
traced, and also reports the tracing overhead.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``, holding the metrics ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import e2e


def _in_child(name: str, seed: int, seconds: float, trace: bool,
              smoke: bool) -> dict:
    """Measure one workload in a fresh interpreter, so its peak RSS and the
    process-global IR arena belong to it alone."""
    spawn = get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        return pool.submit(e2e.measure, name, seed, seconds, trace, smoke).result()


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and value != int(value):
        return f"{value:.6g}"
    return str(value)


def report(untraced: list, traced: list) -> str:
    lines = []
    for index, result in enumerate(untraced or traced):
        lines.append(
            f"== {result['workload']}: {result['attempted']} ops "
            f"({result['passes']} x {result['ops_per_pass']}), "
            f"{result['failed']} failed, window {result['window_s']:.2f}s "
            f"({result['wall']['window_s']:.2f}s wall), "
            f"ir backend {result['ir_backend']}, "
            f"decisions {result['decision_digest'][:16]}"
        )
        compile_s = result["compile_s"]
        if "p90" in compile_s:
            lines.append(
                f"   compile_s.p90 {compile_s['p90']:.6g} s (n={compile_s['n']})"
            )
        sections = []
        if untraced:
            sections.append(result["e2e"])
        if traced:
            sections.append(traced[index]["layers"])
        for metrics in sections:
            for name, metric in metrics.items():
                lines.append(
                    f"   {name:<34} {_fmt(metric['value']):>14} {metric['unit']}"
                )
        if untraced and traced:
            ratio = (
                traced[index]["e2e"]["throughput_instrs_per_s"]["value"]
                / untraced[index]["e2e"]["throughput_instrs_per_s"]["value"]
            )
            lines.append(
                f"   tracing overhead: traced / untraced throughput {ratio:.4f}"
            )
        for failure in result["failures"]:
            lines.append(
                f"   FAILED {failure['program']}/{failure['config']} "
                f"at {failure['step']}: {failure['error']}"
            )
    return "\n".join(lines)


def summary_line(bench: dict, untraced: list, traced: list,
                 qualify: bool) -> dict:
    """The last line: end-to-end metrics from the untraced runs, per-layer
    metrics from the traced ones, keyed ``workload/metric`` when
    ``qualify``."""
    metrics = {}
    for results, section, listed in (
        (untraced, "e2e", bench["end_to_end"]),
        (traced, "layers", bench["per_layer"]),
    ):
        for result in results:
            for name in (metric["name"] for metric in listed):
                key = f"{result['workload']}/{name}" if qualify else name
                metrics[key] = result[section][name]
    results = untraced or traced
    return {
        "correct": all(r["correct"] for r in untraced + traced),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    bench = e2e.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(e2e.WORKLOADS),
                        help="run one workload in this process (default: "
                        "all, each in a fresh child interpreter)")
    parser.add_argument("--seed", type=int, default=2006,
                        help="fixes the op order of every pass")
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        help="length of the timed window; whole passes run "
                        "and the first always does")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the spans as Chrome trace-event JSON "
                        "(needs --trace 1)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the full results as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="two ops per workload, one set-up, no warm-up")
    args = parser.parse_args(argv)
    if args.trace_out and not args.trace:
        parser.error("--trace-out needs --trace 1")

    untraced, traced = [], []
    if args.workload:
        result = e2e.measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.smoke)
        (traced if args.trace else untraced).append(result)
    else:
        for name in e2e.WORKLOADS:
            untraced.append(_in_child(name, args.seed, args.seconds, False,
                                      args.smoke))
            if args.trace:
                traced.append(_in_child(name, args.seed, args.seconds, True,
                                        args.smoke))

    if args.trace_out:
        with open(args.trace_out, "w") as handle:
            json.dump(e2e.chrome_trace(traced), handle)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({
                "benchmark": "e2e",
                "machine": e2e.machine(),
                "seed": args.seed,
                "seconds": args.seconds,
                "workloads": {r["workload"]: _without_spans(r) for r in untraced},
                "traced": {r["workload"]: _without_spans(r) for r in traced},
            }, handle, indent=1, sort_keys=True)
            handle.write("\n")

    print(report(untraced, traced))
    print(json.dumps(
        summary_line(bench, untraced, traced, qualify=not args.workload)
    ))
    return 0


def _without_spans(result: dict) -> dict:
    return {key: value for key, value in result.items() if key != "spans"}


if __name__ == "__main__":
    sys.exit(main())
