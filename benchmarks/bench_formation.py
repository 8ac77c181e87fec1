"""Times end-to-end hyperblock formation; emits ``BENCH_formation.json``.

Thin wrapper over ``repro.harness.bench`` so the numbers can be produced
without pytest::

    PYTHONPATH=src python benchmarks/bench_formation.py
    PYTHONPATH=src python benchmarks/bench_formation.py --quick --ceiling 30

The same benchmark is reachable as ``python -m repro.harness bench``.

Two configurations are timed over the SPEC workloads (setup untimed):
formation without and with the trial guards.  Merge counts must agree
across the two — the run aborts otherwise.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional


def test_formation_quick(benchmark):
    """pytest-benchmark entry: quick subset."""
    from repro.harness.bench import run_bench

    result = benchmark.pedantic(
        lambda: run_bench(quick=True, repeat=1),
        rounds=1,
        iterations=1,
    )
    assert result["merges"] > 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small workload subset for CI smoke runs",
    )
    parser.add_argument(
        "--subset", help="comma-separated workload names",
    )
    parser.add_argument(
        "--out", default="BENCH_formation.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3, help="timing repetitions (best-of)",
    )
    parser.add_argument(
        "--scale", action="store_true",
        help="also time the synthetic scaling tiers (with --quick only "
        "the smallest tier)",
    )
    parser.add_argument(
        "--ceiling", type=float, default=None,
        help="fail if sequential fast time exceeds this many seconds",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="cProfile one sequential formation pass and report the "
        "top-20 functions by cumulative time",
    )
    args = parser.parse_args(argv)

    from repro.harness.bench import format_report, run_bench, write_json

    subset = None
    if args.subset:
        subset = [n.strip() for n in args.subset.split(",") if n.strip()]
    result = run_bench(
        subset=subset,
        quick=args.quick,
        repeat=args.repeat,
        scale=args.scale,
        profile=args.profile,
    )
    if args.out:
        write_json(result, args.out)
    print(format_report(result))
    if args.ceiling is not None and result["sequential_fast_s"] > args.ceiling:
        print(
            f"bench ceiling exceeded: {result['sequential_fast_s']:.4f}s "
            f"> {args.ceiling:.4f}s",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
