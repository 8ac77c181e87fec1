"""Record the 200x scaling point: BF formation of ``scaled_program(8800, 2006)``.

The program is one synthetic function 200 times the SPEC mean size of
44 instructions.  One formation takes about 9 s at reference speed,
too slow for an e2e workload, so this script records the point on its
own.  It
profiles the program once, then forms a fresh copy of it under BF
(``heuristic_config("BF")``, the same call e2e's ``core`` span times)
three times on e2e's reference-speed clock (``benchmarks/e2e/speedclock.py``).
It writes the median and spread of the formation seconds (reference
speed, wall clock alongside), m/t/u/p and attempts, which must repeat
exactly, ``max_reg`` before and after formation, and how many commits
made formation rebuild its loop forest and its liveness components
(``loop_rebuilds``, ``liveness_rebuilds``)::

    python3 benchmarks/scaling_200x.py     # writes benchmarks/baselines/scaling_200x.json

No ``PYTHONPATH`` is needed; the script adds ``src``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

from speedclock import SpeedClock, seconds  # noqa: E402

from repro.harness.experiment import heuristic_config  # noqa: E402
from repro.obs.ledger import machine_metadata  # noqa: E402
from repro.profiles.collect import collect_profile  # noqa: E402
from repro.workloads.generators import random_inputs, scaled_program  # noqa: E402

TARGET_INSTRS = 8800
SEED = 2006
RUNS = 3
DEFAULT_OUT = ROOT / "benchmarks" / "baselines" / "scaling_200x.json"


def max_reg(module) -> int:
    return max(func.max_reg() for func in module)


def measure() -> dict:
    module = scaled_program(TARGET_INSTRS, SEED)
    profile = collect_profile(module, args=random_inputs(SEED))
    clock = SpeedClock()
    runs = []
    for _ in range(RUNS):
        formed = module.copy()
        with clock.running():
            units, wall_ns = clock.read()
            stats = heuristic_config("BF")(formed, profile)
            end_units, end_wall_ns = clock.read()
        runs.append({
            "formation_s": seconds(end_units - units),
            "wall_s": (end_wall_ns - wall_ns) / 1e9,
            "mtup": list(stats.mtup),
            "attempts": stats.attempts,
            "max_reg_after": max_reg(formed),
            "loop_rebuilds": stats.cache.loop_rebuilds,
            "liveness_rebuilds": stats.cache.liveness_rebuilds,
        })
    decisions = {
        (
            tuple(run["mtup"]), run["attempts"], run["max_reg_after"],
            run["loop_rebuilds"], run["liveness_rebuilds"],
        )
        for run in runs
    }
    if len(decisions) != 1:
        raise SystemExit(f"formation decisions differ between runs: {decisions}")
    times = sorted(run["formation_s"] for run in runs)
    return {
        "program": f"scaled_program({TARGET_INSTRS}, {SEED})",
        "config": "BF",
        "instructions": sum(func.size() for func in module),
        "formation_s": {
            "median": statistics.median(times),
            "min": times[0],
            "max": times[-1],
            "runs": [run["formation_s"] for run in runs],
        },
        "wall_s": [run["wall_s"] for run in runs],
        "mtup": runs[0]["mtup"],
        "attempts": runs[0]["attempts"],
        "max_reg_before": max_reg(module),
        "max_reg_after": runs[0]["max_reg_after"],
        "loop_rebuilds": runs[0]["loop_rebuilds"],
        "liveness_rebuilds": runs[0]["liveness_rebuilds"],
        "clock": clock.summary(),
        "machine": machine_metadata(),
        "date": time.strftime("%Y-%m-%d"),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args()
    result = measure()
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
