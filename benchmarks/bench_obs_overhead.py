"""Prices the telemetry subsystem: disabled overhead and traced cost.

Telemetry is opt-in, and the contract (docs/OBSERVABILITY.md) is that the
*disabled* instrumentation — one ``span`` call that records nothing per
traced region, and one ``is not None`` test per event — costs at most
~2% of formation time.  This bench measures:

- ``disabled_s``  — formation with no tracer (the default),
- ``control_s``   — the same untraced formation again, timed in the
  same rounds; ``overhead_disabled`` = ``control_s / disabled_s`` is the
  ratio of two identical configurations, so it reads the noise floor,
- ``enabled_s``   — the same formation under a tracer (the full event
  firehose), and ``overhead_enabled`` = ``enabled_s /
  disabled_s``,
- ``record_s``    — one ``record`` pass (form the subset under a tracer
  and write its decision log to a temporary file).  It runs *outside*
  every other timed window, so it cannot perturb them; ``record_s`` is
  informational pricing.
- ``recorder``    — the decision flight recorder's capture cost.  The
  recorder adds no instrumentation of its own — decision logs are
  post-hoc projections (:func:`repro.obs.replay.log_from_trace`) of
  the trace events formation already emits — so its entire price is
  the projection + canonicalisation pass over the collected trace.
  ``overhead_recorded`` is traced-formation-plus-log-build over traced
  formation alone; the contract is <= 1.05x and the
  ``--recorder-ceiling`` gate enforces it.

Every time is best-of-``--repeat`` on the reference-speed clock of the
end-to-end benchmark (``benchmarks/e2e/speedclock.py``), so a stretch in
which another tenant slows the host does not read as overhead.  Each
timed formation window forms the subset ``PASSES_PER_WINDOW`` times, and
the three formation configurations are interleaved within each round.

Run without pytest (no ``PYTHONPATH`` needed; the script adds ``src``)::

    python benchmarks/bench_obs_overhead.py [--quick]
    python benchmarks/bench_obs_overhead.py --ceiling 1.10 --recorder-ceiling 1.05

Every run measures both ratios, so one run can gate both.  The
``--ceiling`` gate bounds ``overhead_disabled``; the CI job uses a
generous 1.10x because hosted runners are noisy — the real number on a
quiet machine is documented in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

from speedclock import SpeedClock, seconds  # noqa: E402

from repro.obs.trace import Tracer  # noqa: E402

#: Formation passes per timed window.  One pass of the quick subset is
#: about 0.03 reference seconds, about three samples of the clock; on a
#: shared 2-vCPU host the noise floor read 0.902-1.133x over 26 runs with
#: one pass per window (3 runs over 1.10) and 0.879-1.078x over 38 runs
#: with three.
PASSES_PER_WINDOW = 3


def _timed(clock: SpeedClock, work: Callable[[], object]) -> float:
    """Reference-speed seconds ``work()`` takes on a running ``clock``."""
    start, _ = clock.read()
    work()
    end, _ = clock.read()
    return seconds(end - start)


def _best(best: Optional[float], sample: float) -> float:
    return sample if best is None else min(best, sample)


def _formation(prepared: list, tracer=None) -> Callable[[], None]:
    """A call that forms ``PASSES_PER_WINDOW`` fresh copies of the
    prepared workloads, under ``tracer`` if given; the copies are made
    here, before any timing."""
    from repro.core.convergent import form_module

    modules = [
        (w.module(), p)
        for _ in range(PASSES_PER_WINDOW)
        for _, w, p in prepared
    ]

    def form() -> None:
        for module, profile in modules:
            form_module(module, profile=profile, tracer=tracer)

    return form


def _prepare(subset: Optional[list[str]]) -> list:
    from repro.workloads.spec import QUICK_SUBSET, prepare_workloads

    return prepare_workloads(subset or list(QUICK_SUBSET))


def _measure(subset: Optional[list[str]], repeat: int) -> dict:
    prepared = _prepare(subset)
    clock = SpeedClock()
    control = disabled = enabled = None
    events = 0
    with clock.running():
        _formation(prepared)()  # warm-up: imports, first-touch caches
        for _ in range(repeat):
            control = _best(control, _timed(clock, _formation(prepared)))
            disabled = _best(disabled, _timed(clock, _formation(prepared)))
            tracer = Tracer()
            enabled = _best(
                enabled, _timed(clock, _formation(prepared, tracer))
            )
            events = len(tracer.events)

    return {
        "benchmark": "obs_overhead",
        "workloads": [name for name, _, _ in prepared],
        "repeat": repeat,
        "control_s": round(control, 4),
        "disabled_s": round(disabled, 4),
        "enabled_s": round(enabled, 4),
        "overhead_disabled": round(control / disabled, 3),
        "overhead_enabled": round(enabled / disabled, 3),
        "events": events,
    }


def run_recorder_overhead(
    subset: Optional[list[str]] = None, repeat: int = 3
) -> dict:
    """Decision-log capture priced against plain traced formation.

    The recorder's entire cost is the post-hoc projection of an
    already-collected trace (``log_from_trace`` + ``build_log_set``) —
    exactly the work ``record`` adds per run.
    Formation runs best-of-``repeat`` under the firehose tracer; the
    projection is then timed best-of-``repeat`` on the kept trace, so
    formation's run-to-run jitter (often > 10% on hosted runners, larger
    than the recorder itself) cancels out of the ratio instead of
    masquerading as recorder cost.  ``overhead_recorded`` =
    (traced + log build) / traced, bounded by the <= 1.05x contract;
    ``decisions`` is the number of records projected.
    """
    from repro.obs.replay import build_log_set, log_from_trace

    prepared = _prepare(subset)
    clock = SpeedClock()
    plain = build = None
    trace: list = []
    counts: dict = {}

    def project() -> None:
        counts.update(build_log_set(log_from_trace(trace))["counts"])

    with clock.running():
        _formation(prepared, Tracer())()  # warm-up
        for _ in range(repeat):
            tracer = Tracer()
            sample = _timed(clock, _formation(prepared, tracer))
            if plain is None or sample < plain:
                plain, trace = sample, tracer.events
        for _ in range(repeat):
            build = _best(build, _timed(clock, project))
    return {
        "traced_s": round(plain, 4),
        "log_build_s": round(build, 4),
        "recorded_s": round(plain + build, 4),
        "overhead_recorded": round((plain + build) / plain, 3),
        "decisions": counts["offers"] + counts["accepts"]
        + counts["rejects"],
    }


def run_overhead_bench(
    subset: Optional[list[str]] = None, repeat: int = 3
) -> dict:
    """Measure disabled- and enabled-telemetry formation time, price one
    ``record`` pass, and measure the recorder's capture cost."""
    from repro.harness.replaycmd import run_record

    result = _measure(subset, repeat)
    clock = SpeedClock()
    with tempfile.TemporaryDirectory() as tmp, clock.running():
        out = os.path.join(tmp, "log.json")
        result["record_s"] = round(
            _timed(clock, lambda: run_record(subset=subset, quick=True,
                                             out=out)),
            4,
        )
    result["recorder"] = run_recorder_overhead(subset, repeat=repeat)
    return result


def format_report(result: dict) -> str:
    lines = [
        "Telemetry overhead benchmark (reference-speed seconds)",
        f"  workloads: {len(result['workloads'])}, "
        f"best of {result['repeat']}",
        f"  disabled telemetry: {result['disabled_s']:.4f}s "
        f"(control {result['control_s']:.4f}s, noise floor "
        f"{result['overhead_disabled']:.3f}x)",
        f"  enabled telemetry:  {result['enabled_s']:.4f}s "
        f"({result['overhead_enabled']:.3f}x, "
        f"{result['events']} events)",
        f"  record pass:        {result['record_s']:.4f}s (informational)",
    ]
    recorder = result.get("recorder")
    if recorder:
        lines.append(
            f"  decision recorder:  {recorder['recorded_s']:.4f}s vs "
            f"{recorder['traced_s']:.4f}s traced "
            f"({recorder['overhead_recorded']:.3f}x, "
            f"{recorder['decisions']} decisions)"
        )
    return "\n".join(lines)


def test_disabled_telemetry_overhead_smoke(benchmark):
    """pytest-benchmark entry: the disabled path stays within noise.

    The assertion ceiling is deliberately loose (1.5x) — hosted CI
    runners jitter far above the ~2% contract; the contract number is
    checked on quiet hardware and recorded in docs/OBSERVABILITY.md.
    """
    result = benchmark.pedantic(
        lambda: run_overhead_bench(repeat=1), rounds=1, iterations=1
    )
    assert result["overhead_disabled"] < 1.5
    assert result["events"] > 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="(accepted for symmetry; the default subset is already quick)",
    )
    parser.add_argument("--subset", help="comma-separated workload names")
    parser.add_argument(
        "--repeat", type=int, default=3, help="timing repetitions (best-of)"
    )
    parser.add_argument(
        "--ceiling", type=float, default=None,
        help="fail (exit 1) if overhead_disabled exceeds this ratio",
    )
    parser.add_argument(
        "--recorder-ceiling", type=float, default=None,
        dest="recorder_ceiling",
        help="fail (exit 1) if the decision recorder's overhead_recorded "
        "exceeds this ratio (the contract is 1.05)",
    )
    parser.add_argument("--json", help="also write the result JSON here")
    args = parser.parse_args(argv)

    subset = (
        [name.strip() for name in args.subset.split(",") if name.strip()]
        if args.subset
        else None
    )
    result = run_overhead_bench(subset=subset, repeat=args.repeat)
    print(format_report(result))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.ceiling is not None and result["overhead_disabled"] > args.ceiling:
        print(
            f"overhead ceiling exceeded: {result['overhead_disabled']:.3f}x "
            f"> {args.ceiling:.3f}x",
            file=sys.stderr,
        )
        return 1
    if (
        args.recorder_ceiling is not None
        and result["recorder"]["overhead_recorded"] > args.recorder_ceiling
    ):
        print(
            "recorder overhead ceiling exceeded: "
            f"{result['recorder']['overhead_recorded']:.3f}x "
            f"> {args.recorder_ceiling:.3f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
