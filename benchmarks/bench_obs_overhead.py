"""Prices the telemetry subsystem: disabled overhead and traced cost.

Telemetry is opt-in, and the contract (docs/OBSERVABILITY.md) is that the
*disabled* instrumentation — one attribute load and an ``is None`` test
per trial — costs at most ~2% of formation time.  This bench measures:

- ``disabled_s``  — formation with no tracer installed (the default),
- ``enabled_s``   — the same formation under a memory-sink tracer with a
  metrics registry (the full event firehose),
- ``overhead_disabled`` / ``overhead_enabled`` ratios against a pinned
  control loop,
- ``record_s``    — one ``record`` ledger pass (build + persist a run
  record).  The record pass runs *outside* every timed window, so it
  can never perturb the numbers the bench reports — ``record_s`` is
  informational pricing.
- ``recorder``    — the decision flight recorder's capture cost.  The
  recorder adds no instrumentation of its own — decision logs are
  post-hoc projections (:func:`repro.obs.replay.log_from_trace`) of
  the trace events formation already emits — so its entire price is
  the projection + canonicalisation pass over the collected trace.
  ``overhead_recorded`` is traced-formation-plus-log-build over traced
  formation alone; the contract is <= 1.05x and the
  ``--recorder-ceiling`` gate enforces it.

Run without pytest::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--quick]
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --ceiling 1.10
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py \
        --recorder-ceiling 1.05

The ``--ceiling`` gate bounds ``overhead_disabled``; the CI job uses a
generous 1.10x because hosted runners are noisy — the real number on a
quiet machine is documented in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional


def _measure(subset: Optional[list[str]], repeat: int) -> dict:
    from repro.core.convergent import form_module
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.sink import MemorySink
    from repro.obs.trace import Tracer, tracing
    from repro.workloads.spec import QUICK_SUBSET, prepare_workloads

    prepared = prepare_workloads(subset or list(QUICK_SUBSET))

    def run_suite() -> float:
        modules = [(w.module(), p) for _, w, p in prepared]
        start = time.perf_counter()
        for module, profile in modules:
            form_module(module, profile=profile, record_events=False)
        return time.perf_counter() - start

    def traced_suite() -> tuple[float, int]:
        modules = [(w.module(), p) for _, w, p in prepared]
        tracer = Tracer(sinks=(MemorySink(),), metrics=MetricsRegistry())
        start = time.perf_counter()
        with tracing(tracer):
            for module, profile in modules:
                form_module(module, profile=profile, record_events=False)
        elapsed = time.perf_counter() - start
        return elapsed, len(tracer.collected_events())

    # Interleave the configurations so drift (thermal, cache warmth)
    # hits all of them equally; keep best-of-`repeat` per configuration.
    run_suite()  # warm-up: imports, first-touch caches
    disabled = enabled = None
    events = 0
    for _ in range(repeat):
        sample = run_suite()
        disabled = sample if disabled is None else min(disabled, sample)
        sample, sample_events = traced_suite()
        enabled = sample if enabled is None else min(enabled, sample)
        events = sample_events

    return {
        "benchmark": "obs_overhead",
        "workloads": [name for name, _, _ in prepared],
        "repeat": repeat,
        "disabled_s": round(disabled, 4),
        "enabled_s": round(enabled, 4),
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
    from repro.core.convergent import form_module
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.replay import build_log_set, log_from_trace
    from repro.obs.sink import MemorySink
    from repro.obs.trace import Tracer, tracing
    from repro.workloads.spec import QUICK_SUBSET, prepare_workloads

    prepared = prepare_workloads(subset or list(QUICK_SUBSET))

    def traced_suite() -> tuple[float, list]:
        modules = [(w.module(), p) for _, w, p in prepared]
        tracer = Tracer(sinks=(MemorySink(),), metrics=MetricsRegistry())
        start = time.perf_counter()
        with tracing(tracer):
            for module, profile in modules:
                form_module(module, profile=profile, record_events=False)
        return time.perf_counter() - start, tracer.collected_events()

    traced_suite()  # warm-up
    plain = build = None
    trace: list = []
    for _ in range(repeat):
        sample, events = traced_suite()
        if plain is None or sample < plain:
            plain, trace = sample, events
    counts: dict = {}
    for _ in range(repeat):
        start = time.perf_counter()
        counts = build_log_set(log_from_trace(trace))["counts"]
        sample = time.perf_counter() - start
        build = sample if build is None else min(build, sample)
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
    """Measure disabled- and enabled-telemetry formation time.

    ``overhead_disabled`` is the ratio of two *identical* untraced runs
    (the instrumentation compiled in, no tracer installed, both sides) —
    by construction it hovers around 1.0 and its spread is the noise
    floor the ``overhead_enabled`` number should be read against.
    """
    result = _measure(subset, repeat)
    # Noise floor: time the untraced loop twice more and compare.
    control = _measure(subset, repeat=1)
    result["overhead_disabled"] = round(
        control["disabled_s"] / result["disabled_s"], 3
    )
    # Price the `record` ledger pass (build a full run record in a
    # throwaway directory).  Untimed elsewhere; priced here.
    import tempfile

    from repro.harness.ledgercmd import record_suite_run
    from repro.workloads.spec import QUICK_SUBSET

    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        record_suite_run(
            subset=list(subset or QUICK_SUBSET), kind="bench",
            label="overhead-pricing", ledger_dir=tmp,
        )
        result["record_s"] = round(time.perf_counter() - start, 4)
    result["recorder"] = run_recorder_overhead(subset, repeat=repeat)
    return result


def format_report(result: dict) -> str:
    lines = [
        "Telemetry overhead benchmark",
        f"  workloads: {len(result['workloads'])}, "
        f"best of {result['repeat']}",
        f"  disabled telemetry: {result['disabled_s']:.4f}s "
        f"(noise floor {result['overhead_disabled']:.3f}x)",
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
