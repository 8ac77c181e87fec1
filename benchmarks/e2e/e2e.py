"""End-to-end Figure-6 pipeline benchmark: workloads, the measured op, metrics.

One *op* is one program under one Table-2 configuration:

1. compile: front end (``Workload.module()``; synthetic IR is copied
   untimed instead), ``collect_profile``, the configurator
   ``heuristic_config(cfg)(module, profile)`` (formation with library
   defaults, fail-safe guard on, then ``optimize_module``; the VLIW
   configurations also run the unroll/peel prepass), an untimed copy of
   the formed module, then ``compile_backend``;
2. validate: ``verify_module``, then the ``run_module`` output (return
   value and memory) of the formed module against the interpreter's
   output on the pre-formation IR *and* against ``expected.json``;
3. ``simulate_cycles`` on the formed, pre-backend copy, the convention of
   Tables 1-3.

Ops run as a closed loop: one client, one thread, each op starts after
the previous one returned.  The timed window is a whole number of
passes over the workload's ops; the seed fixes the op order within each
pass.  Every call into a layer is wrapped in a span recorded by this file
(never inside ``src/``), so layer busy times are measured where the work
happens.  A failing op is recorded and counted, and the run goes on.

Times are read from ``speedclock.SpeedClock``, which counts work units
of a reference kernel sampled every 10 ms and reports them as seconds
at the kernel's full speed, so that a shared host's slow stretches
cancel out; the result also keeps the wall-clock readings.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from speedclock import SpeedClock, seconds as to_s  # noqa: E402

#: Every time the benchmark reports is read from this clock; see
#: speedclock.py.
CLOCK = SpeedClock()

with CLOCK.running():
    _IMPORT_START = CLOCK.read()
    from repro.backend.pipeline import compile_backend  # noqa: E402
    from repro.harness.experiment import heuristic_config  # noqa: E402
    from repro.ir import arena  # noqa: E402
    from repro.ir.function import Module  # noqa: E402
    from repro.ir.printer import format_module  # noqa: E402
    from repro.ir.verify import verify_module  # noqa: E402
    from repro.profiles.collect import collect_profile  # noqa: E402
    from repro.sim.functional import run_module  # noqa: E402
    from repro.sim.timing import simulate_cycles  # noqa: E402
    from repro.workloads.generators import random_inputs, scaled_program  # noqa: E402
    from repro.workloads.microbench import (  # noqa: E402
        MICROBENCH_ORDER,
        MICROBENCHMARKS,
        Workload,
    )
    from repro.workloads.spec import SPEC_BENCHMARKS, SPEC_ORDER  # noqa: E402
    _IMPORT_END = CLOCK.read()

#: Work units and wall seconds spent importing the compiler; part of
#: ``setup_s``.
IMPORT_UNITS = _IMPORT_END[0] - _IMPORT_START[0]
IMPORT_WALL_S = (_IMPORT_END[1] - _IMPORT_START[1]) / 1e9

EXPECTED_PATH = os.path.join(HERE, "expected.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: The scaled tiers draw the same programs whatever the seed (the seed
#: only orders the ops): with 40 programs drawn per seed, the compile-time
#: median of a run swung by ~10% between seeds, wider than any useful
#: bound.
SCALED_SEED = 2006

#: Layers whose spans make up an op's compile time.
COMPILE_LAYERS = ("frontend", "profiles", "core", "backend")
#: Every layer span an op can record, in pipeline order.
LAYERS = COMPILE_LAYERS + ("ir.verify", "sim.functional", "sim.timing")

#: Set-up passes per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Program:
    """One input program: TL source for the front end, or synthetic IR."""

    name: str
    args: tuple
    preload: Optional[dict]
    source: Optional[Workload] = None
    ir: Optional[Module] = None


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    configs: tuple
    programs: Callable[[], list]
    #: Run assembly emission inside ``compile_backend``.
    emit: bool = True
    #: (program, config) pairs left out of the workload.
    skip: frozenset = frozenset()


def _tl_programs(table: dict, order: list) -> list:
    return [
        Program(name, table[name].args, table[name].preload, source=table[name])
        for name in order
    ]


def _scaled_programs(target: int, count: int) -> list:
    return [
        Program(
            f"s{target}_{seed}", random_inputs(seed), None,
            ir=scaled_program(target, seed),
        )
        for seed in range(SCALED_SEED, SCALED_SEED + count)
    ]


# Assembly emission re-places every block on the fixed 128-slot grid, and
# fanout inserted after the backend's split loop can push a block past
# it: at this commit that fails forward_gmti under BF, 7 of the 40
# scaled-10x programs and every scaled-50x one.  The workloads leave
# those ops out so that no op fails; see README.md, "Known failures".
WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "spec19", ("BF",),
            lambda: _tl_programs(SPEC_BENCHMARKS, SPEC_ORDER),
        ),
        WorkloadSpec(
            "micro24-policies", ("VLIW", "Convergent VLIW", "DF", "BF"),
            lambda: _tl_programs(MICROBENCHMARKS, MICROBENCH_ORDER),
            skip=frozenset({("forward_gmti", "BF")}),
        ),
        # One pass of each scaled tier takes about 15 s at full speed
        # and 20-30 s of wall time on a busy shared host.
        WorkloadSpec(
            "scaled-10x", ("BF",), lambda: _scaled_programs(440, 40),
            emit=False,
        ),
        WorkloadSpec(
            "scaled-50x", ("BF",), lambda: _scaled_programs(2200, 5),
            emit=False,
        ),
    )
}


def op_pairs(spec: WorkloadSpec, programs: list) -> list:
    """The workload's ops in canonical order: (program index, config)."""
    return [
        (index, config)
        for index, program in enumerate(programs)
        for config in spec.configs
        if (program.name, config) not in spec.skip
    ]


# -- set-up: inputs, reference outputs, BB baseline --------------------------


def static_instrs(module: Module) -> int:
    return sum(len(block) for func in module for block in func.blocks.values())


def output_digest(ret, memory: dict) -> str:
    return hashlib.sha256(repr((ret, sorted(memory.items()))).encode()).hexdigest()


@dataclass
class Baseline:
    """Facts about one program's pre-formation IR (the BB baseline)."""

    instrs: int
    src_bytes: int
    ret: object
    memory: dict
    dyn_blocks: int
    cycles: int


def baseline_of(program: Program) -> Baseline:
    # The simulators only read the module, so synthetic IR needs no copy.
    module = program.source.module() if program.source else program.ir
    ret, fstats, memory = run_module(
        module, args=program.args, preload=program.preload
    )
    tstats = simulate_cycles(module, args=program.args, preload=program.preload)
    return Baseline(
        instrs=static_instrs(module),
        src_bytes=len(program.source.source.encode()) if program.source else 0,
        ret=ret,
        memory=memory,
        dyn_blocks=fstats.blocks_executed,
        cycles=tstats.cycles,
    )


def build_inputs(spec: WorkloadSpec, smoke: bool):
    """Programs, their baselines and the op list of one workload."""
    programs = spec.programs()
    pairs = op_pairs(spec, programs)
    if smoke:
        pairs = pairs[:2]
    used = sorted({index for index, _ in pairs})
    baselines = {index: baseline_of(programs[index]) for index in used}
    return programs, baselines, pairs


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


# -- spans ---------------------------------------------------------------------


class OutputMismatch(Exception):
    """The formed program's output differs from a reference."""


class Recorder:
    """Times each layer call of each op; keeps spans in memory when tracing.

    Busy time per layer is always accumulated in ``CLOCK`` work units, and
    an op's compile time in units and wall ns.  ``trace=True`` also keeps
    every span as ``(op_id, span_id, parent_id, name, start_ns, end_ns)``
    on the wall clock.  An op's root span has no parent and is named
    ``program/config``; its layer spans have the root as parent.
    ``pause()`` brackets harness work that is not part of the op (module
    copies, IR digests) so it is excluded from the timed window.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list = []
        self.busy: Counter = Counter()
        self.op_units: Counter = Counter()
        self.op_wall_ns: Counter = Counter()
        self.paused_units = 0.0
        self.paused_ns = 0
        self.step: Optional[str] = None
        self._op_id = 0
        self._op_span = 0
        self._op_start = 0
        self._next_span = 1

    def begin_op(self) -> None:
        self._op_id += 1
        self.op_units.clear()
        self.op_wall_ns.clear()
        self.step = None
        if self.trace:
            self._op_span = self._next_span
            self._next_span += 1
            self._op_start = CLOCK.read()[1]

    def end_op(self, label: str) -> None:
        if self.trace:
            self.spans.append((
                self._op_id, self._op_span, None, label,
                self._op_start, CLOCK.read()[1],
            ))

    @contextmanager
    def span(self, name: str):
        self.step = name
        units, wall = CLOCK.read()
        try:
            yield
        finally:
            end_units, end_wall = CLOCK.read()
            self.busy[name] += end_units - units
            self.op_units[name] += end_units - units
            self.op_wall_ns[name] += end_wall - wall
            if self.trace:
                self.spans.append((
                    self._op_id, self._next_span, self._op_span, name,
                    wall, end_wall,
                ))
                self._next_span += 1

    @contextmanager
    def pause(self):
        units, wall = CLOCK.read()
        try:
            yield
        finally:
            end_units, end_wall = CLOCK.read()
            self.paused_units += end_units - units
            self.paused_ns += end_wall - wall


# -- the op ------------------------------------------------------------------


@dataclass
class Tally:
    """What the ops of one run produced, beyond their spans."""

    #: Compile work units and wall seconds of every attempted op.
    compile_units: list = field(default_factory=list)
    compile_wall_s: list = field(default_factory=list)
    #: Input IR instructions of every completed op.
    completed_instrs: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    #: pair -> (code, cycles, dyn-blocks ratio, IR digest), from the
    #: pair's first completed op.
    quality: dict = field(default_factory=dict)


class Runner:
    """Runs the ops of one workload against its prepared inputs."""

    def __init__(self, spec: WorkloadSpec, programs, baselines, expected):
        self.spec = spec
        self.programs = programs
        self.baselines = baselines
        self.expected = expected

    def op(self, index: int, config: str, rec: Recorder, tally: Tally) -> None:
        program = self.programs[index]
        base = self.baselines[index]
        key = (program.name, config)
        counts = tally.counts
        tally.attempted += 1
        rec.begin_op()
        try:
            if program.source is not None:
                with rec.span("frontend"):
                    module = program.source.module()
                counts["frontend.src_bytes"] += base.src_bytes
                counts["frontend.instrs_out"] += static_instrs(module)
            else:
                with rec.pause():
                    module = program.ir.copy()
            with rec.span("profiles"):
                profile = collect_profile(
                    module, args=program.args, preload=program.preload
                )
            counts["profiles.dyn_blocks"] += profile.total_blocks
            with rec.span("core"):
                report = heuristic_config(config)(module, profile)
            with rec.pause():
                formed = module.copy()
            _count_formation(counts, report, formed)
            counts["backend.attempts"] += 1
            try:
                with rec.span("backend"):
                    compiled = compile_backend(module, emit=self.spec.emit)
            except Exception:
                counts["backend.failures"] += 1
                raise
            counts["backend.spills"] += compiled.spill_count
            counts["backend.splits"] += len(compiled.splits)
            counts["backend.fanout_movs"] += sum(
                stats.inserted for stats in compiled.fanout.values()
            )
            counts["backend.instrs_out"] += static_instrs(compiled.module)
            with rec.span("ir.verify"):
                verify_module(formed)
            with rec.span("sim.functional"):
                ret, fstats, memory = run_module(
                    formed, args=program.args, preload=program.preload
                )
            counts["sim.functional.dyn_instrs"] += fstats.instrs_executed
            rec.step = "validate"
            self._check_output(program, base, ret, memory)
            with rec.span("sim.timing"):
                tstats = simulate_cycles(
                    formed, args=program.args, preload=program.preload
                )
            counts["sim.timing.dyn_instrs"] += tstats.instructions
            rec.step = "digest"
            with rec.pause():
                digest = hashlib.sha256(format_module(formed).encode()).hexdigest()
            first = tally.quality.get(key)
            if first is None:
                tally.quality[key] = (
                    static_instrs(formed) / base.instrs,
                    tstats.cycles / base.cycles,
                    fstats.blocks_executed / base.dyn_blocks,
                    digest,
                )
            elif first[3] != digest:
                raise OutputMismatch("formed IR differs from an earlier pass")
            tally.completed_instrs += base.instrs
        except Exception as exc:
            tally.failures.append({
                "workload": self.spec.name,
                "program": program.name,
                "config": config,
                "step": rec.step,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            })
        finally:
            # Compile time runs up to return or exception.
            tally.compile_units.append(
                sum(rec.op_units[layer] for layer in COMPILE_LAYERS)
            )
            tally.compile_wall_s.append(
                sum(rec.op_wall_ns[layer] for layer in COMPILE_LAYERS) / 1e9
            )
            rec.end_op(f"{program.name}/{config}")

    def _check_output(self, program, base, ret, memory) -> None:
        if (ret, memory) != (base.ret, base.memory):
            raise OutputMismatch(
                f"output differs from the pre-formation IR "
                f"(returned {ret!r}, expected {base.ret!r})"
            )
        want = self.expected.get(program.name)
        got = {"ret": ret, "memory_sha256": output_digest(ret, memory)}
        if want != got:
            raise OutputMismatch(
                f"output differs from expected.json ({got} != {want})"
            )


def _count_formation(counts: Counter, report, formed: Module) -> None:
    counts["core.merges"] += report.merges
    counts["core.attempts"] += report.attempts
    counts["core.tail_dups"] += report.tail_dups
    counts["core.unrolls"] += report.unrolls
    counts["core.peels"] += report.peels
    counts["core.trial_failures"] += len(report.failures)
    counts["core.degraded_functions"] += len(report.degraded_functions)
    counts["core.failed_safe_functions"] += len(report.failed_safe_functions)
    counts["core.blocks_out"] += sum(len(func.blocks) for func in formed)
    if report.cache is not None:
        counts["core.trial_hits"] += report.cache.trial_hits
        counts["core.trial_misses"] += report.cache.trial_misses


# -- one measured run ------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Set up one workload, warm up, then run whole passes for ``seconds``.

    The first pass always runs; another starts only while the previous
    pass's wall duration still fits in ``seconds``.  ``smoke`` keeps two
    ops, sets up once, skips the warm-up and runs one pass.

    Reported times are ``CLOCK`` work units turned into seconds at
    reference speed; ``wall`` holds the wall-clock readings of the same
    end-to-end timings.
    """
    if smoke:
        seconds = 0
    spec = WORKLOADS[name]
    expected = load_expected()
    with CLOCK.running():
        setup_runs = []
        for _ in range(1 if smoke else SETUP_REPEATS):
            start = CLOCK.read()
            programs, baselines, pairs = build_inputs(spec, smoke)
            setup_runs.append(_since(start))
        runner = Runner(spec, programs, baselines, expected)

        warmup = (0.0, 0.0)
        if not smoke:
            # The smallest program, so the warm-up stays short.
            index, config = min(pairs, key=lambda p: baselines[p[0]].instrs)
            start = CLOCK.read()
            runner.op(index, config, Recorder(trace=False), Tally())
            warmup = _since(start)

        rec = Recorder(trace)
        tally = Tally()
        arena_before = arena.STORE.counters()
        passes = 0
        window_start = CLOCK.read()
        for order in pass_orders(pairs, seed):
            pass_start = CLOCK.read()
            for index, config in order:
                runner.op(index, config, rec, tally)
            passes += 1
            if passes == 1:
                # The process grows by about 1 MB a pass, so the peak is
                # read after one, whatever the machine's speed lets fit.
                peak_rss_mb = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                )
            last_pass_s = _since(pass_start)[1]
            if _since(window_start)[1] + last_pass_s > seconds:
                break
        window_units, window_wall_s = _since(window_start)
        arena_after = arena.STORE.counters()

    window_s = to_s(window_units - rec.paused_units)
    window_wall_s -= rec.paused_ns / 1e9
    compile_s = [to_s(units) for units in tally.compile_units]
    setup_s = to_s(
        IMPORT_UNITS + statistics.median(u for u, _ in setup_runs) + warmup[0]
    )
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "traced": trace,
        "ir_backend": arena.backend(),
        "passes": passes,
        "ops_per_pass": len(pairs),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "correct": not tally.failures,
        "window_s": window_s,
        "import_s": to_s(IMPORT_UNITS),
        "setup_runs_s": [to_s(units) for units, _ in setup_runs],
        "warmup_s": to_s(warmup[0]),
        "compile_s": _percentiles(compile_s),
        "decision_digest": _decision_digest(tally.quality),
        "e2e": _e2e_metrics(tally, compile_s, window_s, setup_s, peak_rss_mb),
        "peak_rss_end_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
        "wall": {
            "window_s": window_wall_s,
            "compile_s.p50": statistics.median(tally.compile_wall_s),
            "throughput_instrs_per_s": tally.completed_instrs / window_wall_s,
            "setup_s": IMPORT_WALL_S
            + statistics.median(w for _, w in setup_runs) + warmup[1],
        },
        "speed": CLOCK.summary(),
        "failures": tally.failures,
    }
    if trace:
        result["layers"] = _layer_metrics(
            rec, tally, passes, window_s, arena_before, arena_after
        )
        result["spans"] = rec.spans
    return result


def _since(start: tuple) -> tuple:
    """(work units, wall seconds) from a ``CLOCK.read()`` until now."""
    units, wall = CLOCK.read()
    return units - start[0], (wall - start[1]) / 1e9


def pass_orders(pairs: list, seed: int):
    """The op order of each pass, shuffled from ``seed``."""
    rng = random.Random(seed)
    while True:
        order = list(pairs)
        rng.shuffle(order)
        yield order


def _percentiles(samples: list) -> dict:
    out = {"n": len(samples), "p50": statistics.median(samples)}
    # A p90 needs at least ten samples beyond it.
    if len(samples) >= 100:
        out["p90"] = statistics.quantiles(samples, n=10)[8]
    return out


def _decision_digest(quality: dict) -> str:
    """sha256 over the printed formed IR of every (program, config) pair,
    in canonical order, so it does not depend on the seed or pass count."""
    digest = hashlib.sha256()
    for key in sorted(quality):
        digest.update(f"{key[0]}/{key[1]}:{quality[key][3]}\n".encode())
    return digest.hexdigest()


def _geomean(values: list) -> Optional[float]:
    if not values:
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _e2e_metrics(tally: Tally, compile_s: list, window_s: float,
                 setup_s: float, peak_rss_mb: float) -> dict:
    # Canonical order, so the float sums and the ratios repeat exactly.
    quality = [tally.quality[key] for key in sorted(tally.quality)]
    return {
        "compile_s.p50": _metric(statistics.median(compile_s), "s"),
        "throughput_instrs_per_s": _metric(
            tally.completed_instrs / window_s, "instr/s"
        ),
        "cycles_ratio": _metric(_geomean([q[1] for q in quality]), "ratio"),
        "dyn_blocks_ratio": _metric(_geomean([q[2] for q in quality]), "ratio"),
        "code_size_ratio": _metric(_geomean([q[0] for q in quality]), "ratio"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "ok_ratio": _metric(
            (tally.attempted - len(tally.failures)) / tally.attempted, "ratio"
        ),
        "setup_s": _metric(setup_s, "s"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(rec: Recorder, tally: Tally, passes: int, window_s: float,
                   arena_before: dict, arena_after: dict) -> dict:
    """Per-layer metrics of a traced run, per pass over the workload."""
    busy = {layer: to_s(rec.busy[layer]) for layer in LAYERS}
    counts = tally.counts
    encodes = arena_after["encodes"] - arena_before["encodes"]
    view_hits = arena_after["view_hits"] - arena_before["view_hits"]
    glue_s = window_s - sum(busy.values())
    merges = counts["core.merges"]
    trials = counts["core.trial_hits"] + counts["core.trial_misses"]
    values = {
        "frontend.busy_s": (busy["frontend"] / passes, "s"),
        "frontend.src_bytes_per_s": (
            _ratio(counts["frontend.src_bytes"], busy["frontend"]), "B/s"),
        "frontend.instrs_out": (counts["frontend.instrs_out"] / passes, "instr"),
        "profiles.busy_s": (busy["profiles"] / passes, "s"),
        "profiles.dyn_blocks_per_s": (
            _ratio(counts["profiles.dyn_blocks"], busy["profiles"]), "blocks/s"),
        "core.busy_s": (busy["core"] / passes, "s"),
        "core.merges_per_s": (_ratio(merges, busy["core"]), "merges/s"),
        "core.merges": (merges / passes, "count"),
        "core.attempts": (counts["core.attempts"] / passes, "count"),
        "core.accept_ratio": (_ratio(merges, counts["core.attempts"]), "ratio"),
        "core.tail_dups": (counts["core.tail_dups"] / passes, "count"),
        "core.unrolls": (counts["core.unrolls"] / passes, "count"),
        "core.peels": (counts["core.peels"] / passes, "count"),
        "core.trial_failures": (counts["core.trial_failures"] / passes, "count"),
        "core.degraded_functions": (
            counts["core.degraded_functions"] / passes, "count"),
        "core.failed_safe_functions": (
            counts["core.failed_safe_functions"] / passes, "count"),
        "core.blocks_out": (counts["core.blocks_out"] / passes, "count"),
        "core.trial_hit_rate": (
            _ratio(counts["core.trial_hits"], trials), "ratio"),
        "ir.arena.encodes": (encodes / passes, "count"),
        "ir.arena.view_hit_ratio": (
            _ratio(view_hits, view_hits + encodes), "ratio"),
        "ir.arena.column_bytes": (arena_after["column_bytes"], "B"),
        "ir.verify.busy_s": (busy["ir.verify"] / passes, "s"),
        "backend.busy_s": (busy["backend"] / passes, "s"),
        "backend.fail_ratio": (
            _ratio(counts["backend.failures"], counts["backend.attempts"]),
            "ratio"),
        "backend.spills": (counts["backend.spills"] / passes, "count"),
        "backend.splits": (counts["backend.splits"] / passes, "count"),
        "backend.fanout_movs": (counts["backend.fanout_movs"] / passes, "count"),
        "backend.instrs_out": (counts["backend.instrs_out"] / passes, "instr"),
        "sim.functional.busy_s": (busy["sim.functional"] / passes, "s"),
        "sim.functional.dyn_instrs_per_s": (
            _ratio(counts["sim.functional.dyn_instrs"], busy["sim.functional"]),
            "instr/s"),
        "sim.timing.busy_s": (busy["sim.timing"] / passes, "s"),
        "sim.timing.dyn_instrs_per_s": (
            _ratio(counts["sim.timing.dyn_instrs"], busy["sim.timing"]),
            "instr/s"),
        "harness.glue_s": (glue_s / passes, "s"),
        "harness.glue_share": (_ratio(glue_s, window_s), "ratio"),
    }
    return {name: _metric(value, unit) for name, (value, unit) in values.items()}


# -- output ------------------------------------------------------------------------


def load_benchmark() -> dict:
    with open(BENCHMARK_PATH) as handle:
        return json.load(handle)


def machine() -> dict:
    from repro.obs.ledger import machine_metadata

    return {
        **machine_metadata(),
        "machine": platform.machine(),
        "ir_backend": arena.backend(),
    }


def chrome_trace(results: list) -> dict:
    """Chrome trace-event JSON of the spans of traced results, one process
    lane per workload."""
    events = []
    for pid, result in enumerate(results, start=1):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 1,
            "args": {"name": result["workload"]},
        })
        spans = result.get("spans", ())
        origin = min((span[4] for span in spans), default=0)
        for op_id, span_id, parent, name, start, end in spans:
            events.append({
                "name": name,
                "cat": "op" if parent is None else "layer",
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": pid,
                "tid": 1,
                "args": {"op": op_id, "span": span_id, "parent": parent},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
