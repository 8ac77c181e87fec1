"""The self-healing fleet driver: containment, respawn, quarantine, resume.

Fleet runs here spawn real daemon worker processes (``spawn`` start
method), so the corpora are kept small and the supervision clocks tight.
The journal tests exercise :class:`RunJournal` in-process — no workers.
"""

from __future__ import annotations

import time

import pytest

from repro.core.convergent import form_module
from repro.harness import fleet as fleet_mod
from repro.harness.cli import run as cli_run
from repro.harness.fleet import (
    AUTO_SERIAL_MAX_BLOCKS,
    BACKOFF_CAP,
    DEFAULT_BACKOFF,
    FleetConfig,
    FleetError,
    RunJournal,
    build_corpus,
    compare_against_serial,
    corpus_config_fingerprint,
    form_many_fleet,
    retry_delay,
    run_fleet_corpus,
    run_fleet_drill,
    serial_corpus_entries,
)
from repro.ir.function import Module
from repro.ir.printer import format_module
from repro.obs.ledger import validate_record
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import MemorySink
from repro.obs.trace import Tracer, tracing
from repro.robustness.faultinject import FaultPlane, injected
from repro.robustness.guard import FunctionStatus
from repro.workloads.generators import random_program


def _fast_config(**overrides) -> FleetConfig:
    """Supervision clocks tightened for test wall time."""
    knobs = dict(
        workers=2,
        heartbeat_interval=0.05,
        heartbeat_timeout=2.0,
        poll_interval=0.02,
        retries=1,
        backoff=0.02,
    )
    knobs.update(overrides)
    return FleetConfig(**knobs)


@pytest.fixture(scope="module")
def small_corpus():
    """Three deterministic 10x-tier modules with profiles (built once)."""
    return build_corpus("10x", modules=3, seed=2006)


@pytest.fixture(scope="module")
def serial_reference(small_corpus):
    """The uninterrupted in-process run the fleet must be identical to."""
    return serial_corpus_entries(
        [(name, module.copy(), profile) for name, module, profile in small_corpus]
    )


def _named_modules(count: int) -> list[tuple[Module, None]]:
    items = []
    for index in range(count):
        module = random_program(30 + index)
        module.name = f"mod_{index:03d}"
        items.append((module, None))
    return items


# ---------------------------------------------------------------------------
# happy path: fleet == serial, record validates
# ---------------------------------------------------------------------------


def test_fleet_corpus_is_bit_identical_to_serial(small_corpus, serial_reference):
    result = run_fleet_corpus(small_corpus, config=_fast_config())
    assert result.finished
    assert result.resumed == []
    assert sorted(result.completed) == sorted(result.workloads)
    assert compare_against_serial(result.entries, serial_reference) == []
    record = result.record(label="test")
    validate_record(record)  # raises LedgerError on any schema problem
    assert record["telemetry"]["fleet"]["jobs_ok"] == len(small_corpus)
    assert record["telemetry"]["fleet"]["respawns"] == 0


def test_driver_switch_matches_sequential_formation():
    items = _named_modules(3)
    pristine = [format_module(module) for module, _ in items]
    controls = []
    for module, _ in items:
        control = module.copy()
        form_module(control)
        controls.append(control)
    results = form_many_fleet(items, max_workers=2, backoff=0.01)
    assert len(results) == len(items)
    for control, (formed, report) in zip(controls, results):
        assert report.all_ok
        assert format_module(formed) == format_module(control)
    # The caller's input modules come back untouched.
    for (module, _), before in zip(items, pristine):
        assert format_module(module) == before


def _combo_module(name: str, seeds) -> Module:
    """One module holding a random single-function program per seed,
    its functions renamed ``<name>_0``, ``<name>_1``, ..."""
    module = Module(name)
    for index, seed in enumerate(seeds):
        func = random_program(seed).function("main")
        func.name = f"{name}_{index}"
        module.add_function(func)
    return module


def test_traced_run_merges_one_span_tree_per_function():
    """Each worker's trace fragment lands once in the caller's trace:
    one ``function`` span per function, stamped with its module's task,
    and one ``accept`` per counted merge."""
    items = [
        (_combo_module("a", (3, 5)), None),
        (_combo_module("b", (8, 13)), None),
    ]
    with tracing(Tracer()) as tracer:
        results = form_many_fleet(items, max_workers=2, backoff=0.01)
        trace = tracer.finish()
    spans = trace.named("function")
    assert sorted(span.attrs["function"] for span in spans) == [
        "a_0", "a_1", "b_0", "b_1",
    ]
    for span in spans:
        assert span.attrs["task"] == span.attrs["function"].split("_")[0]
    for _, report in results:
        assert report.all_ok
        for name, freport in report.functions.items():
            accepts = [
                e for e in trace.named("accept")
                if e.attrs.get("function") == name
            ]
            assert len(accepts) == freport.stats.merges


# ---------------------------------------------------------------------------
# auto mode: when the driver forms in-process instead of spawning
# ---------------------------------------------------------------------------


class _Spawned(Exception):
    pass


class _NoFleet:
    def __init__(self, *args, **kwargs):
        raise _Spawned


def test_auto_mode_small_input_never_spawns(monkeypatch):
    """Below the block threshold (or with ``max_workers=1``) the driver
    forms in-process, exactly as ``form_module`` does."""
    monkeypatch.setattr(fleet_mod, "Fleet", _NoFleet)
    items = _named_modules(2)
    blocks = sum(len(f.blocks) for module, _ in items for f in module)
    assert blocks < AUTO_SERIAL_MAX_BLOCKS
    controls = []
    for module, _ in items:
        control = module.copy()
        form_module(control)
        controls.append(format_module(control))
    for max_workers in (None, 1):
        results = form_many_fleet(
            [(module.copy(), profile) for module, profile in items],
            max_workers=max_workers,
        )
        assert [format_module(formed) for formed, _ in results] == controls


def test_auto_mode_large_input_spawns_the_fleet(monkeypatch):
    monkeypatch.setattr(fleet_mod, "Fleet", _NoFleet)
    # Shrink the threshold instead of building a huge corpus: the
    # heuristic's input is the block count, which is what is under test.
    monkeypatch.setattr(fleet_mod, "AUTO_SERIAL_MAX_BLOCKS", 1)
    with pytest.raises(_Spawned):
        form_many_fleet(_named_modules(2))


def test_explicit_workers_bypass_the_threshold(monkeypatch):
    """``max_workers=2`` spawns the fleet even for a tiny input."""
    monkeypatch.setattr(fleet_mod, "Fleet", _NoFleet)
    with pytest.raises(_Spawned):
        form_many_fleet(_named_modules(2), max_workers=2)


# ---------------------------------------------------------------------------
# fault containment: kill respawns + quarantines, stall expires the lease
# ---------------------------------------------------------------------------


def test_worker_kill_is_contained_and_telemetered():
    """A job that kills its worker twice is quarantined; siblings form
    exactly as sequential, and the supervision shows up in trace+metrics."""
    items = _named_modules(3)
    controls = {}
    for module, _ in items:
        control = module.copy()
        form_module(control)
        controls[module.name] = control
    plane = FaultPlane(
        rate=1.0, seed=0, kinds=(), worker_kinds=("kill",),
        functions=frozenset({"mod_001"}),
    )
    registry = MetricsRegistry()
    tracer = Tracer(sinks=(MemorySink(),), metrics=registry)
    with tracing(tracer), injected(plane):
        results = form_many_fleet(items, max_workers=2, backoff=0.01)
    poisoned_module, poisoned_report = results[1]
    assert poisoned_report.failed_safe_functions == list(
        poisoned_module.functions
    )
    failure = poisoned_report.failures[0]
    assert failure.error_type == "WorkerDeath"
    assert failure.fault_kind == "kill"
    # One poison job costs one job: siblings are formed, not degraded.
    for index in (0, 2):
        formed, report = results[index]
        assert report.all_ok
        assert format_module(formed) == format_module(controls[formed.name])

    counts = tracer.finish().event_counts()
    assert counts.get("worker_spawn", 0) >= 3  # 2 boots + >=1 respawn
    assert counts.get("worker_death", 0) >= 2  # killed twice, then quarantine
    assert counts.get("lease_requeue", 0) >= 1
    assert counts.get("job_quarantined", 0) == 1
    snapshot = registry.snapshot()

    def total(name):
        return sum(entry["value"] for entry in snapshot.get(name, ()))

    assert total("fleet_respawns_total") >= 1
    assert total("fleet_quarantined_total") == 1
    assert total("fleet_requeues_total") >= 1


def _raise_plane(module_name: str) -> FaultPlane:
    return FaultPlane(
        rate=1.0, seed=0, kinds=(), worker_kinds=("raise",),
        functions=frozenset({module_name}),
    )


def test_raising_module_fails_safe_while_its_sibling_forms():
    """A job that raises every time comes back as an untouched copy of
    the caller's module, all ``failed_safe``, while its sibling forms
    exactly as sequential formation would."""
    items = _named_modules(2)
    control = items[0][0].copy()
    form_module(control)
    pristine = format_module(items[1][0])
    with injected(_raise_plane("mod_001")):
        results = form_many_fleet(items, max_workers=2, backoff=0.01)
    formed, sibling_report = results[0]
    assert sibling_report.all_ok
    assert format_module(formed) == format_module(control)
    poisoned, report = results[1]
    assert report.failed_safe_functions == list(poisoned.functions)
    for name in poisoned.functions:
        assert report.status_of(name) is FunctionStatus.FAILED_SAFE
    failure = report.failures[0]
    assert failure.stage == "worker"
    assert failure.error_type == "InjectedFault"
    assert failure.fault_kind == "raise"
    # The caller's input module is untouched on the failure path too.
    assert format_module(poisoned) == pristine
    assert format_module(items[1][0]) == pristine


def test_retry_exhaustion_lands_one_failure_with_attempts():
    """A deterministic raise burns the whole retry budget, then lands
    exactly one failure per function recording the attempt count."""
    items = _named_modules(2)
    tracer = Tracer(sinks=(MemorySink(),))
    with tracing(tracer), injected(_raise_plane("mod_001")):
        results = form_many_fleet(items, max_workers=2, retries=2, backoff=0.01)
    poisoned, report = results[1]
    for name in poisoned.functions:
        (failure,) = report.functions[name].failures
        assert failure.attempts == 3  # 1 first try + 2 retries
        assert failure.error_type == "InjectedFault"
    trace = tracer.finish()
    assert len(trace.named("lease_requeue")) == 2
    (failed,) = trace.named("task_failed")
    assert failed.attrs["attempts"] == 3


def test_retry_delay_is_capped_and_deterministic():
    # Huge attempt counts must not sleep for minutes.
    assert retry_delay(0.05, 40, "task_a") <= BACKOFF_CAP
    assert retry_delay(10.0, 0, "task_a") <= BACKOFF_CAP
    # Deterministic per (task, attempt); jittered across tasks/attempts.
    assert retry_delay(0.05, 1, "task_a") == retry_delay(0.05, 1, "task_a")
    delays = {retry_delay(0.05, 1, f"task_{i}") for i in range(8)}
    assert len(delays) > 1  # de-synchronized, not lock-step
    # The jitter factor lives in [0.5, 1.5) of the capped exponential.
    base = min(BACKOFF_CAP, 0.05 * 2)
    delay = retry_delay(0.05, 1, "task_b")
    assert 0.5 * base <= delay < 1.5 * base
    assert DEFAULT_BACKOFF < BACKOFF_CAP


def test_worker_stall_expires_the_lease():
    """A wedged worker (paused heartbeat) is detected by heartbeat age,
    killed, and its lease resolved — the driver never waits out the stall."""
    items = _named_modules(2)
    plane = FaultPlane(
        rate=1.0, seed=0, kinds=(), worker_kinds=("stall",),
        functions=frozenset({"mod_001"}), stall_seconds=20.0,
    )
    config = _fast_config(
        heartbeat_timeout=0.5, retries=0, quarantine_after=1
    )
    registry = MetricsRegistry()
    tracer = Tracer(sinks=(MemorySink(),), metrics=registry)
    start = time.monotonic()
    with tracing(tracer), injected(plane):
        results = form_many_fleet(
            items, max_workers=2, config=config, backoff=0.01
        )
    assert time.monotonic() - start < 15.0  # did not sleep the 20s stall
    _, stalled_report = results[1]
    failure = stalled_report.failures[0]
    assert stalled_report.status_of(
        list(items[1][0].functions)[0]
    ) is FunctionStatus.FAILED_SAFE
    assert failure.error_type == "LeaseExpired"
    assert failure.fault_kind == "stall"
    assert results[0][1].all_ok
    counts = tracer.finish().event_counts()
    assert counts.get("lease_expired", 0) >= 1
    snapshot = registry.snapshot()
    expiries = sum(
        entry["value"]
        for entry in snapshot.get("fleet_lease_expiries_total", ())
    )
    assert expiries >= 1


def test_fleet_drill_kill_containment():
    """The suite-wide drill passes on a corpus where the plane provably
    lands a kill: untouched modules drift-free, touched quarantined."""
    names = [f"10x_{index:03d}" for index in range(4)]
    rate, fault_seed = 0.25, None
    for seed in range(64):
        plane = FaultPlane(rate=rate, seed=seed, kinds=(), worker_kinds=("kill",))
        hits = [name for name in names if plane.worker_fault(name) == "kill"]
        if len(hits) == 1:
            fault_seed = seed
            break
    assert fault_seed is not None, "no seed lands exactly one kill"
    result = run_fleet_drill(
        corpus="10x",
        modules=4,
        workers=2,
        rate=rate,
        fault_seed=fault_seed,
        worker_kinds=("kill",),
    )
    assert result["ok"], result["report"]
    assert list(result["touched"].values()) == ["kill"]
    assert result["stats"]["respawns"] >= 1
    [touched_name] = result["touched"]
    assert result["stats"]["quarantined"] == [touched_name]
    entry = result["entries"][touched_name]
    assert entry["status"] == "failed_safe"
    assert entry["failure"]["fault_kind"] == "kill"


# ---------------------------------------------------------------------------
# the run journal: resume, torn tails, config binding
# ---------------------------------------------------------------------------


def test_killed_driver_resumes_from_journal(
    tmp_path, small_corpus, serial_reference
):
    journal = str(tmp_path / "run.jsonl")
    fingerprint = corpus_config_fingerprint("10x", 3, 2006, None)
    first = run_fleet_corpus(
        small_corpus,
        config=_fast_config(),
        journal_path=journal,
        config_fingerprint=fingerprint,
        stop_after=1,
    )
    assert not first.finished
    assert len(first.completed) == 1
    with pytest.raises(FleetError):
        first.record()  # unfinished runs must not produce a record
    # A driver killed mid-write leaves a torn final line; resume drops it.
    with open(journal, "a") as handle:
        handle.write('{"job": "10x_002", "entry": {"trunca')
    resumed = run_fleet_corpus(
        small_corpus,
        config=_fast_config(),
        journal_path=journal,
        resume=True,
        config_fingerprint=fingerprint,
    )
    assert resumed.finished
    assert resumed.resumed == sorted(first.completed)
    assert sorted(resumed.completed) == sorted(
        set(resumed.workloads) - set(first.completed)
    )
    # The merged record is bit-identical to the uninterrupted serial run.
    assert compare_against_serial(resumed.entries, serial_reference) == []
    validate_record(resumed.record(label="resumed"))


def test_journal_refuses_a_different_corpus(tmp_path, small_corpus):
    journal = str(tmp_path / "run.jsonl")
    run_fleet_corpus(
        small_corpus,
        config=_fast_config(),
        journal_path=journal,
        config_fingerprint="aaaa000011112222",
        stop_after=1,
    )
    with pytest.raises(FleetError, match="differs"):
        run_fleet_corpus(
            small_corpus,
            journal_path=journal,
            resume=True,
            config_fingerprint="bbbb000011112222",
        )


def test_run_journal_torn_tail_is_dropped(tmp_path):
    journal = RunJournal(str(tmp_path / "j.jsonl"))
    journal.create("feedbeef00000000")
    journal.append("job_a", {"status": "ok", "functions": {}})
    with open(journal.path, "a") as handle:
        handle.write('{"job": "job_b", "entry"')  # torn mid-write
    header, done = journal.load()
    assert header["config_fingerprint"] == "feedbeef00000000"
    assert list(done) == ["job_a"]


def test_run_journal_rejects_corruption_before_the_tail(tmp_path):
    journal = RunJournal(str(tmp_path / "j.jsonl"))
    journal.create("feedbeef00000000")
    with open(journal.path, "a") as handle:
        handle.write("not json at all\n")
        handle.write('{"job": "job_a", "entry": {"status": "ok"}}\n')
    with pytest.raises(FleetError):
        journal.load()


def test_resume_without_a_journal_refuses(tmp_path):
    journal = RunJournal(str(tmp_path / "missing.jsonl"))
    with pytest.raises(FleetError):
        journal.resume_or_create("feedbeef00000000", resume=True)


def test_config_fingerprint_binds_faults_not_scheduling():
    base = corpus_config_fingerprint("10x", 3, 2006, None)
    assert base == corpus_config_fingerprint("10x", 3, 2006, None)
    assert base != corpus_config_fingerprint("10x", 4, 2006, None)
    assert base != corpus_config_fingerprint("10x", 3, 2007, None)
    plane = FaultPlane(rate=0.1, seed=2, kinds=(), worker_kinds=("kill",))
    assert base != corpus_config_fingerprint("10x", 3, 2006, plane)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--corpus", "3x"], "fleet: unknown corpus '3x'"),
        (
            ["--modules", "1", "--journal", "{missing}", "--resume"],
            "fleet: cannot resume: journal",
        ),
        (["--workers", "0", "--corpus", "3x"], "--workers must be at least 1"),
    ],
    ids=["corpus", "resume", "workers"],
)
def test_fleet_cli_input_errors_exit_with_one_line(tmp_path, argv, message):
    missing = str(tmp_path / "missing.jsonl")
    argv = ["fleet", *(arg.format(missing=missing) for arg in argv)]
    with pytest.raises(SystemExit) as excinfo:
        cli_run(argv)
    assert str(excinfo.value.code).startswith(message)
