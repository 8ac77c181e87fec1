"""Self-healing formation fleet: persistent workers, leases, respawn.

Formation is embarrassingly parallel at module granularity: it never
looks across function boundaries, and the profile is read-only.  The
fleet is the one parallel driver.  Long-lived daemon worker processes
(:mod:`repro.harness.fleet_worker`; processes, not threads, because
formation is pure CPython bytecode and holds the GIL) are fed from a
lease-based job queue, supervised like a prun-style scheduler (polled
job queue, per-job contexts, bounded parallelism).  One worker dying
hard costs that worker and its lease, never the run:

- every job is **leased** to one worker with a heartbeat channel and an
  optional hard deadline; the supervisor polls worker pipes and worker
  liveness on every tick;
- a worker dying (process exit, broken pipe) or stalling (missed
  heartbeats, expired lease) costs *one worker and one lease*: the
  supervisor respawns only the dead worker and requeues the lease with a
  retry budget and capped, deterministically-jittered backoff
  (:func:`retry_delay`);
- a job that kills its worker twice is **quarantined** — resolved
  ``failed_safe`` like the in-process trial-guard blacklist, so one
  poison function can never starve the corpus;
- completed jobs are journalled to an append-only :class:`RunJournal`
  (per-function decision fingerprints via the PR-5 ledger machinery), so
  a killed *driver* resumes mid-corpus and the merged run record is
  verifiable bit-identical to an uninterrupted serial run.

Supervision decisions are first-class telemetry: ``worker_spawn`` /
``worker_death`` / ``lease_grant`` / ``lease_requeue`` / ``lease_expired``
/ ``job_quarantined`` trace events, and ``fleet_*`` counters/histograms
(respawns, lease expiries, requeues, quarantines, heartbeat age, steal
latency, job seconds) in the active tracer's metrics registry.

Entry points: :func:`form_many_fleet` forms many (module, profile)
pairs and returns them in input order, bit-identical to forming them in
sequence (``selfcheck`` races the two); :func:`run_fleet_corpus` is the
journalled corpus runner behind ``python -m repro.harness fleet``; and
:func:`run_fleet_drill` is the suite-wide kill/stall/raise containment
proof.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Optional, Sequence

from repro.core.convergent import form_module
from repro.core.merge import MergeStats
from repro.harness import fleet_worker
from repro.ir.function import Module
from repro.obs import trace as obs_trace
from repro.obs.ledger import (
    RECORD_SCHEMA_VERSION,
    commit_metadata,
    decision_fingerprints,
    fingerprint_of,
    machine_metadata,
    utc_timestamp,
    validate_record,
)
from repro.obs.replay import attach_stats, log_from_trace
from repro.obs.trace import FormationTrace, Tracer, tracing
from repro.obs.sink import MemorySink
from repro.profiles import collect_profile
from repro.robustness.faultinject import FaultPlane, active_plane, stable_roll
from repro.robustness.guard import (
    FormationReport,
    FunctionReport,
    FunctionStatus,
    TrialFailure,
)

#: Fleet metric names (the ``obs.metrics`` face of the supervisor).
RESPAWNS_METRIC = "fleet_respawns_total"
LEASE_EXPIRIES_METRIC = "fleet_lease_expiries_total"
REQUEUES_METRIC = "fleet_requeues_total"
QUARANTINED_METRIC = "fleet_quarantined_total"
JOBS_METRIC = "fleet_jobs_total"
HEARTBEAT_AGE_METRIC = "fleet_heartbeat_age_seconds"
STEAL_LATENCY_METRIC = "fleet_steal_latency_seconds"
JOB_SECONDS_METRIC = "fleet_job_seconds"

#: Default fleet width when the caller does not pick one: modest, because
#: fleet start-up cost is per *worker* (spawned interpreter), not per run.
DEFAULT_FLEET_WORKERS = min(4, os.cpu_count() or 1)

#: Below this many basic blocks (summed over the input), auto mode
#: (``max_workers=None``) forms in-process: spawning workers costs at
#: least an interpreter start-up each while formation chews through a
#: few thousand blocks per second, so small inputs lose more to pickling
#: and start-up than they gain from parallelism.  An explicit
#: ``max_workers`` >= 2 always spawns.
AUTO_SERIAL_MAX_BLOCKS = 256

#: Default retry budget for a raising job (total attempts =
#: 1 + DEFAULT_RETRIES) and the base of the exponential backoff between
#: attempts.
DEFAULT_RETRIES = 1
DEFAULT_BACKOFF = 0.05

#: Ceiling on any single retry delay.  ``backoff * 2**attempt`` must not
#: grow without bound: a generous retry budget would otherwise turn into
#: minutes of sleeping on a deterministic crash.
BACKOFF_CAP = 2.0


def retry_delay(
    backoff: float,
    attempt: int,
    task_name: str,
    cap: float = BACKOFF_CAP,
) -> float:
    """Capped exponential backoff with deterministic per-task jitter.

    The jitter factor lives in [0.5, 1.5) and is a pure function of
    ``(task_name, attempt)``, so simultaneous retries of *different*
    tasks de-synchronize (they stop hammering a shared resource in lock
    step) while any given run remains exactly reproducible.
    """
    delay = min(cap, backoff * (2 ** attempt))
    jitter = 0.5 + stable_roll(task_name, "retry", attempt)
    return min(cap, delay * jitter)


def _auto_serial(modules, max_workers: Optional[int]) -> bool:
    """True when :func:`form_many_fleet` should form in-process."""
    if max_workers is not None:
        return max_workers == 1
    blocks = sum(len(func.blocks) for module in modules for func in module)
    return blocks < AUTO_SERIAL_MAX_BLOCKS


def _module_failed_safe(
    module: Module, failure: TrialFailure, record_events: bool
) -> FormationReport:
    """Report for a module whose job was written off entirely: every
    function ``failed_safe`` with a copy of the job's failure (attempt
    count included)."""
    report = FormationReport(stats=MergeStats(record_events=record_events))
    for func in module:
        per_func = TrialFailure(
            function=func.name,
            stage=failure.stage,
            error_type=failure.error_type,
            error=failure.error,
            traceback=failure.traceback,
            fault_kind=failure.fault_kind,
            attempts=failure.attempts,
        )
        report.add_function(
            FunctionReport(
                func.name,
                FunctionStatus.FAILED_SAFE,
                MergeStats(record_events=record_events),
                [per_func],
            )
        )
    return report


class FleetError(RuntimeError):
    """The fleet itself failed (spawn storm, journal mismatch, ...) —
    distinct from job failures, which resolve ``failed_safe``."""


@dataclass
class FleetConfig:
    """Supervision knobs for one :class:`Fleet`.

    ``heartbeat_timeout`` is the stall detector: a leased worker whose
    last heartbeat is older than this is presumed wedged, killed, and
    respawned.  ``lease_timeout`` (optional) is a hard per-lease wall
    clock on top — for jobs that keep beating but never finish.
    ``quarantine_after`` is the poison-job threshold: that many fatal
    lease losses (worker death or expiry) resolve the job
    ``failed_safe`` instead of requeueing it a third time.
    """

    workers: int = DEFAULT_FLEET_WORKERS
    heartbeat_interval: float = 0.2
    heartbeat_timeout: float = 5.0
    lease_timeout: Optional[float] = None
    boot_timeout: float = 30.0
    poll_interval: float = 0.05
    retries: int = DEFAULT_RETRIES
    backoff: float = DEFAULT_BACKOFF
    quarantine_after: int = 2


@dataclass
class _Job:
    """One leased unit of work and its recovery bookkeeping."""

    key: object  # caller's result key (corpus name / input index)
    name: str  # task name for traces, jitter, fault targeting
    size: int  # scheduling weight (largest-first)
    payload: tuple  # fleet_worker job payload
    attempts: int = 0  # executions burned (failures + fatal leases)
    fatal: int = 0  # worker-killing lease losses (death/expiry)
    not_before: float = 0.0  # backoff gate (monotonic clock)
    ready_at: float = 0.0  # when the job (re)entered the queue
    last_error: Optional[dict] = None


@dataclass
class _Lease:
    job: _Job
    granted: float
    deadline: Optional[float]


class _WorkerHandle:
    """Supervisor-side state of one live worker process."""

    __slots__ = (
        "worker_id", "process", "conn", "spawned", "ready", "last_beat",
        "lease",
    )

    def __init__(self, worker_id: int, process, conn, now: float):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.spawned = now
        self.ready = False
        self.last_beat = now
        self.lease: Optional[_Lease] = None


class Fleet:
    """A supervised set of persistent formation workers.

    Use as a context manager (``with Fleet(config) as fleet:``) or call
    :meth:`shutdown` explicitly.  :meth:`run` drives a batch of jobs to
    resolution and may be called repeatedly on one fleet — workers
    persist across batches, which is the whole point.
    """

    def __init__(self, config: Optional[FleetConfig] = None):
        self.config = config or FleetConfig()
        if self.config.workers < 1:
            raise FleetError("a fleet needs at least one worker")
        self.tracer = obs_trace.active_tracer()
        self.metrics = self.tracer.metrics if self.tracer is not None else None
        self._ctx = multiprocessing.get_context("spawn")
        self._workers: dict[int, _WorkerHandle] = {}
        self._next_worker_id = 0
        self._shutting_down = False
        # Run-scoped queues/results; reset by run().
        self._pending: deque[_Job] = deque()
        self._parked: list[tuple[float, int, _Job]] = []  # (not_before, seq)
        self._park_seq = 0
        self._results: dict = {}
        self._on_complete: Optional[Callable] = None
        # Lifetime counters (surface via stats() and the run record).
        self.spawns = 0
        self.respawns = 0
        self.requeues = 0
        self.lease_expiries = 0
        self.quarantined: list[str] = []
        self.jobs_ok = 0
        self.jobs_failed = 0

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "Fleet":
        self._ensure_workers()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def _spawn(self, respawn: bool = False) -> _WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=fleet_worker.worker_main,
            args=(child_conn, worker_id, self.config.heartbeat_interval),
            name=f"fleet-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # our copy; the worker holds the real end
        handle = _WorkerHandle(
            worker_id, process, parent_conn, time.monotonic()
        )
        self._workers[worker_id] = handle
        self.spawns += 1
        if respawn:
            self.respawns += 1
        if self.tracer is not None:
            self.tracer.event(
                "worker_spawn",
                worker=worker_id,
                pid=process.pid,
                respawn=respawn,
            )
        if self.metrics is not None and respawn:
            self.metrics.inc(RESPAWNS_METRIC)
        return handle

    def _ensure_workers(self) -> None:
        while len(self._workers) < self.config.workers:
            self._spawn(respawn=False)

    def shutdown(self) -> None:
        """Stop every worker: polite shutdown message, then the axe."""
        self._shutting_down = True
        for handle in self._workers.values():
            try:
                handle.conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
        for handle in self._workers.values():
            handle.process.join(timeout=1.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self._workers.clear()

    def stats(self) -> dict:
        """Supervision counters for reports and run records."""
        return {
            "workers": self.config.workers,
            "spawns": self.spawns,
            "respawns": self.respawns,
            "requeues": self.requeues,
            "lease_expiries": self.lease_expiries,
            "quarantined": sorted(self.quarantined),
            "jobs_ok": self.jobs_ok,
            "jobs_failed": self.jobs_failed,
        }

    # -- the event loop --------------------------------------------------

    def run(
        self,
        jobs: Sequence[_Job],
        on_complete: Optional[Callable] = None,
        stop_after: Optional[int] = None,
    ) -> dict:
        """Drive ``jobs`` to resolution; returns ``{key: (status, value)}``.

        ``status`` is ``"ok"`` (value = the worker's ``(formed, report,
        fragment)`` tuple) or ``"failed"`` (value = a
        :class:`TrialFailure`).  ``on_complete(key, status, value)`` fires
        at each resolution — the journal hook.  ``stop_after`` abandons
        the run after that many *new* resolutions (the CI resume smoke's
        stand-in for a killed driver); unresolved jobs simply do not
        appear in the result.
        """
        self._ensure_workers()
        self._results = {}
        self._on_complete = on_complete
        self._pending = deque(
            sorted(jobs, key=lambda job: (-job.size, job.name))
        )
        now = time.monotonic()
        for job in self._pending:
            job.ready_at = now
        self._parked = []
        total = len(jobs)
        # Termination backstop: every respawn is attributable to a fatal
        # lease (bounded by quarantine_after per job) or a boot failure;
        # a budget far above that can only mean workers die on arrival.
        respawn_budget = (
            self.respawns + self.config.quarantine_after * total
            + 2 * self.config.workers + 4
        )
        while len(self._results) < total:
            if stop_after is not None and len(self._results) >= stop_after:
                break
            if self.respawns > respawn_budget:
                raise FleetError(
                    f"respawn storm: {self.respawns} respawns for {total} "
                    "jobs — workers appear to die on boot"
                )
            now = time.monotonic()
            self._unpark(now)
            self._assign(now)
            self._poll(now)
            self._check_health(time.monotonic())
        return self._results

    # -- queue plumbing --------------------------------------------------

    def _unpark(self, now: float) -> None:
        while self._parked and self._parked[0][0] <= now:
            _, _, job = heapq.heappop(self._parked)
            job.ready_at = now
            self._pending.append(job)

    def _park(self, job: _Job, delay: float, now: float) -> None:
        job.not_before = now + delay
        self._park_seq += 1
        heapq.heappush(self._parked, (job.not_before, self._park_seq, job))

    def _assign(self, now: float) -> None:
        for handle in self._workers.values():
            if not self._pending:
                return
            if not handle.ready or handle.lease is not None:
                continue
            job = self._pending.popleft()
            deadline = (
                now + self.config.lease_timeout
                if self.config.lease_timeout is not None
                else None
            )
            try:
                handle.conn.send(("job", job.key, job.payload))
            except (BrokenPipeError, OSError):
                # Worker died between polls; health check will respawn it.
                self._pending.appendleft(job)
                continue
            handle.lease = _Lease(job, now, deadline)
            handle.last_beat = now  # the clock starts at grant
            if self.tracer is not None:
                self.tracer.event(
                    "lease_grant",
                    task=job.name,
                    worker=handle.worker_id,
                    attempt=job.attempts + 1,
                )
            if self.metrics is not None:
                self.metrics.observe(
                    STEAL_LATENCY_METRIC, now - job.ready_at
                )

    # -- message handling ------------------------------------------------

    def _poll(self, now: float) -> None:
        conns = {
            handle.conn: handle for handle in self._workers.values()
        }
        if not conns:
            return
        try:
            ready = mp_connection.wait(
                list(conns), timeout=self.config.poll_interval
            )
        except OSError:
            ready = []
        for conn in ready:
            handle = conns[conn]
            if handle.worker_id not in self._workers:
                continue  # already declared dead while draining a sibling
            self._drain(handle)

    def _drain(self, handle: _WorkerHandle) -> None:
        while True:
            try:
                if not handle.conn.poll():
                    return
                message = handle.conn.recv()
            except (EOFError, OSError):
                self._on_death(handle, cause="pipe_closed")
                return
            now = time.monotonic()
            tag = message[0]
            if tag == "ready":
                handle.ready = True
                handle.last_beat = now
            elif tag == "heartbeat":
                if self.metrics is not None:
                    self.metrics.observe(
                        HEARTBEAT_AGE_METRIC, now - handle.last_beat
                    )
                handle.last_beat = now
            elif tag == "done":
                handle.last_beat = now
                self._on_done(handle, message[1], message[2], now)
            elif tag == "failed":
                handle.last_beat = now
                self._on_failed(handle, message[1], message[2], now)

    def _release(self, handle: _WorkerHandle, job_id) -> Optional[_Job]:
        lease = handle.lease
        if lease is None or lease.job.key != job_id:
            return None  # stale message (job was already re-leased)
        handle.lease = None
        return lease.job

    def _on_done(self, handle: _WorkerHandle, job_id, result, now) -> None:
        granted = handle.lease.granted if handle.lease is not None else now
        job = self._release(handle, job_id)
        if job is None or job.key in self._results:
            return
        if self.metrics is not None:
            self.metrics.observe(JOB_SECONDS_METRIC, now - granted)
            self.metrics.inc(JOBS_METRIC, outcome="ok")
        self._resolve(job, "ok", result)

    def _on_failed(self, handle: _WorkerHandle, job_id, info, now) -> None:
        """The job raised inside a healthy worker (the ``raise`` path)."""
        job = self._release(handle, job_id)
        if job is None or job.key in self._results:
            return
        job.attempts += 1
        job.last_error = {
            key: info.get(key)
            for key in ("error_type", "error", "traceback", "fault_kind")
        }
        if job.attempts > self.config.retries:
            self._fail(job, self._failure_from_info(job))
            if self.tracer is not None:
                self.tracer.event(
                    "task_failed",
                    task=job.name,
                    attempts=job.attempts,
                    error_type=job.last_error["error_type"],
                )
            return
        self._requeue(job, cause="error", now=now)

    # -- failure / recovery ----------------------------------------------

    def _failure_from_info(self, job: _Job) -> TrialFailure:
        info = job.last_error or {}
        return TrialFailure(
            function=job.name,
            stage="worker",
            error_type=info.get("error_type", "WorkerFailure"),
            error=info.get("error", "fleet job failed"),
            traceback=info.get("traceback", ""),
            fault_kind=info.get("fault_kind"),
            attempts=max(1, job.attempts),
        )

    def _fatal_failure(self, job: _Job, cause: str, quarantined: bool) -> TrialFailure:
        error_type = "LeaseExpired" if cause in ("stall", "deadline") else "WorkerDeath"
        detail = "quarantined as a poison job" if quarantined else "written off"
        # The fault plane is a pure decider, so the supervisor can name
        # the fault that (deterministically) took the worker down even
        # though the worker never got to report it.
        plane = job.payload[3]
        fault_kind = plane.worker_fault(job.name) if plane is not None else None
        return TrialFailure(
            function=job.name,
            stage="worker",
            error_type=error_type,
            error=(
                f"fleet lease lost ({cause}) {job.fatal} time(s); {detail}"
            ),
            fault_kind=fault_kind,
            attempts=max(1, job.attempts),
        )

    def _requeue(self, job: _Job, cause: str, now: float) -> None:
        delay = retry_delay(
            self.config.backoff, max(0, job.attempts - 1), job.name
        )
        self.requeues += 1
        if self.tracer is not None:
            self.tracer.event(
                "lease_requeue",
                task=job.name,
                attempt=job.attempts,
                cause=cause,
                delay=round(delay, 4),
            )
        if self.metrics is not None:
            self.metrics.inc(REQUEUES_METRIC)
        self._park(job, delay, now)

    def _fail(self, job: _Job, failure: TrialFailure) -> None:
        self.jobs_failed += 1
        if self.metrics is not None:
            self.metrics.inc(JOBS_METRIC, outcome="failed")
        self._resolve(job, "failed", failure)

    def _resolve(self, job: _Job, status: str, value) -> None:
        self._results[job.key] = (status, value)
        if status == "ok":
            self.jobs_ok += 1
        if self._on_complete is not None:
            self._on_complete(job.key, status, value)

    def _on_death(self, handle: _WorkerHandle, cause: str) -> None:
        """A worker is gone: bury it, triage its lease, respawn *one*."""
        self._workers.pop(handle.worker_id, None)
        try:
            handle.conn.close()
        except OSError:
            pass
        exitcode = handle.process.exitcode
        lease = handle.lease
        if self.tracer is not None:
            self.tracer.event(
                "worker_death",
                worker=handle.worker_id,
                cause=cause,
                exitcode=exitcode,
                task=lease.job.name if lease is not None else None,
            )
        if lease is not None and lease.job.key not in self._results:
            job = lease.job
            job.attempts += 1
            job.fatal += 1
            if job.fatal >= self.config.quarantine_after:
                self.quarantined.append(job.name)
                if self.tracer is not None:
                    self.tracer.event(
                        "job_quarantined",
                        task=job.name,
                        fatal=job.fatal,
                        cause=cause,
                    )
                if self.metrics is not None:
                    self.metrics.inc(QUARANTINED_METRIC)
                self._fail(
                    job, self._fatal_failure(job, cause, quarantined=True)
                )
            else:
                self._requeue(job, cause=cause, now=time.monotonic())
        if not self._shutting_down:
            unresolved = (
                len(self._pending) + len(self._parked)
                + sum(
                    1 for w in self._workers.values() if w.lease is not None
                )
            )
            if unresolved:
                self._spawn(respawn=True)

    def _expire(self, handle: _WorkerHandle, cause: str) -> None:
        """A leased worker went quiet: kill it and run the death path."""
        self.lease_expiries += 1
        if self.tracer is not None:
            lease = handle.lease
            self.tracer.event(
                "lease_expired",
                worker=handle.worker_id,
                cause=cause,
                task=lease.job.name if lease is not None else None,
            )
        if self.metrics is not None:
            self.metrics.inc(LEASE_EXPIRIES_METRIC)
        handle.process.kill()
        handle.process.join(timeout=1.0)
        self._on_death(handle, cause=cause)

    def _check_health(self, now: float) -> None:
        for handle in list(self._workers.values()):
            if handle.worker_id not in self._workers:
                continue
            if not handle.process.is_alive():
                # Drain any final messages (a result may have raced the
                # exit) before declaring death.
                self._drain(handle)
                if handle.worker_id in self._workers:
                    self._on_death(handle, cause="exit")
                continue
            if (
                not handle.ready
                and now - handle.spawned > self.config.boot_timeout
            ):
                self._expire(handle, cause="boot_timeout")
                continue
            lease = handle.lease
            if lease is None:
                continue
            if now - handle.last_beat > self.config.heartbeat_timeout:
                self._expire(handle, cause="stall")
            elif lease.deadline is not None and now > lease.deadline:
                self._expire(handle, cause="deadline")


# ---------------------------------------------------------------------------
# The parallel driver
# ---------------------------------------------------------------------------


def form_many_fleet(
    items: Sequence[tuple],
    max_workers: Optional[int] = None,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    config: Optional[FleetConfig] = None,
    **form_kwargs,
) -> list[tuple[Module, FormationReport]]:
    """Form many (module, profile) pairs on a persistent worker fleet.

    This is the shape benchmark suites have — many small modules.
    Returns ``(formed module, report)`` pairs in input order, identical
    to :func:`~repro.core.convergent.form_module` on each pair in turn.
    ``form_kwargs`` are forwarded to ``form_module`` and must be
    picklable.  On the fleet the returned modules are the formed copies
    the workers ship back, and the caller's input modules are left
    untouched; formed in-process (below), the inputs are formed in place
    and returned.

    A module job that fails (raises after ``retries`` retries, or loses
    its lease too often — worker death, missed heartbeats, or the
    ``config`` lease timeout exceeded) returns a copy of the caller's
    module with an all-``failed_safe`` report.  A worker death respawns
    one worker and requeues one lease.

    Forms in-process, without spawning, when there is at most one module,
    when ``max_workers == 1``, or — in auto mode (``max_workers=None``) —
    when the input has fewer than ``AUTO_SERIAL_MAX_BLOCKS`` basic blocks.
    """
    record_events = form_kwargs.get("record_events", True)
    if len(items) <= 1 or _auto_serial(
        (module for module, _ in items), max_workers
    ):
        out = []
        for module, profile in items:
            report = form_module(module, profile=profile, **form_kwargs)
            out.append((module, report))
        return out

    if config is None:
        config = FleetConfig(
            workers=max_workers or DEFAULT_FLEET_WORKERS,
            retries=retries,
            backoff=backoff,
        )
    plane = active_plane()
    tracer = obs_trace.active_tracer()
    trace_on = tracer is not None
    jobs = [
        _Job(
            key=index,
            name=module.name,
            size=module.size(),
            payload=(module, profile, form_kwargs, plane, trace_on),
        )
        for index, (module, profile) in enumerate(items)
    ]
    with Fleet(config) as fleet:
        results = fleet.run(jobs)

    out: list[tuple[Module, FormationReport]] = []
    for index, (module, _profile) in enumerate(items):
        status, value = results[index]
        if status == "failed":
            copy = module.copy()
            out.append((copy, _module_failed_safe(copy, value, record_events)))
        else:
            formed, report, fragment = value
            if tracer is not None and fragment:
                tracer.absorb(fragment, task=formed.name)
            out.append((formed, report))
    return out


# ---------------------------------------------------------------------------
# The run journal (resume machinery)
# ---------------------------------------------------------------------------

JOURNAL_VERSION = 1


class RunJournal:
    """Append-only JSONL journal of completed fleet jobs.

    Line 1 is a header binding the journal to a *corpus configuration
    fingerprint*; each further line is one completed job's durable entry
    (per-function decision fingerprints, counters, composition — the
    exact shape a ledger run record wants).  Appends are flushed and
    fsynced line-at-a-time, so a killed driver leaves at worst one torn
    tail line, which :meth:`load` drops (that job simply re-runs on
    resume).
    """

    def __init__(self, path: str):
        self.path = path

    def load(self) -> tuple[Optional[dict], dict[str, dict]]:
        """``(header, {job: entry})``; ``(None, {})`` for no/empty file."""
        try:
            with open(self.path) as handle:
                lines = handle.readlines()
        except OSError:
            return None, {}
        header = None
        entries: dict[str, dict] = {}
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                if index == len(lines) - 1:
                    continue  # torn tail from a killed driver: re-run it
                raise FleetError(
                    f"journal {self.path!r} line {index + 1} is corrupt "
                    "(not valid JSON and not the final line)"
                )
            if index == 0:
                if record.get("journal") != "fleet":
                    raise FleetError(
                        f"{self.path!r} is not a fleet journal"
                    )
                header = record
            else:
                entries[record["job"]] = record["entry"]
        return header, entries

    def create(self, config_fingerprint: str) -> None:
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "w") as handle:
            json.dump(
                {
                    "journal": "fleet",
                    "version": JOURNAL_VERSION,
                    "config_fingerprint": config_fingerprint,
                    "created": utc_timestamp(),
                },
                handle,
                sort_keys=True,
            )
            handle.write("\n")

    def resume_or_create(
        self, config_fingerprint: str, resume: bool
    ) -> dict[str, dict]:
        """Completed entries to skip (resume) — or a fresh journal."""
        header, entries = self.load()
        if resume:
            if header is None:
                raise FleetError(
                    f"cannot resume: journal {self.path!r} is missing or "
                    "empty (run without --resume first)"
                )
            if header.get("config_fingerprint") != config_fingerprint:
                raise FleetError(
                    f"cannot resume from {self.path!r}: its corpus "
                    "configuration differs from this run's "
                    f"({header.get('config_fingerprint')} != "
                    f"{config_fingerprint})"
                )
            return entries
        self.create(config_fingerprint)
        return {}

    def append(self, job_key: str, entry: dict) -> None:
        with open(self.path, "a") as handle:
            json.dump({"job": job_key, "entry": entry}, handle, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())


# ---------------------------------------------------------------------------
# Corpus runs: durable entries, records, resume verification
# ---------------------------------------------------------------------------

#: Fingerprint of a function that made no decisions (or never formed).
_EMPTY_FINGERPRINT = fingerprint_of(())


def _composition(func) -> dict:
    sizes = [len(block) for block in func.blocks.values()]
    return {
        "blocks": len(sizes),
        "instrs": sum(sizes),
        "max_block": max(sizes, default=0),
    }


def _phase_totals(trace: FormationTrace) -> dict[str, float]:
    from repro.harness.tracecmd import phase_table

    totals: dict[str, float] = {}
    for row in phase_table(trace).values():
        for phase, dur in row.items():
            totals[phase] = totals.get(phase, 0.0) + dur
    return {phase: round(totals[phase], 6) for phase in sorted(totals)}


def job_entry_ok(name: str, module: Module, report, fragment) -> dict:
    """The durable journal entry of one successfully formed module job."""
    trace = FormationTrace(list(fragment or ()))
    fingerprints = decision_fingerprints(trace, prefix=f"{name}:")
    functions: dict[str, dict] = {}
    log_stats: dict[str, dict] = {}
    for func in module:
        key = f"{name}:{func.name}"
        freport = report.functions[func.name]
        bucket = fingerprints.get(
            key, {"decisions": [], "fingerprint": _EMPTY_FINGERPRINT}
        )
        entry = {
            "fingerprint": bucket["fingerprint"],
            "decisions": bucket["decisions"],
            "merges": freport.stats.merges,
            "mtup": list(freport.stats.mtup),
            "attempts": freport.stats.attempts,
            "status": freport.status.value,
        }
        entry.update(_composition(func))
        functions[key] = entry
        stats = {
            "attempts": freport.stats.attempts,
            "stats_fingerprint": freport.stats.decision_fingerprint(),
            "status": freport.status.value,
        }
        if freport.status.value == "ok":
            stats["merges"] = freport.stats.merges
            stats["mtup"] = list(freport.stats.mtup)
        log_stats[key] = stats
    return {
        "status": "ok",
        "functions": functions,
        "merges": report.stats.merges,
        "mtup": list(report.stats.mtup),
        "attempts": report.stats.attempts,
        "phase_time_s": _phase_totals(trace),
        "events": len(trace),
        "event_counts": trace.event_counts(),
        # The flight-recorder projection of the same worker fragment:
        # decision logs ship back with task results exactly like trace
        # fragments, so a finished corpus run is replayable/bisectable.
        "decision_log": attach_stats(
            log_from_trace(trace, prefix=f"{name}:"), log_stats
        ),
    }


def job_entry_failed(name: str, module: Module, failure: TrialFailure) -> dict:
    """The durable entry of a written-off job: every function kept its
    pre-formation CFG (``failed_safe``), decisions empty by definition."""
    functions: dict[str, dict] = {}
    for func in module:
        entry = {
            "fingerprint": _EMPTY_FINGERPRINT,
            "decisions": [],
            "merges": 0,
            "mtup": [0, 0, 0, 0],
            "attempts": 0,
            "status": "failed_safe",
        }
        entry.update(_composition(func))
        functions[f"{name}:{func.name}"] = entry
    return {
        "status": "failed_safe",
        "functions": functions,
        "merges": 0,
        "mtup": [0, 0, 0, 0],
        "attempts": 0,
        "phase_time_s": {},
        "events": 0,
        "event_counts": {},
        # Written-off jobs keep their pre-formation CFG, so the recorded
        # stream is empty per function — a bisect against a clean run
        # then points at the first decision the failed run never made.
        "decision_log": {
            f"{name}:{func.name}": {
                "records": [],
                "fingerprint": _EMPTY_FINGERPRINT,
                "status": "failed_safe",
            }
            for func in module
        },
        "failure": {
            "error_type": failure.error_type,
            "error": failure.error,
            "fault_kind": failure.fault_kind,
            "attempts": failure.attempts,
        },
    }


def corpus_record(
    entries: dict[str, dict],
    workloads: Sequence[str],
    kind: str = "fleet",
    label: Optional[str] = None,
    fleet_stats: Optional[dict] = None,
) -> dict:
    """Assemble (and validate) a schema-versioned ledger run record from
    journal entries — the merged record a resumed run is gated on."""
    functions: dict[str, dict] = {}
    phase_totals: dict[str, float] = {}
    event_counts: dict[str, int] = {}
    merges = 0
    attempts = 0
    total_events = 0
    mtup = [0, 0, 0, 0]
    for name in workloads:
        entry = entries[name]
        functions.update(entry["functions"])
        merges += entry["merges"]
        attempts += entry["attempts"]
        mtup = [a + b for a, b in zip(mtup, entry["mtup"])]
        total_events += entry.get("events", 0)
        for phase, dur in entry.get("phase_time_s", {}).items():
            phase_totals[phase] = phase_totals.get(phase, 0.0) + dur
        for event_name, count in entry.get("event_counts", {}).items():
            event_counts[event_name] = (
                event_counts.get(event_name, 0) + count
            )
    record = {
        "schema_version": RECORD_SCHEMA_VERSION,
        "kind": kind,
        "label": label,
        "timestamp": utc_timestamp(),
        "machine": machine_metadata(),
        "commit": commit_metadata(),
        "workloads": list(workloads),
        "merges": merges,
        "mtup": mtup,
        "attempts": attempts,
        "functions": functions,
        "phase_time_s": {
            phase: round(dur, 6)
            for phase, dur in sorted(phase_totals.items())
        },
        "telemetry": {
            "events": total_events,
            "event_counts": event_counts,
            "fleet": fleet_stats or {},
        },
    }
    validate_record(record)
    return record


# -- corpus construction -----------------------------------------------------


def corpus_config_fingerprint(
    corpus: str, modules: int, seed: int, plane: Optional[FaultPlane]
) -> str:
    """Content address of a corpus run's *decision-relevant* inputs.

    Worker count, timeouts and journal paths are deliberately excluded:
    they change scheduling, never decisions, and a resume is allowed to
    use a different fleet width.  The fault plane is included — faults
    change outcomes.
    """
    spec = {
        "corpus": corpus,
        "modules": modules,
        "seed": seed,
        "plane": None
        if plane is None
        else {
            "rate": plane.rate,
            "seed": plane.seed,
            "kinds": list(plane.kinds),
            "worker_kinds": list(plane.worker_kinds),
            "stall_seconds": plane.stall_seconds,
        },
    }
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_corpus(
    corpus: str = "10x", modules: int = 12, seed: int = 2006
) -> list[tuple[str, Module, object]]:
    """``(name, module, profile)`` triples for a corpus specifier.

    ``corpus`` is a scaling tier (``10x``/``50x``/``200x`` — ``modules``
    deterministic synthetic programs of that size, seeds ``seed+i``) or
    ``"spec"`` (the 19 SPEC workloads).  Deterministic end to end, so a
    resumed driver rebuilds the identical corpus.
    """
    from repro.workloads.generators import (
        SCALING_TIERS,
        random_inputs,
        scaled_program,
    )
    from repro.workloads.spec import SPEC_BENCHMARKS, SPEC_ORDER

    out = []
    if corpus == "spec":
        for name in SPEC_ORDER:
            workload = SPEC_BENCHMARKS[name]
            module = workload.module()
            module.name = name
            profile = collect_profile(
                module, args=workload.args, preload=workload.preload
            )
            out.append((name, module, profile))
        return out
    tiers = dict(SCALING_TIERS)
    if corpus not in tiers:
        raise FleetError(
            f"unknown corpus {corpus!r}; want 'spec' or a scaling tier "
            f"({', '.join(label for label, _ in SCALING_TIERS)})"
        )
    target = tiers[corpus]
    for index in range(modules):
        module = scaled_program(target, seed + index)
        module.name = f"{corpus}_{index:03d}"
        profile = collect_profile(module, args=random_inputs(seed + index))
        out.append((module.name, module, profile))
    return out


@dataclass
class CorpusRunResult:
    """Outcome of one (possibly resumed, possibly truncated) corpus run."""

    entries: dict[str, dict]
    workloads: list[str]
    resumed: list[str] = field(default_factory=list)
    completed: list[str] = field(default_factory=list)
    unfinished: list[str] = field(default_factory=list)
    fleet_stats: dict = field(default_factory=dict)
    journal_path: Optional[str] = None

    @property
    def finished(self) -> bool:
        return not self.unfinished

    def record(self, kind: str = "fleet", label: Optional[str] = None) -> dict:
        if not self.finished:
            raise FleetError(
                "cannot build a run record from an unfinished corpus run "
                f"({len(self.unfinished)} job(s) outstanding; resume first)"
            )
        return corpus_record(
            self.entries, self.workloads, kind=kind, label=label,
            fleet_stats=self.fleet_stats,
        )

    def decision_log_functions(self) -> Optional[dict]:
        """The merged per-function flight-recorder logs of this run.

        ``None`` when any entry predates the recorder (a resumed journal
        written by an older version): a partial log would bisect as
        spurious missing-function divergences, so completeness is
        all-or-nothing.
        """
        merged: dict[str, dict] = {}
        for name in self.workloads:
            entry = self.entries.get(name)
            if entry is None or "decision_log" not in entry:
                return None
            merged.update(entry["decision_log"])
        return merged


def run_fleet_corpus(
    corpus_items: Sequence[tuple[str, Module, object]],
    config: Optional[FleetConfig] = None,
    plane: Optional[FaultPlane] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    config_fingerprint: str = "",
    stop_after: Optional[int] = None,
    **form_kwargs,
) -> CorpusRunResult:
    """Form a corpus on the fleet, journalling every completed job.

    Jobs run traced in the workers (decision fingerprints are the
    journal's payload) with ``record_events=False`` (the counters, not
    the event list, are what the durable entry keeps).  With a
    ``journal_path``, completed jobs are appended as they land and —
    with ``resume=True`` — journalled jobs from a previous (killed)
    driver are skipped, not re-formed.
    """
    form_kwargs.setdefault("record_events", False)
    journal = RunJournal(journal_path) if journal_path else None
    done: dict[str, dict] = {}
    if journal is not None:
        done = journal.resume_or_create(config_fingerprint, resume=resume)
    by_name = {name: module for name, module, _ in corpus_items}
    todo = [
        (name, module, profile)
        for name, module, profile in corpus_items
        if name not in done
    ]
    jobs = [
        _Job(
            key=name,
            name=name,
            size=module.size(),
            payload=(module, profile, dict(form_kwargs), plane, True),
        )
        for name, module, profile in todo
    ]

    entries: dict[str, dict] = dict(done)
    completed: list[str] = []

    def on_complete(key, status, value):
        if status == "ok":
            formed, report, fragment = value
            entry = job_entry_ok(key, formed, report, fragment)
        else:
            entry = job_entry_failed(key, by_name[key], value)
        entries[key] = entry
        completed.append(key)
        if journal is not None:
            journal.append(key, entry)

    fleet_stats: dict = {}
    if jobs:
        with Fleet(config) as fleet:
            fleet.run(jobs, on_complete=on_complete, stop_after=stop_after)
            fleet_stats = fleet.stats()

    workloads = [name for name, _, _ in corpus_items]
    return CorpusRunResult(
        entries=entries,
        workloads=workloads,
        resumed=sorted(done),
        completed=completed,
        unfinished=[name for name in workloads if name not in entries],
        fleet_stats=fleet_stats,
        journal_path=journal_path,
    )


def serial_corpus_entries(
    corpus_items: Sequence[tuple[str, Module, object]], **form_kwargs
) -> dict[str, dict]:
    """The uninterrupted in-process reference run: identical entry shape,
    formed one module at a time under a private tracer."""
    form_kwargs.setdefault("record_events", False)
    entries: dict[str, dict] = {}
    for name, module, profile in corpus_items:
        tracer = Tracer(sinks=(MemorySink(),))
        with tracing(tracer):
            report = form_module(module, profile=profile, **form_kwargs)
        trace = tracer.finish()
        entries[name] = job_entry_ok(name, module, report, trace.events)
    return entries


def compare_against_serial(
    entries: dict[str, dict],
    serial: dict[str, dict],
    skip: Sequence[str] = (),
) -> list[str]:
    """Fingerprint-level divergences between a fleet run and the serial
    reference, as human-readable strings (empty == bit-identical).

    ``skip`` names jobs exempt from comparison (fault-touched modules in
    a drill: their outcome is *supposed* to differ from a clean run).
    """
    problems: list[str] = []
    skipset = set(skip)
    for name, serial_entry in serial.items():
        if name in skipset:
            continue
        entry = entries.get(name)
        if entry is None:
            problems.append(f"{name}: missing from the fleet run")
            continue
        for key, serial_func in serial_entry["functions"].items():
            func = entry["functions"].get(key)
            if func is None:
                problems.append(f"{key}: function missing from fleet entry")
            elif func["fingerprint"] != serial_func["fingerprint"]:
                problems.append(
                    f"{key}: decision fingerprint {func['fingerprint']} != "
                    f"serial {serial_func['fingerprint']}"
                )
            elif func["status"] != serial_func["status"]:
                problems.append(
                    f"{key}: status {func['status']} != "
                    f"serial {serial_func['status']}"
                )
    return problems


# ---------------------------------------------------------------------------
# The suite-wide fleet drill
# ---------------------------------------------------------------------------


def run_fleet_drill(
    corpus: str = "10x",
    modules: int = 12,
    seed: int = 2006,
    workers: int = 4,
    rate: float = 0.1,
    # The default seed is picked so the 10%-rate plane actually lands both
    # fatal kinds on the default 12-module corpus (one kill, one stall) —
    # a drill whose plane touches nothing proves nothing.
    fault_seed: int = 2,
    worker_kinds: tuple = ("raise", "stall", "kill"),
    stall_seconds: float = 3.0,
    config: Optional[FleetConfig] = None,
) -> dict:
    """Kill/stall/raise containment proof for the fleet driver.

    Forms the corpus twice — once in-process (the clean reference), once
    on the fleet under a seeded worker-fault plane — and checks:

    - every module the plane did **not** touch formed ``ok`` with
      decision fingerprints byte-identical to the serial reference (no
      blanket degradation: one poison job costs one job);
    - every touched module failed *safe* (quarantined or retried out),
      never half-formed;
    - worker deaths actually healed: respawns > 0 whenever a
      ``kill``/``stall`` fault fired.
    """
    corpus_items = build_corpus(corpus, modules, seed)
    serial = serial_corpus_entries(
        [(name, module.copy(), profile) for name, module, profile in corpus_items]
    )

    plane = FaultPlane(
        rate=rate,
        seed=fault_seed,
        kinds=(),
        worker_kinds=tuple(worker_kinds),
        stall_seconds=stall_seconds,
    )
    # The plane is a pure decider, so the drill knows its blast radius
    # up front — which modules *will* be hit, and how.
    touched = {
        name: plane.worker_fault(name)
        for name, _, _ in corpus_items
        if plane.worker_fault(name) is not None
    }
    if config is None:
        config = FleetConfig(
            workers=workers,
            heartbeat_interval=0.1,
            heartbeat_timeout=1.0,
            retries=1,
            backoff=0.02,
        )
    result = run_fleet_corpus(corpus_items, config=config, plane=plane)

    fatal_kinds = {"kill", "stall"}
    expect_respawns = any(kind in fatal_kinds for kind in touched.values())
    stats = result.fleet_stats
    escaped = [
        name
        for name in touched
        if any(
            func["status"] == "ok"
            for func in result.entries[name]["functions"].values()
        )
    ]
    drift = compare_against_serial(
        result.entries, serial, skip=tuple(touched)
    )
    problems: list[str] = list(drift)
    for name in escaped:
        problems.append(
            f"{name}: fault-touched module has ok functions (escaped)"
        )
    if expect_respawns and stats.get("respawns", 0) == 0:
        problems.append(
            "kill/stall faults fired but the fleet never respawned a worker"
        )
    if rate > 0 and worker_kinds and not touched:
        problems.append(
            "the fault plane touched no module: this drill exercised "
            "nothing (pick a different fault seed/rate)"
        )
    if not result.finished:
        problems.append(f"unfinished jobs: {', '.join(result.unfinished)}")

    ok = not problems
    report_lines = [
        f"fleet drill: corpus={corpus} modules={len(result.workloads)} "
        f"workers={config.workers} rate={rate} seed={fault_seed} "
        f"kinds={'/'.join(worker_kinds)}",
        f"  touched: {len(touched)} "
        + (
            "("
            + ", ".join(f"{n}:{k}" for n, k in sorted(touched.items()))
            + ")"
            if touched
            else ""
        ),
        f"  respawns: {stats.get('respawns', 0)}, "
        f"requeues: {stats.get('requeues', 0)}, "
        f"lease expiries: {stats.get('lease_expiries', 0)}, "
        f"quarantined: {len(stats.get('quarantined', ()))}",
        f"  jobs: {stats.get('jobs_ok', 0)} ok, "
        f"{stats.get('jobs_failed', 0)} failed_safe",
        f"  decision drift vs serial (untouched modules): {len(drift)}",
    ]
    for problem in problems:
        report_lines.append(f"  PROBLEM: {problem}")
    report_lines.append("fleet drill: PASS" if ok else "fleet drill: FAIL")
    return {
        "ok": ok,
        "touched": touched,
        "escaped": escaped,
        "drift": drift,
        "stats": stats,
        "entries": result.entries,
        "report": "\n".join(report_lines),
    }
