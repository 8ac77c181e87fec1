"""The fleet worker: a long-lived formation daemon process.

One worker is one spawned process running :func:`worker_main` over a
duplex :class:`multiprocessing.connection.Connection` back to the
supervisor (:mod:`repro.harness.fleet`).  It is *persistent*:
interpreter start-up and module imports are paid once per worker, then
amortized over every job the supervisor leases to it — the prun-style
scheduler model (long-lived contexts, polled job queue).

Protocol (pickled tuples; first element is the message tag):

========== ============================ =================================
direction  message                       meaning
========== ============================ =================================
sup → wkr  ``("job", job_id, payload)``  lease one job to this worker
sup → wkr  ``("shutdown",)``             drain and exit cleanly
wkr → sup  ``("ready", wid, pid)``       worker finished booting
wkr → sup  ``("heartbeat", wid, job)``   liveness beacon (``job`` =
                                         currently leased job id or
                                         None)
wkr → sup  ``("done", job_id, result)``  ``result = (formed, report,
                                         trace fragment)``
wkr → sup  ``("failed", job_id, info)``  the job raised; ``info`` is a
                                         plain dict (type/message/
                                         traceback/fault kind)
========== ============================ =================================

Job payloads are ``(module, profile, form_kwargs, plane, trace_on)``.
The active :class:`FaultPlane` ships inside each payload, and a traced
job builds its own tracer (see :func:`_worker_tracer`): a spawned worker
inherits neither from the supervisor.

Heartbeats come from a daemon thread so a *busy* worker (deep inside a
long formation) still beats.  The injected ``stall`` fault deliberately
**pauses** the heartbeat thread before sleeping: it models a hard-wedged
process (C-level block, deadlock), which is precisely the failure the
supervisor's missed-heartbeat detection exists for.  ``kill`` is
``os._exit`` mid-job — the supervisor sees the pipe drop and respawns
only this worker.

Worker death is always safe from the worker's own perspective: a job is
only reported ``done`` after formation finished, so the supervisor can
requeue any job whose worker vanished without ever double-counting a
result.
"""

from __future__ import annotations

import os
import threading
import time
import traceback as _traceback

from repro.robustness import faultinject
from repro.robustness.faultinject import InjectedFault

#: Exit code of a fault-injected worker kill (visible in the supervisor's
#: ``worker_death`` trace events as ``exitcode``).
KILL_EXIT_CODE = 13


class _Channel:
    """Thread-safe sender over the worker's end of the supervisor pipe.

    The heartbeat thread and the job loop both send; ``Connection.send``
    is not documented thread-safe, so every send takes the lock.  A
    broken pipe (the supervisor died or dropped us) flips ``closed`` and
    sends become no-ops — the job loop notices on its next ``recv``.
    """

    def __init__(self, conn):
        self.conn = conn
        self.lock = threading.Lock()
        self.closed = False

    def send(self, message) -> bool:
        with self.lock:
            if self.closed:
                return False
            try:
                self.conn.send(message)
                return True
            except (BrokenPipeError, OSError):
                self.closed = True
                return False


class _Heartbeat:
    """Daemon thread beating ``("heartbeat", wid, current_job)``."""

    def __init__(self, channel: _Channel, worker_id: int, interval: float):
        self.channel = channel
        self.worker_id = worker_id
        self.interval = interval
        self.current_job = None
        self._paused = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def pause(self) -> None:
        """Silence the beacon (the ``stall`` fault's wedge simulation)."""
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()

    def _run(self) -> None:
        while not self._stop.is_set():
            if not self._paused.is_set():
                self.channel.send(
                    ("heartbeat", self.worker_id, self.current_job)
                )
            # wait() instead of sleep(): stop() interrupts immediately.
            self._stop.wait(self.interval)


def _apply_fleet_fault(plane, task_name: str, heartbeat: _Heartbeat) -> None:
    """Act out a worker-level fault inside a fleet worker.

    ``raise`` raises :class:`InjectedFault`, ``kill`` exits the process
    mid-job, and ``stall`` sleeps with the heartbeat beacon paused: a
    wedged process does not beat, and missed heartbeats are what the
    supervisor's lease expiry detects.
    """
    kind = plane.worker_fault(task_name)
    if kind is None:
        return
    plane.record("worker", kind, task_name)
    if kind == "stall":
        heartbeat.pause()
        try:
            time.sleep(plane.stall_seconds)
        finally:
            heartbeat.resume()
        return
    if kind == "kill":
        os._exit(KILL_EXIT_CODE)  # die without cleanup: the pipe just drops
    exc = InjectedFault(f"injected worker fault in task {task_name!r}")
    exc.fault_kind = kind
    raise exc


def _failure_info(exc: BaseException) -> dict:
    """A picklable projection of a job exception (strings only, like
    :class:`~repro.robustness.guard.TrialFailure` demands)."""
    return {
        "error_type": type(exc).__name__,
        "error": str(exc) or type(exc).__name__,
        "traceback": "".join(_traceback.format_exception(exc)).strip()[-2000:],
        "fault_kind": getattr(exc, "fault_kind", None),
    }


def _worker_tracer(trace_on: bool):
    """Install a fragment tracer for one job when the supervisor traces.

    A spawned worker does not inherit the supervisor's installed tracer,
    so each traced job builds its own in-memory tracer and ships the
    collected events back inside the job result for the supervisor to
    :meth:`~repro.obs.trace.Tracer.absorb`.
    """
    if not trace_on:
        return None
    from repro.obs import trace as obs_trace
    from repro.obs.sink import MemorySink

    tracer = obs_trace.Tracer(sinks=(MemorySink(),))
    obs_trace.install(tracer)
    return tracer


def _collect_fragment(tracer):
    """The job's trace events, stamped with the worker's pid and thread id.

    The stamps let the Chrome exporter lane fleet work as one track per
    worker process instead of one interleaved track.  They are
    fingerprint-safe by construction: :func:`repro.obs.ledger.
    decision_entry` projects a fixed attribute set that never includes
    ``pid``/``tid``.
    """
    if tracer is None:
        return None
    events = tracer.collected_events()
    pid = os.getpid()
    tid = threading.get_ident()
    for event in events:
        event.attrs.setdefault("pid", pid)
        event.attrs.setdefault("tid", tid)
    return events


def _run_job(job_id, payload, heartbeat: _Heartbeat):
    """Execute one leased job; returns the message to send back.

    Installs the shipped fault plane and a fragment tracer, forms, and
    collects the trace fragment, but never lets an exception escape: a
    raising job becomes a ``failed`` message, and the worker lives on to
    take the next lease.
    """
    # Imported lazily so a worker that only ever relays faults does not
    # pay for the formation stack — and to keep boot (hence respawn
    # latency) dominated by interpreter start-up alone.
    from repro.core.convergent import form_module
    from repro.obs import trace as obs_trace

    module, profile, form_kwargs, plane, trace_on = payload
    tracer = _worker_tracer(trace_on)
    try:
        try:
            if plane is not None:
                faultinject.install(plane)
                _apply_fleet_fault(plane, module.name, heartbeat)
            report = form_module(module, profile=profile, **form_kwargs)
        finally:
            if plane is not None:
                faultinject.clear()
            if tracer is not None:
                obs_trace.clear()
    except Exception as exc:
        fragment = _collect_fragment(tracer)
        info = _failure_info(exc)
        info["fragment"] = fragment
        return ("failed", job_id, info)
    return ("done", job_id, (module, report, _collect_fragment(tracer)))


def worker_main(conn, worker_id: int, heartbeat_interval: float) -> None:
    """Entry point of a fleet worker process: beat, lease, form, repeat."""
    channel = _Channel(conn)
    heartbeat = _Heartbeat(channel, worker_id, heartbeat_interval)
    heartbeat.start()
    channel.send(("ready", worker_id, os.getpid()))
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # supervisor went away; nothing left to serve
            if not message or message[0] == "shutdown":
                break
            if message[0] != "job":
                continue  # unknown tags are ignored, not fatal
            _, job_id, payload = message
            heartbeat.current_job = job_id
            reply = _run_job(job_id, payload, heartbeat)
            heartbeat.current_job = None
            if not channel.send(reply):
                break  # result undeliverable: supervisor is gone
    finally:
        heartbeat.stop()
        try:
            conn.close()
        except OSError:
            pass
