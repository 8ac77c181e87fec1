"""Differential-simulation oracle: formed code must compute what the
original CFG computed.

The structural verifier (:mod:`repro.ir.verify`) catches malformed IR;
this oracle catches *wrong* IR.  It runs the functional simulator on the
pre-formation module and the formed module over a set of input probes and
compares three observables per probe:

- the return value of ``main``,
- the final memory image,
- the call trace (per-function invocation counts, from entry-block
  execution counts).

Simulator errors are part of the behavior: a formation bug that creates
an infinite loop shows up as a step-budget :class:`SimulationError` on the
formed side against a clean run on the original side — *reported*, not
hung on (the simulator's ``max_steps`` budget bounds every probe).  The
formed side's budget is derived from the steps the original run took
(:func:`formed_step_budget`), so a runaway formed module is stopped
within a small multiple of the real run instead of at
:data:`ORACLE_MAX_STEPS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.ir.function import Module
from repro.sim.functional import Interpreter, SimulationError

#: Generous defaults for oracle probes: far above any legitimate workload
#: in this repo (~1e5-1e6 steps), far below "hung in CI".
ORACLE_MAX_STEPS = 10_000_000
ORACLE_MAX_BLOCKS = 2_000_000

#: The formed side of a probe may take this many times the original
#: run's steps, plus a fixed slack.  Formation only removes work from a
#: correct program: over the SPEC and micro probes the formed/original
#: ratio peaks at 10.6 (on a 7-step probe) and at 2.69 where the original
#: ran at least 1,000 steps.
FORMED_STEP_FACTOR = 16
FORMED_STEP_SLACK = 100_000


@dataclass(frozen=True)
class BehaviorProbe:
    """One input to drive both modules with."""

    args: tuple = ()
    preload: Optional[dict] = None

    def label(self) -> str:
        return f"main{self.args!r}"


@dataclass
class Divergence:
    """One observable that differed between the two modules."""

    probe: str
    observable: str  # "result" | "memory" | "calls" | "error"
    before: object
    after: object

    def describe(self) -> str:
        return (
            f"{self.probe}: {self.observable} diverged: "
            f"{_clip(self.before)} (original) != {_clip(self.after)} (formed)"
        )


def _clip(value: object, limit: int = 200) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


@dataclass
class OracleReport:
    """Outcome of one differential check."""

    probes: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        if self.ok:
            return f"oracle: {self.probes} probes, no divergence"
        lines = [f"oracle: {len(self.divergences)} divergence(s):"]
        lines.extend(f"  {d.describe()}" for d in self.divergences)
        return "\n".join(lines)


class OracleDivergenceError(Exception):
    """Raised by :func:`assert_equivalent` when the oracle finds a
    divergence."""

    def __init__(self, report: OracleReport):
        super().__init__(report.describe())
        self.report = report


def default_probes(module: Module) -> list[BehaviorProbe]:
    """Input probes derived from ``main``'s arity when the caller has no
    workload inputs: an all-zeros probe (cold paths) plus a small-primes
    probe (a few loop iterations)."""
    if "main" not in module:
        return []
    nparams = len(module.function("main").params)
    primes = (5, 7, 11, 13, 17, 19, 23, 29)
    return [
        BehaviorProbe(args=(0,) * nparams),
        BehaviorProbe(args=tuple(primes[i % len(primes)] for i in range(nparams))),
    ]


def probe_behavior(
    module: Module,
    probe: BehaviorProbe,
    max_steps: int = ORACLE_MAX_STEPS,
    max_blocks: int = ORACLE_MAX_BLOCKS,
) -> dict:
    """Observable behavior of ``module`` on one probe.

    A :class:`SimulationError` (dynamic invariant violation, runaway
    execution) is itself an observable — two modules are equivalent only
    if they fail the same way.  A run that completes also records its
    ``steps`` (executed plus nullified instructions), which
    :func:`formed_step_budget` reads; it is not compared.
    """
    interp = Interpreter(module, max_blocks=max_blocks, max_steps=max_steps)
    if probe.preload:
        for base, values in probe.preload.items():
            interp.preload(base, list(values))
    try:
        result = interp.run("main", probe.args)
    except SimulationError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    calls = {}
    counts = interp.stats.block_counts
    for func in module:
        invocations = counts.get((func.name, func.entry), 0)
        if invocations:
            calls[func.name] = invocations
    stats = interp.stats
    return {
        "result": result,
        "memory": dict(sorted(interp.memory.items())),
        "calls": calls,
        "steps": stats.instrs_executed + stats.instrs_nullified,
    }


def formed_step_budget(reference: dict, max_steps: int) -> int:
    """The formed side's step budget on a probe whose original behavior
    is ``reference``: a small multiple of the original run's steps,
    never more than ``max_steps``.  An original run that errored (or a
    snapshot without a count) keeps ``max_steps``, so equal errors still
    compare equal."""
    steps = reference.get("steps")
    if steps is None:
        return max_steps
    return min(max_steps, FORMED_STEP_FACTOR * steps + FORMED_STEP_SLACK)


def snapshot_behavior(
    module: Module,
    probes: Sequence[BehaviorProbe],
    max_steps: int = ORACLE_MAX_STEPS,
    max_blocks: int = ORACLE_MAX_BLOCKS,
) -> list[dict]:
    return [
        probe_behavior(module, probe, max_steps=max_steps, max_blocks=max_blocks)
        for probe in probes
    ]


def compare_behavior(
    probe: BehaviorProbe, before: dict, after: dict
) -> list[Divergence]:
    label = probe.label()
    if "error" in before or "error" in after:
        if before.get("error") == after.get("error"):
            return []
        return [
            Divergence(
                label,
                "error",
                before.get("error", "<ran to completion>"),
                after.get("error", "<ran to completion>"),
            )
        ]
    out = []
    for observable in ("result", "memory", "calls"):
        if before[observable] != after[observable]:
            out.append(
                Divergence(
                    label, observable, before[observable], after[observable]
                )
            )
    return out


def differential_check(
    before: Module,
    after: Module,
    probes: Optional[Sequence[BehaviorProbe]] = None,
    baseline: Optional[list[dict]] = None,
    max_steps: int = ORACLE_MAX_STEPS,
    max_blocks: int = ORACLE_MAX_BLOCKS,
) -> OracleReport:
    """Compare ``before`` and ``after`` over ``probes``.

    ``baseline`` short-circuits re-simulating ``before`` when the caller
    already holds its snapshot (the per-function oracle re-checks the
    same baseline after every function forms).  ``after`` runs each probe
    under :func:`formed_step_budget` of its baseline.
    """
    if probes is None:
        probes = default_probes(before)
    report = OracleReport(probes=len(probes))
    if baseline is None:
        baseline = snapshot_behavior(
            before, probes, max_steps=max_steps, max_blocks=max_blocks
        )
    for probe, reference in zip(probes, baseline):
        formed = probe_behavior(
            after,
            probe,
            max_steps=formed_step_budget(reference, max_steps),
            max_blocks=max_blocks,
        )
        report.divergences.extend(compare_behavior(probe, reference, formed))
    return report


def assert_equivalent(
    before: Module,
    after: Module,
    probes: Optional[Sequence[BehaviorProbe]] = None,
    **kwargs,
) -> OracleReport:
    """Raise :class:`OracleDivergenceError` unless the modules agree."""
    report = differential_check(before, after, probes=probes, **kwargs)
    if not report.ok:
        raise OracleDivergenceError(report)
    return report
