"""Fail-safe formation reports and function-state rollback.

The paper's formation engine *tries* merges in scratch space and keeps
only the survivors — but the original drivers only survived *anticipated*
rejections: any exception inside a trial (an optimizer bug, a verifier
violation, a malformed split) killed the whole formation run.  Formation
now runs every trial as a transaction
(:func:`repro.core.convergent.attempt_merge`), and this module holds what
that transaction and ``form_module`` report with:

- :class:`TrialFailure` — one contained failure, with enough structure
  to reproduce it;
- :class:`FunctionReport` / :class:`FormationReport` are the
  :class:`~repro.core.merge.MergeStats` counters (``mtup``, ``merges``,
  ``attempts``, ...) of one function / one module, plus each function's
  status: ``ok``, ``degraded`` (some merges skipped after contained
  failures) or ``failed_safe`` (left as its pre-formation CFG) — a
  poisoned function degrades instead of sinking the module;
- :func:`adopt_function_state` — the whole-function rollback.
"""

from __future__ import annotations

import enum
import hashlib
import traceback as _traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.merge import MergeStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.function import Function


class FunctionStatus(enum.Enum):
    """Per-function outcome of fail-safe formation."""

    OK = "ok"
    DEGRADED = "degraded"  # contained failures; merges skipped
    FAILED_SAFE = "failed_safe"  # left as the pre-formation CFG

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class TrialFailure:
    """One contained failure, with enough structure to reproduce it.

    Exceptions are stored as strings (type, message, traceback tail), so
    a report keeps no exception or its frames alive.
    """

    function: str
    stage: str  # "trial" | "function" | "verify" | "oracle"
    seed: Optional[str] = None  # hyperblock seed of the failing trial
    candidate: Optional[str] = None
    error_type: str = ""
    error: str = ""
    traceback: str = ""
    ir_hash: str = ""  # sha256 of the printed function at failure time
    fault_kind: Optional[str] = None  # set when injected by a FaultPlane

    @classmethod
    def from_exception(
        cls,
        func: "Function",
        stage: str,
        exc: BaseException,
        seed: Optional[str] = None,
        candidate: Optional[str] = None,
    ) -> "TrialFailure":
        tb = "".join(_traceback.format_exception(exc)).strip()
        return cls(
            function=func.name,
            stage=stage,
            seed=seed,
            candidate=candidate,
            error_type=type(exc).__name__,
            error=str(exc),
            traceback=tb[-2000:],
            ir_hash=ir_snapshot_hash(func),
            fault_kind=getattr(exc, "fault_kind", None),
        )

    def describe(self) -> str:
        where = self.stage
        if self.seed is not None:
            where += f" {self.seed}<-{self.candidate}"
        return f"@{self.function} [{where}] {self.error_type}: {self.error}"


def ir_snapshot_hash(func: "Function") -> str:
    """Content hash of the function's printed IR (best effort: a function
    broken badly enough that it cannot even print still needs a report)."""
    from repro.ir.printer import format_function

    try:
        text = format_function(func)
    except Exception as exc:  # the IR itself may be the crime scene
        text = f"<unprintable: {type(exc).__name__}: {exc}>"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(kw_only=True)
class FunctionReport(MergeStats):
    """Result of fail-safe formation over one function: its counters
    (zero when it failed safe), status and contained failures."""

    function: str
    status: FunctionStatus
    failures: list[TrialFailure] = field(default_factory=list)


@dataclass(kw_only=True)
class FormationReport(MergeStats):
    """Result of fail-safe formation over a module (or many modules).

    The counters are the sum of the functions' counters, plus UPIO's
    basic-block unroll/peel prepass
    (:func:`repro.core.phases.compile_with_ordering` counts it here).
    ``baseline`` is the pre-formation behaviour
    (:func:`repro.robustness.oracle.snapshot_behavior`) when
    ``form_module`` ran with ``probes``, so a later check of the formed
    module against it need not simulate the original again.
    """

    functions: dict[str, FunctionReport] = field(default_factory=dict)
    baseline: Optional[list[dict]] = None

    def add_function(self, report: FunctionReport) -> None:
        self.functions[report.function] = report
        self.add(report)

    # -- status views ---------------------------------------------------

    def with_status(self, status: FunctionStatus) -> list[str]:
        return [
            name
            for name, report in self.functions.items()
            if report.status is status
        ]

    @property
    def ok_functions(self) -> list[str]:
        return self.with_status(FunctionStatus.OK)

    @property
    def degraded_functions(self) -> list[str]:
        return self.with_status(FunctionStatus.DEGRADED)

    @property
    def failed_safe_functions(self) -> list[str]:
        return self.with_status(FunctionStatus.FAILED_SAFE)

    @property
    def all_ok(self) -> bool:
        return all(r.status is FunctionStatus.OK for r in self.functions.values())

    @property
    def failures(self) -> list[TrialFailure]:
        out: list[TrialFailure] = []
        for report in self.functions.values():
            out.extend(report.failures)
        return out

    def status_of(self, name: str) -> FunctionStatus:
        return self.functions[name].status

    def summary(self) -> dict[str, tuple]:
        """Order-insensitive equivalence view: {function: (status, mtup)}.

        Two formation runs producing the same summary made the same
        decisions and contained the same failures.
        """
        return {
            name: (report.status.value, report.mtup)
            for name, report in self.functions.items()
        }

    def describe(self) -> str:
        lines = [
            f"formation: {len(self.ok_functions)} ok, "
            f"{len(self.degraded_functions)} degraded, "
            f"{len(self.failed_safe_functions)} failed_safe; "
            f"m/t/u/p = {'/'.join(str(n) for n in self.mtup)}"
        ]
        for failure in self.failures:
            lines.append(f"  {failure.describe()}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# State restoration
# ---------------------------------------------------------------------------


def adopt_function_state(func: "Function", source: "Function") -> None:
    """Overwrite ``func``'s contents with ``source``'s, in place.

    ``source`` must be a private copy (it is adopted, not copied).  Used
    by ``form_module`` to roll a function back to a known-good snapshot
    while keeping every external reference to the :class:`Function`
    object valid.
    """
    func.blocks = source.blocks
    func.entry = source.entry
    func.params = source.params
    func.next_reg = source.next_reg
    func._name_counter = source._name_counter
    func.touch()
