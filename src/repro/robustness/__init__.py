"""Fail-safe formation: formation reports, the differential-simulation
oracle, and deterministic fault injection.

Submodules are imported lazily (PEP 562): ``repro.core.merge`` imports
``repro.robustness.faultinject`` at module load, and an eager package
``__init__`` importing :mod:`repro.robustness.guard` (which imports
``repro.core.merge`` back) would turn that into an import cycle.
"""

from __future__ import annotations

_EXPORTS = {
    "FaultPlane": "repro.robustness.faultinject",
    "FiredFault": "repro.robustness.faultinject",
    "InjectedFault": "repro.robustness.faultinject",
    "FormationReport": "repro.robustness.guard",
    "FunctionReport": "repro.robustness.guard",
    "FunctionStatus": "repro.robustness.guard",
    "TrialFailure": "repro.robustness.guard",
    "BehaviorProbe": "repro.robustness.oracle",
    "OracleDivergenceError": "repro.robustness.oracle",
    "OracleReport": "repro.robustness.oracle",
    "assert_equivalent": "repro.robustness.oracle",
    "differential_check": "repro.robustness.oracle",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
