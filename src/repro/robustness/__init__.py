"""Fail-safe formation: formation reports (:mod:`repro.robustness.guard`),
the differential-simulation oracle (:mod:`repro.robustness.oracle`), and
deterministic fault injection (:mod:`repro.robustness.faultinject`).

The package re-exports nothing; import from the submodules.
"""
