"""The paper's contribution: convergent hyperblock formation.

- :mod:`repro.core.constraints` — TRIPS structural limits + LegalBlock
- :mod:`repro.core.merge` — MergeBlocks (Figure 5, lines 1-17)
- :mod:`repro.core.convergent` — ExpandBlock and formation's one entry
  point, :func:`~repro.core.convergent.form_module`
- :mod:`repro.core.policies` — SelectBest heuristics (BF / DF / VLIW)
- :mod:`repro.core.phases` — the paper's configurations
  (:data:`~repro.core.phases.CONFIGURATIONS`) and their discrete
  unroll/peel passes
"""

from repro.core.constraints import (
    UNLIMITED,
    BlockEstimate,
    TripsConstraints,
    estimate_block,
    legal_block,
)
from repro.core.convergent import expand_block, form_module
from repro.core.merge import (
    FormationContext,
    MergeKind,
    MergeStats,
    classify_merge,
    legal_merge,
    merge_blocks,
)
from repro.core.phases import (
    CONFIGURATIONS,
    ORDERINGS,
    LoopFactors,
    choose_factors,
    compile_with_ordering,
)
from repro.core.policies import (
    BreadthFirstPolicy,
    Candidate,
    DepthFirstPolicy,
    MergePolicy,
    VLIWPolicy,
)
from repro.robustness.guard import (
    FormationReport,
    FunctionReport,
    FunctionStatus,
    TrialFailure,
)

__all__ = [
    "BlockEstimate",
    "BreadthFirstPolicy",
    "CONFIGURATIONS",
    "Candidate",
    "DepthFirstPolicy",
    "FormationContext",
    "FormationReport",
    "FunctionReport",
    "FunctionStatus",
    "LoopFactors",
    "MergeKind",
    "MergePolicy",
    "MergeStats",
    "ORDERINGS",
    "TrialFailure",
    "TripsConstraints",
    "UNLIMITED",
    "VLIWPolicy",
    "choose_factors",
    "classify_merge",
    "compile_with_ordering",
    "estimate_block",
    "expand_block",
    "form_module",
    "legal_block",
    "legal_merge",
    "merge_blocks",
]
