"""Profile-robustness benchmark: train on one input, evaluate on another.

The paper's methodology profiles on training inputs (MinneSPEC) and the
formation decisions (merge order, peel factors) bake that profile into the
code.  This bench checks the reproduction's formation is *robust*: code
formed from one input's profile must stay correct and still beat basic
blocks when run on different inputs.  Correctness is asserted through the
differential-simulation oracle (``repro.robustness.oracle``), which
compares results, memory, and call traces — the same gate the
fault-injection tier (``python -m repro.harness selfcheck --faults``) uses
to prove containment.
"""

from __future__ import annotations

from repro.core.convergent import form_module
from repro.opt.pipeline import optimize_module
from repro.profiles import collect_profile
from repro.robustness.oracle import BehaviorProbe, assert_equivalent
from repro.sim.timing import simulate_cycles
from repro.workloads.microbench import MICROBENCHMARKS

#: (workload, train args, test args) — args shrink/grow the input size,
#: shifting trip counts and branch biases away from the training run.
CASES = [
    ("vadd", (96, 1000, 2000, 3000), (40, 1000, 2000, 3000)),
    ("sieve", (96, 1000), (60, 1000)),
    ("matrix_1", (10, 1000, 2000, 3000), (6, 1000, 2000, 3000)),
    ("bzip2_3", (160, 1000, 2000), (90, 1000, 2000)),
    ("ammp_1", (48, 3000, 1000, 2000), (20, 3000, 1000, 2000)),
]


def _preload(workload):
    return {k: list(v) for k, v in workload.preload.items()}


def test_train_test_input_robustness(benchmark):
    def run():
        improvements = []
        for name, train_args, test_args in CASES:
            workload = MICROBENCHMARKS[name]
            base = workload.module()
            probe = BehaviorProbe(args=test_args, preload=_preload(workload))
            bb = simulate_cycles(
                base.copy(), args=test_args, preload=_preload(workload)
            ).cycles
            # Profile on the *train* input only.
            profile = collect_profile(
                base.copy(), args=train_args, preload=_preload(workload)
            )
            formed = base.copy()
            form_module(formed, profile=profile)
            optimize_module(formed)
            # Behavior on the *test* input must survive formation.
            assert_equivalent(base, formed, probes=[probe])
            cycles = simulate_cycles(
                formed, args=test_args, preload=_preload(workload)
            ).cycles
            improvements.append((name, 100.0 * (bb - cycles) / bb))
        return improvements

    improvements = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for name, delta in improvements:
        print(f"  {name:12s} trained-elsewhere improvement: {delta:+.1f}%")
    average = sum(d for _, d in improvements) / len(improvements)
    # Formation must remain profitable on unseen inputs on average.
    assert average > 0, f"profile overfit: average {average:+.1f}%"


def test_profile_free_formation_is_safe(benchmark):
    """Formation with an *empty* profile (no training run at all) must be
    conservative but correct — the policies degrade to structural order."""
    from repro.profiles import ProfileData

    def run():
        checked = 0
        for name, _, test_args in CASES[:3]:
            workload = MICROBENCHMARKS[name]
            base = workload.module()
            probe = BehaviorProbe(args=test_args, preload=_preload(workload))
            formed = base.copy()
            form_module(formed, profile=ProfileData())
            assert_equivalent(base, formed, probes=[probe])
            checked += 1
        return checked

    assert benchmark.pedantic(run, rounds=1, iterations=1) == 3
