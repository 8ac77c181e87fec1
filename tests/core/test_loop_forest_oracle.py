"""Per-commit oracle for the analyses formation patches in place.

After every committed merge, the header set, back-edge set and
immediate-dominator map that ``FormationContext`` keeps must equal those
of a fresh ``LoopForest``/``DominatorTree`` built from the function, and
its liveness must equal a fresh solve, with the same SCCs ranked
successors first.  The programs are formed by the Table-2 configurators
the benchmark runs (the VLIW columns include their unroll/peel prepass).
One formation pass checks both analyses.
"""

from __future__ import annotations

import pytest

from repro.core import convergent
from repro.harness.experiment import heuristic_config
from repro.profiles.collect import collect_profile
from repro.workloads.generators import random_inputs, scaled_program
from repro.workloads.microbench import MICROBENCH_ORDER, MICROBENCHMARKS
from repro.workloads.spec import SPEC_BENCHMARKS, SPEC_ORDER
from tests.conftest import (
    assert_forest_matches_fresh,
    assert_liveness_matches_fresh,
)

GROUPS = [
    ("spec19", ("BF",)),
    ("micro24", ("VLIW", "Convergent VLIW", "DF", "BF")),
    ("scaled-10x", ("BF",)),
]


def _profiled(module, args, preload):
    return module, collect_profile(module.copy(), args=args, preload=preload)


@pytest.fixture(scope="module")
def programs():
    def workloads(table, order):
        return [
            _profiled(table[name].module(), table[name].args,
                      table[name].preload)
            for name in order
        ]

    return {
        "spec19": workloads(SPEC_BENCHMARKS, SPEC_ORDER),
        "micro24": workloads(MICROBENCHMARKS, MICROBENCH_ORDER),
        "scaled-10x": [
            _profiled(scaled_program(440, seed), random_inputs(seed), None)
            for seed in (2006, 2007)
        ],
    }


# ``legacy`` names the object walk, as in earlier records, so these ids
# carry over from the days when the oracle ran under several IR backends.
@pytest.mark.parametrize(
    "group, configs", GROUPS, ids=[f"{g}-legacy" for g, _ in GROUPS]
)
def test_patched_forest_matches_fresh_after_every_commit(
    programs, monkeypatch, group, configs
):
    commits = 0

    def check(ctx, hb_name):
        nonlocal commits
        commits += 1
        where = f"{ctx.func.name}: commit {commits} into {hb_name}"
        assert_forest_matches_fresh(ctx.loops, ctx.func, where)
        assert_liveness_matches_fresh(ctx.liveness, ctx.func, where)

    form_function = convergent.form_function

    def checked(func, **kwargs):
        # Without the trial guard a failed check propagates instead of
        # being contained as a rolled-back trial.
        kwargs.update(failsafe=False, post_commit=check)
        return form_function(func, **kwargs)

    monkeypatch.setattr(convergent, "form_function", checked)
    patches = solved = 0
    for module, profile in programs[group]:
        for config in configs:
            report = heuristic_config(config)(module.copy(), profile)
            patches += report.stats.cache.loop_patches
            solved += report.stats.cache.liveness_sccs_solved
    assert commits and patches and solved
