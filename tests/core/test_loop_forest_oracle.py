"""Per-commit oracle for the analyses formation patches in place.

After every committed merge, the header set, back-edge set and
immediate-dominator map that ``FormationContext`` keeps must equal those
of a fresh ``LoopForest``/``DominatorTree`` built from the function, its
liveness must equal a fresh solve, with the same SCCs ranked successors
first, and every block's cached shape must equal a fresh scan.  The
programs are formed by the Table-2 configurators the benchmark runs (the
VLIW columns include their unroll/peel prepass).  One formation pass
checks all three.

An unroll whose saved body adds a successor the hyperblock lacked is
patched by each analysis when it can prove the edit harmless, and
rebuilt otherwise; the ``unroll-edits`` programs were picked because
their formation contains both outcomes for both analyses.
"""

from __future__ import annotations

import pytest

from repro.analysis.liveness import Liveness
from repro.analysis.loops import LoopForest
from repro.core.merge import FormationContext
from repro.harness.experiment import heuristic_config
from repro.profiles.collect import collect_profile
from repro.workloads.generators import random_inputs, scaled_program
from repro.workloads.microbench import MICROBENCH_ORDER, MICROBENCHMARKS
from repro.workloads.spec import SPEC_BENCHMARKS, SPEC_ORDER
from tests.conftest import (
    assert_forest_matches_fresh,
    assert_liveness_matches_fresh,
    assert_shapes_match_fresh,
)

GROUPS = [
    ("spec19", ("BF",)),
    ("micro24", ("VLIW", "Convergent VLIW", "DF", "BF")),
    ("scaled-10x", ("BF",)),
    ("unroll-edits", ("BF",)),
]


def _scaled(seeds):
    return [
        _profiled(scaled_program(440, seed), random_inputs(seed), None)
        for seed in seeds
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
        "scaled-10x": _scaled((2006, 2007)),
        "unroll-edits": _scaled((2017, 2019)),
    }


def _counting(analysis, unroll_edits):
    """``analysis.note_commit`` that also counts, per ``(class name,
    patched)``, the commits of unrolls that added a successor."""
    note_commit = analysis.note_commit

    def counted(self, hb, s, added):
        patched = note_commit(self, hb, s, added)
        if added:
            key = (analysis.__name__, patched)
            unroll_edits[key] = unroll_edits.get(key, 0) + 1
        return patched

    return counted


@pytest.mark.parametrize("group, configs", GROUPS, ids=[g for g, _ in GROUPS])
def test_patched_forest_matches_fresh_after_every_commit(
    programs, monkeypatch, group, configs
):
    commits = 0
    unroll_edits: dict[tuple[str, bool], int] = {}
    for analysis in (LoopForest, Liveness):
        monkeypatch.setattr(
            analysis, "note_commit", _counting(analysis, unroll_edits)
        )

    note_commit = FormationContext.note_commit

    def checked(ctx, hb_name, s_name, preview, removed):
        nonlocal commits
        note_commit(ctx, hb_name, s_name, preview, removed)
        commits += 1
        where = f"{ctx.func.name}: commit {commits} into {hb_name}"
        assert_forest_matches_fresh(ctx.loops, ctx.func, where)
        assert_liveness_matches_fresh(ctx.liveness, ctx.func, where)
        assert_shapes_match_fresh(ctx.func, where)

    # A failed check raises inside the trial, which rolls it back and
    # reports the function degraded with the check's message.
    monkeypatch.setattr(FormationContext, "note_commit", checked)
    patches = solved = 0
    for module, profile in programs[group]:
        for config in configs:
            report = heuristic_config(config)(module.copy(), profile)
            assert report.all_ok, report.describe()
            patches += report.cache.loop_patches
            solved += report.cache.liveness_sccs_solved
    assert commits and patches and solved
    if group == "unroll-edits":
        for analysis in ("LoopForest", "Liveness"):
            for patched in (True, False):
                assert unroll_edits.get((analysis, patched)), (
                    analysis, patched, unroll_edits)
