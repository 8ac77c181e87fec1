"""Cache-equivalence: formation's caches change nothing but time.

Formation layers three caches under the merge loop — in-place analysis
updates, version-keyed use/kill sets, and a rejected-trial memo that
replays even the *register numbers* a rejected preview consumed.  These
tests pin the contract those caches must honor against the reference
run, which forms under :class:`tests.conftest.ReferenceFormationContext`
(every commit discards the analyses, nothing is memoized): formed IR
(printed, so block names, instruction order, operand and predicate
registers all participate), the paper's m/t/u/p counters, the attempt
count and each function's highest register are identical.
"""

from __future__ import annotations

import pytest

from repro.core.convergent import form_function, form_module
from repro.ir.printer import format_function, format_module
from repro.profiles import collect_profile
from repro.workloads.generators import random_inputs, random_program, scaled_program
from repro.workloads.spec import SPEC_BENCHMARKS, SPEC_ORDER
from tests.conftest import reference_formation

SEEDS = list(range(16))


def _assert_forms_like_reference(make_module, profile):
    cached = make_module()
    reference = make_module()
    cached_report = form_module(cached, profile=profile)
    with reference_formation():
        reference_report = form_module(reference, profile=profile)
    assert reference_report.stats.cache.trial_hits == 0
    assert format_module(cached) == format_module(reference)
    assert cached_report.mtup == reference_report.mtup
    assert cached_report.attempts == reference_report.attempts
    assert [f.max_reg() for f in cached] == [f.max_reg() for f in reference]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_programs_form_identically(seed):
    profile = collect_profile(random_program(seed), args=random_inputs(seed))
    _assert_forms_like_reference(lambda: random_program(seed), profile)


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_random_programs_form_identically_without_profile(seed):
    # No profile changes seed ordering and policy decisions; the caches
    # must agree on that path too.
    _assert_forms_like_reference(lambda: random_program(seed), None)


@pytest.mark.parametrize("name", SPEC_ORDER)
def test_spec_workloads_form_identically(name):
    workload = SPEC_BENCHMARKS[name]
    profile = collect_profile(
        workload.module(), args=workload.args, preload=workload.preload
    )
    _assert_forms_like_reference(workload.module, profile)


def test_scaled_program_forms_identically():
    """The 10x tier (one ~440-instruction function), where the patched
    analyses live through hundreds of commits."""
    seed = 2006
    profile = collect_profile(scaled_program(440, seed), args=random_inputs(seed))
    _assert_forms_like_reference(lambda: scaled_program(440, seed), profile)


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_memoized_rejections_replay_register_numbers(seed):
    """A memo hit must leave the register counter exactly where a re-run
    trial would have (rejected previews mint fresh guard registers)."""
    profile = collect_profile(random_program(seed), args=random_inputs(seed))
    cached = random_program(seed).function("main")
    reference = random_program(seed).function("main")
    form_function(cached, profile=profile)
    with reference_formation():
        form_function(reference, profile=profile)
    assert cached.max_reg() == reference.max_reg()
    assert format_function(cached) == format_function(reference)
