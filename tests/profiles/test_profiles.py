"""Tests for profile collection and queries."""

import pytest

from repro.ir import FunctionBuilder, build_module
from repro.profiles import collect_profile, root_name
from repro.workloads.generators import random_inputs, random_program
from tests.conftest import (
    make_counting_loop,
    make_while_loop,
    scan_edge_probability,
)
from tests.analysis.test_loops import make_nested_loops


def test_root_name():
    assert root_name("body") == "body"
    assert root_name("body.d3") == "body"
    assert root_name("body.d3.u1") == "body"


def test_edge_and_block_counts(counting_loop_module):
    profile = collect_profile(counting_loop_module)
    assert profile.block_count("main", "head") == 11
    assert profile.block_count("main", "body") == 10
    assert profile.edge_count("main", "head", "body") == 10
    assert profile.edge_count("main", "head", "exit") == 1
    assert profile.edge_count("main", "exit", None) == 1


def test_edge_probability_and_bias(counting_loop_module):
    profile = collect_profile(counting_loop_module)
    assert abs(profile.edge_probability("main", "head", "body") - 10 / 11) < 1e-9
    assert abs(profile.branch_bias("main", "head") - 10 / 11) < 1e-9
    assert profile.edge_probability("main", "nonexistent", "x") == 0.0
    assert profile.branch_bias("main", "nonexistent") == 1.0


def test_queries_resolve_duplicated_names(counting_loop_module):
    profile = collect_profile(counting_loop_module)
    assert profile.block_count("main", "body.d7") == 10
    assert profile.edge_count("main", "head.x2", "body.d7") == 10


def test_single_loop_trip_histogram(counting_loop_module):
    profile = collect_profile(counting_loop_module)
    hist = profile.trip_histogram("main", "head")
    # One visit; the header executed 11 times (10 body trips + exit test).
    assert hist == {11: 1}
    assert profile.expected_trips("main", "head") == 11
    assert profile.common_trip_count("main", "head") == 11


def test_nested_loop_trip_histogram():
    mod = build_module(make_nested_loops())
    profile = collect_profile(mod)
    outer = profile.trip_histogram("main", "outer_head")
    inner = profile.trip_histogram("main", "inner_head")
    assert outer == {6: 1}  # 5 iterations + failing test
    assert inner == {4: 5}  # 3 iterations + failing test, 5 visits
    assert profile.trip_count_coverage("main", "inner_head", 4) == 1.0
    assert profile.trip_count_coverage("main", "inner_head", 3) == 0.0


def test_data_dependent_trips(collatz_module):
    profile = collect_profile(collatz_module, args=(7,))
    hist = profile.trip_histogram("main", "head")
    # Collatz(7) takes 16 steps -> 17 header executions in one visit.
    assert hist == {17: 1}


def test_recursion_keeps_depth_separate():
    # f(n): loop n times, then recurse on n-1.
    fb = FunctionBuilder("f", nparams=1)
    fb.block("entry", entry=True)
    i = fb.movi(0)
    fb.br("head")
    fb.block("head")
    c = fb.tlt(i, 0)
    fb.br_cond(c, "body", "after")
    fb.block("body")
    fb.mov_to(i, fb.add(i, fb.movi(1)))
    fb.br("head")
    fb.block("after")
    stop = fb.tlt(0, fb.movi(1))
    fb.br_cond(stop, "base", "rec")
    fb.block("base")
    fb.ret(fb.movi(0))
    fb.block("rec")
    fb.ret(fb.call("f", fb.sub(0, fb.movi(1))))
    f = fb.finish()

    main = FunctionBuilder("main", nparams=0)
    main.block("entry")
    main.ret(main.call("f", main.movi(3)))
    mod = build_module(main.finish(), f)

    profile = collect_profile(mod)
    hist = profile.trip_histogram("f", "head")
    # Visits with n = 3, 2, 1, 0 -> header execs 4, 3, 2, 1.
    assert hist == {4: 1, 3: 1, 2: 1, 1: 1}


def test_multiple_visits_accumulate(collatz_module):
    from repro.profiles import ProfileCollector

    collector = ProfileCollector(collatz_module)
    collector.run(args=(7,))
    collector.run(args=(7,))
    hist = collector.profile.trip_histogram("main", "head")
    assert hist == {17: 2}


@pytest.mark.parametrize("seed", range(6))
def test_edge_probability_matches_edge_table_scan(seed):
    module = random_program(seed)
    profile = collect_profile(module, args=random_inputs(seed))
    returns = 0
    for func, src, dst in profile.edge_counts:
        returns += dst is None
        expected = scan_edge_probability(profile, func, src, dst)
        assert profile.edge_probability(func, src, dst) == expected
        # Duplicated blocks resolve through their root name.
        dup_dst = None if dst is None else f"{dst}.d3"
        assert profile.edge_probability(func, f"{src}.d3", dup_dst) == expected
    assert returns
    for func in module:
        for src in func.blocks:
            for dst in ("nonexistent", None):
                assert profile.edge_probability(func.name, src, dst) == (
                    scan_edge_probability(profile, func.name, src, dst)
                )
