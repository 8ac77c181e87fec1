"""The fault plane is deterministic, seeded, and order-independent."""

from __future__ import annotations

from repro.robustness.faultinject import (
    CORRUPTING_KINDS,
    RAISING_KINDS,
    TRIAL_KINDS,
    FaultPlane,
    active_plane,
    injected,
)
from repro.workloads.generators import random_program

SITES = [
    ("main", f"b{h}", f"b{c}") for h in range(12) for c in range(12) if h != c
]


def test_trial_fault_is_a_pure_function_of_the_site():
    plane_a = FaultPlane(rate=0.3, seed=7, kinds=TRIAL_KINDS)
    plane_b = FaultPlane(rate=0.3, seed=7, kinds=TRIAL_KINDS)
    forward = [plane_a.trial_fault(*site) for site in SITES]
    backward = [plane_b.trial_fault(*site) for site in reversed(SITES)]
    assert forward == list(reversed(backward))


def test_seed_and_rate_change_the_fault_pattern():
    base = [FaultPlane(rate=0.3, seed=0).trial_fault(*s) for s in SITES]
    reseeded = [FaultPlane(rate=0.3, seed=1).trial_fault(*s) for s in SITES]
    assert base != reseeded
    assert any(kind is not None for kind in base)
    none_fired = [FaultPlane(rate=0.0, seed=0).trial_fault(*s) for s in SITES]
    assert all(kind is None for kind in none_fired)
    all_fired = [
        FaultPlane(rate=1.0, seed=0, kinds=("optimizer",)).trial_fault(*s)
        for s in SITES
    ]
    assert all(kind == "optimizer" for kind in all_fired)


def test_rate_one_spreads_over_all_kinds():
    kinds = {
        FaultPlane(rate=1.0, seed=3, kinds=TRIAL_KINDS).trial_fault(*site)
        for site in SITES
    }
    assert kinds == set(TRIAL_KINDS)


def test_function_targeting():
    plane = FaultPlane(
        rate=1.0, seed=0, kinds=RAISING_KINDS, functions=frozenset({"hot"})
    )
    assert plane.trial_fault("hot", "b0", "b1") is not None
    assert plane.trial_fault("cold", "b0", "b1") is None


def test_corrupt_operand_and_predicate_mutate_a_block():
    from repro.core.convergent import form_module

    # Predicated instructions only exist *after* formation merges blocks.
    module = random_program(11)
    form_module(module)
    func = module.function("main")
    plane = FaultPlane()
    for kind in CORRUPTING_KINDS:
        for name in func.blocks:
            block = func.blocks[name].copy(name)
            before = [
                (i.op, i.srcs, i.pred) for i in block.instrs
            ]
            version = block.version
            if plane.corrupt(kind, block):
                after = [(i.op, i.srcs, i.pred) for i in block.instrs]
                assert after != before
                assert block.version != version
                break
        else:
            raise AssertionError(f"no block eligible for {kind} corruption")


def test_fired_log_and_marks():
    plane = FaultPlane()
    mark = plane.fired_mark()
    plane.record("trial", "optimizer", "f", "b0", "b1")
    plane.record("trial", "commit", "g", "b2", "b3")
    assert [f.kind for f in plane.fired_since(mark, "f")] == ["optimizer"]
    assert [f.kind for f in plane.fired_since(mark, "g")] == ["commit"]
    assert plane.fired_since(plane.fired_mark(), "f") == []


def test_injected_context_manager_restores_previous_plane():
    assert active_plane() is None
    outer = FaultPlane(seed=1)
    inner = FaultPlane(seed=2)
    with injected(outer):
        assert active_plane() is outer
        with injected(inner):
            assert active_plane() is inner
        assert active_plane() is outer
    assert active_plane() is None
