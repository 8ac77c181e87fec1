"""Back edges on random CFGs, checked against the dominance definition.

These cases once raced the numpy analysis tier against the scalar
analyses.  That tier is retired and the scalar side stays, so each case
now checks the back edges ``LoopForest`` finds through its
``DominatorTree`` against dominance computed by brute force: ``a``
dominates ``b`` when ``b`` is unreachable from the entry once ``a`` is
removed.  The module keeps its name so the case ids carry over.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.dominators import DominatorTree
from repro.analysis.loops import LoopForest
from repro.ir import FunctionBuilder


def _random_func(seed: int, nblocks: int = 12):
    """A function with random branch structure, some blocks unreachable."""
    rng = random.Random(seed)
    names = [f"b{i}" for i in range(nblocks)]
    fb = FunctionBuilder(f"cfg{seed}")
    for i, name in enumerate(names):
        fb.block(name, entry=(i == 0))
    for name in names:
        fb.switch_to(name)
        roll = rng.random()
        if roll < 0.15:
            fb.ret()
        elif roll < 0.55:
            fb.br(rng.choice(names))
        else:
            cond = fb.movi(1)
            fb.br_cond(cond, rng.choice(names), rng.choice(names))
    return fb.finish()


def _reachable(entry: str, succs, removed=None) -> set[str]:
    """Blocks reachable from ``entry`` without passing through ``removed``."""
    if entry == removed:
        return set()
    seen = {entry}
    stack = [entry]
    while stack:
        for dst in succs.get(stack.pop(), []):
            if dst != removed and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


@pytest.mark.parametrize("seed", range(6))
def test_back_edges_match_scalar_dominance(seed):
    func = _random_func(seed)
    cfg = func.cfg()
    reachable = _reachable(func.entry, cfg.succs)

    def dominates(a: str, b: str) -> bool:
        return a == b or b not in _reachable(func.entry, cfg.succs, a)

    scalar = DominatorTree(func, cfg)
    assert set(scalar.rpo) == reachable
    for a in reachable:
        for b in reachable:
            assert scalar.dominates(a, b) == dominates(a, b), (a, b)

    expected = {
        (src, dst)
        for src in reachable
        for dst in cfg.succs[src]
        if dominates(dst, src)
    }
    forest = LoopForest(func, cfg)
    found = {edge for loop in forest.loops.values() for edge in loop.back_edges}
    assert found == expected
    assert set(forest.loops) == {dst for _, dst in expected}
    for src in func.blocks:
        for dst in cfg.succs.get(src, []):
            assert forest.is_back_edge(src, dst) == ((src, dst) in expected)
