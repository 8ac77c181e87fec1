"""Oracle for ``reverse_postorder``'s iterator-per-frame DFS.

The original walk, kept below as the reference, stores a
``(block, successor index)`` pair per stack frame and re-reads the
successor list at every step.  On every function of the formation
golden's 116 formed programs and their unformed inputs, and of
``random_program(0..15)``, both must return the same list, with a fresh
CFG view and with the function's own.
"""

from __future__ import annotations

import pytest

from repro.analysis.dominators import reverse_postorder
from repro.workloads.generators import random_program
from tests.conftest import formed_program, profiled_program
from tests.core.test_formation_golden import PIPELINES


def reference_reverse_postorder(func, cfg=None):
    cfg = cfg or func.cfg()
    visited = set()
    order = []
    stack = [(func.entry, 0)]
    visited.add(func.entry)
    while stack:
        name, idx = stack[-1]
        succs = cfg.succs.get(name, [])
        if idx < len(succs):
            stack[-1] = (name, idx + 1)
            nxt = succs[idx]
            if nxt not in visited and nxt in cfg.succs:
                visited.add(nxt)
                stack.append((nxt, 0))
        else:
            order.append(name)
            stack.pop()
    order.reverse()
    return order


def _check(modules):
    for module in modules:
        for func in module:
            cfg = func.cfg()
            want = reference_reverse_postorder(func, cfg)
            assert reverse_postorder(func, cfg) == want, func.name
            assert reverse_postorder(func) == want, func.name


@pytest.mark.parametrize("inputs", ["formed", "unformed", "random"])
def test_reverse_postorder_matches_reference(inputs):
    if inputs == "formed":
        modules = [formed_program(name, config)[0] for _, name, config in PIPELINES]
    elif inputs == "unformed":
        names = sorted({name for _, name, _ in PIPELINES})
        modules = [profiled_program(name)[0] for name in names]
    else:
        modules = [random_program(seed) for seed in range(16)]
    _check(modules)
