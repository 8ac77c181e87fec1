"""Oracle for the VLIW path prepass.

``VLIWPolicy.begin_block`` enumerates paths from per-version dependence
heights kept on each block's shape, with running sums carried down
the walk and O(1) profile probabilities.  After every call made while
forming the 24 microbenchmarks and 19 SPEC programs under the two VLIW
Table-2 configurations, its paths, inclusion set and ranks must equal
those of the reference below, which is the original walk verbatim: a
dependence graph per block per leaf, ``has_call()`` per successor, and an
edge-table scan per probability (``scan_edge_probability``).  Floats are
compared exactly.  Every cached height of a block still in the function
must also equal a fresh computation.
"""

from __future__ import annotations

import pytest

from repro.core.policies import VLIWPolicy
from repro.harness.experiment import heuristic_config
from repro.profiles.collect import collect_profile
from repro.workloads.microbench import MICROBENCH_ORDER, MICROBENCHMARKS
from repro.workloads.spec import SPEC_BENCHMARKS, SPEC_ORDER
from tests.conftest import fresh_height, scan_edge_probability


def _reference_paths(policy, ctx, seed) -> list[tuple]:
    func = ctx.func
    cfg = ctx.cfg
    loops = ctx.loops
    profile = ctx.profile
    paths: list[tuple] = []

    def walk(name, acc, prob):
        if len(paths) >= policy.max_paths:
            return
        acc.append(name)
        succs = [
            s
            for s in cfg.succs.get(name, [])
            if s not in acc
            and not loops.is_back_edge(name, s)
            and not loops.is_header(s)
            and s != func.entry
            and not func.blocks[s].has_call()
        ]
        if not succs or len(acc) >= policy.max_path_blocks:
            blocks = [func.blocks[b] for b in acc]
            paths.append((
                tuple(acc),
                prob,
                max(1, sum(fresh_height(b) for b in blocks)),
                max(1, sum(len(b) for b in blocks)),
            ))
        else:
            for succ in succs:
                p = scan_edge_probability(profile, func.name, name, succ)
                walk(succ, acc, prob * max(p, 1e-3))
        acc.pop()

    seed_count = max(1, profile.block_count(func.name, seed))
    walk(seed, [], float(seed_count))
    return paths


def _reference_selection(policy, paths, seed):
    included = {seed}
    rank: dict[str, float] = {}
    if not paths:
        return included, rank
    main = max(paths, key=lambda p: p[1])
    priorities = [
        freq
        * (main[2] / height) ** policy.height_weight
        * (main[3] / ops) ** policy.ops_weight
        for _, freq, height, ops in paths
    ]
    best = max(priorities)
    if best <= 0:
        return included, rank
    for (names, *_), priority in zip(paths, priorities):
        if priority >= policy.threshold * best:
            for i, name in enumerate(names):
                included.add(name)
                value = priority * (1.0 - i * 1e-6)
                if value > rank.get(name, 0.0):
                    rank[name] = value
    return included, rank


@pytest.fixture(scope="module")
def programs():
    out = []
    for table, order in (
        (MICROBENCHMARKS, MICROBENCH_ORDER),
        (SPEC_BENCHMARKS, SPEC_ORDER),
    ):
        for name in order:
            workload = table[name]
            module = workload.module()
            profile = collect_profile(
                module.copy(), args=workload.args, preload=workload.preload
            )
            out.append((module, profile))
    return out


@pytest.mark.parametrize("config", ["VLIW", "Convergent VLIW"])
def test_prepass_matches_reference_enumeration(programs, monkeypatch, config):
    enumerate_paths = VLIWPolicy._enumerate_paths
    begin_block = VLIWPolicy.begin_block
    returned: list = []
    calls = heights_checked = 0

    def recording(self, ctx, seed):
        paths = enumerate_paths(self, ctx, seed)
        returned.append(paths)
        return paths

    def checked(self, ctx, hb_name):
        nonlocal calls, heights_checked
        returned.clear()
        begin_block(self, ctx, hb_name)
        calls += 1
        where = f"{ctx.func.name}: seed {hb_name}"
        expected = _reference_paths(self, ctx, hb_name)
        (paths,) = returned
        got = [(p.blocks, p.frequency, p.height, p.ops) for p in paths]
        assert got == expected, where
        included, rank = _reference_selection(self, expected, hb_name)
        assert self._included == included, where
        assert self._rank == rank, where
        for block in ctx.func.blocks.values():
            shape = block._shape
            if (
                shape is not None
                and shape.version == block.version
                and shape.height is not None
            ):
                fresh = fresh_height(block)
                assert shape.height == fresh, f"{where}: height of {block.name}"
                heights_checked += 1

    # A failed check fails its function safe, with the check's message
    # in the report.
    monkeypatch.setattr(VLIWPolicy, "_enumerate_paths", recording)
    monkeypatch.setattr(VLIWPolicy, "begin_block", checked)
    for module, profile in programs:
        report = heuristic_config(config)(module.copy(), profile)
        assert report.all_ok, report.describe()
    assert calls and heights_checked
