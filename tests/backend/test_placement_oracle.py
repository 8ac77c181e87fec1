"""Oracle for placement and emission.

``compile_backend`` places each block once, scoring every tile per
instruction from a table of tile-to-tile distances, and emission prints
those placements with the dependence lists the placement read.  On
every program of ``tests.conftest.formed_programs`` (the 19 SPEC and 24
microbenchmark programs under each Table-2 configuration, plus three
10x programs under BF), each block's placement must equal that of the
original per-tile loop kept below: the same slot for every
instruction, the same hops and edges.  The assembly text must equal
the original emission's, which placed every block again on the
128-slot array with fresh dependence lists.  ``forward_gmti`` under BF
overflows that array (a known defect: fanout is inserted after the
split loop), and both must fail it with the same error.

The reference prints with the production ``format_block_assembly``, so
the comparison cannot see a change to what that function prints (the
``reads=``/``writes=``/``size=`` header, say).  A sha256 of each
program's assembly text (or of the overflow's error) is therefore also
pinned in ``assembly_golden.json``.  Only a change to the backend's
output may re-freeze it::

    PYTHONPATH=src python tests/backend/freeze_assembly_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.depgraph import dep_preds
from repro.backend.assembly import format_block_assembly
from repro.backend.pipeline import compile_backend
from repro.backend.scheduler import GridScheduler, Placement
from repro.harness.tables import TABLE2_HEURISTICS
from tests.conftest import formed_programs

GOLDEN_PATH = Path(__file__).with_name("assembly_golden.json")


def assembly_sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_schedule_block(scheduler: GridScheduler, block) -> Placement:
    """The original placement loop: a generator sum per free tile."""
    if len(block) > scheduler.capacity:
        raise ValueError(
            f"{block.name}: {len(block)} instructions exceed the "
            f"{scheduler.capacity}-slot execution array"
        )
    preds = dep_preds(block)
    placement = Placement(preds=preds)
    occupancy = {
        (x, y): 0
        for x in range(scheduler.width)
        for y in range(scheduler.height)
    }
    position: dict[int, tuple[int, int]] = {}
    for index, instr in enumerate(block.instrs):
        producers = [position[p] for p in preds[index] if p in position]
        best_tile = None
        best_cost = None
        for (x, y), used in occupancy.items():
            if used >= scheduler.depth:
                continue
            cost = sum(abs(x - px) + abs(y - py) for px, py in producers)
            key = (cost, used, x, y)
            if best_cost is None or key < best_cost:
                best_cost = key
                best_tile = (x, y)
        x, y = best_tile
        slot = occupancy[best_tile]
        occupancy[best_tile] = slot + 1
        position[index] = best_tile
        placement.slots[instr.uid] = (x, y, slot)
        for px, py in producers:
            placement.total_hops += abs(x - px) + abs(y - py)
            placement.edges += 1
    return placement


def reference_emit_assembly(module, placed: dict) -> str:
    """The original emission: every block placed again on the default
    grid, its targets read from fresh dependence lists.  ``placed`` maps
    ``(function, block)`` to a reference placement already made on that
    grid, which is reused instead of placing the block twice."""
    scheduler = GridScheduler()
    parts = []
    for func in module:
        parts.append(f";;; function @{func.name}")
        for block in func.blocks.values():
            placement = placed.get((func.name, block.name))
            if placement is None:
                placement = reference_schedule_block(scheduler, block)
            parts.append(format_block_assembly(func, block, placement))
    return "\n".join(parts)


def _outcome(emit):
    try:
        return emit()
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("config", TABLE2_HEURISTICS)
def test_placement_and_emission_match_reference(config):
    default_depth = GridScheduler().depth
    blocks = overflows = 0
    digests = {}
    for name, formed, _, _ in formed_programs(config):
        module = formed.copy()
        try:
            compiled = compile_backend(module)
            got = compiled.assembly
        except ValueError as exc:
            got = f"ValueError: {exc}"
            module = formed.copy()
            compiled = compile_backend(module, emit=False)
            overflows += 1
        on_default_grid = {}
        for func in module:
            max_size = max(len(b) for b in func.blocks.values())
            scheduler = GridScheduler(depth=max(8, -(-max_size // 16)))
            for block in func.blocks.values():
                where = f"{name}/{config}: {func.name}/{block.name}"
                placed = compiled.placements[func.name][block.name]
                want = reference_schedule_block(scheduler, block)
                assert [placed.slots[i.uid] for i in block.instrs] == [
                    want.slots[i.uid] for i in block.instrs
                ], where
                assert placed.total_hops == want.total_hops, where
                assert placed.edges == want.edges, where
                assert placed.preds == want.preds, where
                if scheduler.depth == default_depth:
                    on_default_grid[func.name, block.name] = want
                blocks += 1
        want_text = _outcome(
            lambda: reference_emit_assembly(module, on_default_grid)
        )
        assert got == want_text, name
        digests[name] = assembly_sha256(got)
    assert blocks
    assert overflows == (config == "BF")
    with open(GOLDEN_PATH) as handle:
        assert digests == json.load(handle)[config]
