"""Instruction placement on the TRIPS execution array.

TRIPS maps each block's instructions onto a 4x4 grid of ALUs, eight
instruction slots per ALU (4*4*8 = 128).  Operands travel on a routed
mesh, so placement determines communication latency: dependent
instructions want to be on the same or adjacent tiles.  This is a greedy
simplification of the SPDI scheduler [Nagarajan et al., PACT'04]: place in
dependence (topological) order, choosing the free slot that minimizes the
summed Manhattan distance to the already-placed producers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from operator import add

from repro.analysis.depgraph import dep_preds
from repro.ir.block import BasicBlock


@dataclass
class Placement:
    """Placement of one block's instructions on the ALU grid."""

    #: instruction uid -> (x, y, slot)
    slots: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    total_hops: int = 0
    edges: int = 0
    #: the block's ``dep_preds``, which emission reuses for its targets
    preds: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def average_hops(self) -> float:
        return self.total_hops / self.edges if self.edges else 0.0


@functools.lru_cache(maxsize=None)
def _hop_table(width: int, height: int, depth: int) -> tuple:
    """``table[s][t]``: the hops between tiles s and t, times ``depth *
    width * height``.

    Tile t is ``(t // height, t % height)``, so t orders tiles by (x, y),
    and a tile's placement key ``hops * depth * ntiles + used * ntiles +
    t`` orders as the tuple ``(hops, used, x, y)``: a free tile has
    ``used < depth``.
    """
    ntiles = width * height
    scale = depth * ntiles
    return tuple(
        tuple(
            (abs(s // height - t // height) + abs(s % height - t % height))
            * scale
            for t in range(ntiles)
        )
        for s in range(ntiles)
    )


class GridScheduler:
    """Places blocks onto a ``width`` x ``height`` grid with ``depth``
    instruction slots per tile."""

    def __init__(self, width: int = 4, height: int = 4, depth: int = 8):
        self.width = width
        self.height = height
        self.depth = depth

    @property
    def capacity(self) -> int:
        return self.width * self.height * self.depth

    def check_fits(self, block: BasicBlock) -> None:
        """Raise ``ValueError`` if ``block`` has more instructions than
        the grid has slots."""
        if len(block) > self.capacity:
            raise ValueError(
                f"{block.name}: {len(block)} instructions exceed the "
                f"{self.capacity}-slot execution array"
            )

    def schedule_block(self, block: BasicBlock) -> Placement:
        """Place each instruction, in order, on the free tile minimizing
        ``(hops, used, x, y)``: summed hops to its producers, then the
        tile's load (lightly loaded tiles win ties, spreading issue load),
        then its coordinates.

        The tuple is encoded as one integer per tile (see ``_hop_table``),
        so an instruction's keys are its producers' table rows added to
        ``base`` and one ``min`` picks the tile.
        """
        self.check_fits(block)
        height, depth = self.height, self.depth
        ntiles = self.width * height
        scale = depth * ntiles
        hops = _hop_table(self.width, height, depth)
        # base[t] = used * ntiles + t, or infinity once tile t is full.
        base = list(range(ntiles))
        tile_of: list[int] = []  # instr index -> tile
        preds = dep_preds(block)
        placement = Placement(preds=preds)
        slots = placement.slots
        total_hops = edges = 0
        for instr, producers in zip(block.instrs, preds):
            keys = base
            for p in producers:
                keys = map(add, hops[tile_of[p]], keys)
            best = min(keys)
            tile = best % ntiles
            slot = base[tile] // ntiles
            base[tile] = base[tile] + ntiles if slot + 1 < depth else math.inf
            tile_of.append(tile)
            slots[instr.uid] = (tile // height, tile % height, slot)
            total_hops += best // scale
            edges += len(producers)
        placement.total_hops = total_hops
        placement.edges = edges
        return placement


def schedule_function(func, scheduler: GridScheduler = None) -> dict[str, Placement]:
    """Placement for every block of a function."""
    scheduler = scheduler or GridScheduler()
    return {
        name: scheduler.schedule_block(block)
        for name, block in func.blocks.items()
    }
