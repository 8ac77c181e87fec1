"""Profile collection: run the functional simulator with a loop-aware hook.

Block and edge counts are the interpreter's own ``SimStats.edge_counts``.
Trip-count histograms need a little machinery: a loop "visit" starts when
control reaches the loop header from outside the loop and ends when
control leaves the loop (or the activation returns); the number of header
executions in between is the visit's trip count.  Visits are keyed by
call depth so recursive activations of the same function do not clobber
each other.  The hook sees only the edges that can start, count or close
a visit: every edge out of a loop header, every edge that leaves a loop,
and every return.  On any other edge the block is no header, the edge
stays inside every loop that contains the block, and control does not
return, so the hook would change nothing.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.loops import LoopForest
from repro.ir.function import Module
from repro.ir.opcodes import Opcode
from repro.profiles.data import ProfileData
from repro.sim.functional import Interpreter


class _LoopTracker:
    """Per-module loop membership tables used by the trace hook, and the
    edges the hook watches."""

    def __init__(self, module: Module):
        #: func -> block -> tuple of headers of loops containing the block
        self.membership: dict[str, dict[str, tuple[str, ...]]] = {}
        #: func -> set of loop headers
        self.headers: dict[str, set[str]] = {}
        #: (func, block, target|None) edges out of a header, out of a
        #: loop, or returning
        self.watch: set[tuple[str, str, Optional[str]]] = set()
        for func in module:
            forest = LoopForest(func)
            table: dict[str, tuple[str, ...]] = {}
            for name in func.blocks:
                loops = []
                loop = forest.innermost_loop(name)
                while loop is not None:
                    loops.append(loop.header)
                    loop = loop.parent
                table[name] = tuple(loops)
            self.membership[func.name] = table
            self.headers[func.name] = set(forest.loops)
            for name, block in func.blocks.items():
                for instr in block.instrs:
                    if not instr.is_branch:
                        continue
                    target = instr.target if instr.op is Opcode.BR else None
                    if (
                        target is None
                        or name in forest.loops
                        or not set(table[name]) <= set(table.get(target, ()))
                    ):
                        self.watch.add((func.name, name, target))


class ProfileCollector:
    """Builds a :class:`ProfileData` from one or more training runs."""

    def __init__(self, module: Module):
        self.module = module
        self.profile = ProfileData()
        self._tracker = _LoopTracker(module)
        # (depth, func) -> {header: trip_counter}
        self._active: dict[tuple[int, str], dict[str, int]] = {}

    # -- trace hook -----------------------------------------------------

    def _on_block(self, func: str, block: str, fired, depth: int,
                  nullified: list) -> None:
        profile = self.profile
        target = fired.target if fired.op is Opcode.BR else None

        key = (depth, func)
        active = self._active.get(key)
        if active is None:
            active = self._active[key] = {}
        membership = self._tracker.membership[func]
        in_loops = membership.get(block, ())

        # Header execution: start or continue a visit.
        if block in self._tracker.headers[func]:
            active[block] = active.get(block, 0) + 1

        if target is None:
            # Function return: close every active visit at this depth.
            for header, trips in active.items():
                profile.record_trip(func, header, trips)
            active.clear()
            return

        dst_loops = set(membership.get(target, ()))
        for header in tuple(active):
            if header in in_loops and header not in dst_loops:
                profile.record_trip(func, header, active.pop(header))

    # -- driving ----------------------------------------------------------

    def run(self, args: tuple = (), preload: Optional[dict[int, list]] = None,
            func_name: str = "main", max_blocks: int = 5_000_000):
        interp = Interpreter(
            self.module,
            max_blocks=max_blocks,
            trace=self._on_block,
            watch=self._tracker.watch,
        )
        if preload:
            for base, values in preload.items():
                interp.preload(base, values)
        result = interp.run(func_name, args)
        self.profile.record_edges(interp.stats.edge_counts)
        return result, interp


def collect_profile(
    module: Module,
    args: tuple = (),
    preload: Optional[dict[int, list]] = None,
    max_blocks: int = 5_000_000,
) -> ProfileData:
    """Profile one training run of ``main`` and return the data."""
    collector = ProfileCollector(module)
    collector.run(args=args, preload=preload, max_blocks=max_blocks)
    return collector.profile
