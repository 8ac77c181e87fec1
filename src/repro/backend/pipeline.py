"""The post-formation backend driver (right half of Figure 6).

``compile_backend`` takes a module whose hyperblocks are formed and runs:

1. register allocation (bank-aware; may insert spill code),
2. constraint re-check: spill code can push a block over the structural
   limits, in which case the block is reverse-if-converted (split) and
   allocation repeats — exactly the loop the paper describes in Section 6,
3. load/store identifier assignment,
4. fanout insertion,
5. instruction placement on the execution array,
6. assembly emission of those placements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.backend.assembly import emit_assembly
from repro.backend.fanout import FanoutStats, insert_fanout
from repro.backend.regalloc import AllocationResult, allocate_registers
from repro.backend.reverse_ifconvert import reverse_if_convert
from repro.backend.scheduler import GridScheduler, Placement, schedule_function
from repro.core.constraints import TripsConstraints
from repro.ir.function import Module


class BackendError(Exception):
    """Raised when a block cannot be made to satisfy the constraints."""


@dataclass
class CompiledProgram:
    """Everything the backend produced for one module."""

    module: Module
    allocations: dict[str, AllocationResult] = field(default_factory=dict)
    fanout: dict[str, FanoutStats] = field(default_factory=dict)
    placements: dict[str, dict[str, Placement]] = field(default_factory=dict)
    splits: list[str] = field(default_factory=list)
    assembly: str = ""

    @property
    def spill_count(self) -> int:
        return sum(a.spill_count for a in self.allocations.values())


def assign_lsids(module: Module, constraints: TripsConstraints) -> None:
    """Assign load/store identifiers per block; enforce the LSID budget."""
    for func in module:
        for block in func.blocks.values():
            lsid = 0
            for instr in block.instrs:
                if instr.is_memory:
                    instr.lsid = lsid
                    lsid += 1
            if lsid > constraints.max_memory_ops:
                raise BackendError(
                    f"@{func.name}/{block.name}: {lsid} memory ops exceed "
                    f"the {constraints.max_memory_ops} LSID budget"
                )


def compile_backend(
    module: Module,
    constraints: Optional[TripsConstraints] = None,
    nregs: int = 128,
    max_alloc_rounds: int = 4,
    emit: bool = True,
) -> CompiledProgram:
    """Run the full backend on a formed module (mutates it)."""
    constraints = constraints or TripsConstraints()
    result = CompiledProgram(module=module)

    for func in module:
        for round_index in range(max_alloc_rounds):
            allocation = allocate_registers(func, nregs=nregs)
            result.allocations[func.name] = allocation
            # Spill code may have pushed blocks over the size limit.
            over = [
                name
                for name, block in func.blocks.items()
                if len(block) > constraints.max_instructions
            ]
            if not over:
                break
            for name in over:
                pieces = reverse_if_convert(
                    func, name, constraints.max_instructions
                )
                result.splits.extend(pieces[1:])
        else:
            over = [
                name
                for name, block in func.blocks.items()
                if len(block) > constraints.max_instructions
            ]
            if over:
                raise BackendError(
                    f"@{func.name}: blocks still over-size after "
                    f"{max_alloc_rounds} allocation rounds: {over}"
                )

    assign_lsids(module, constraints)

    for func in module:
        result.fanout[func.name] = insert_fanout(
            func, targets=constraints.instruction_targets
        )
        max_size = max((len(b) for b in func.blocks.values()), default=0)
        result.placements[func.name] = schedule_function(
            func, GridScheduler(depth=max(8, -(-max_size // 16)))
        )

    if emit:
        result.assembly = emit_assembly(module, result.placements)
    return result
