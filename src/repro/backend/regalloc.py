"""Bank-aware register allocation for the TRIPS-like target.

TRIPS has 128 architectural registers in 4 banks; only values that are
live *across* blocks occupy architectural registers — temporaries inside a
block travel directly between instructions on the operand network and need
no register at all.  The allocator therefore:

1. computes the set of cross-block values (live-in somewhere),
2. assigns them architectural registers round-robin across banks (so bank
   read/write pressure stays balanced — the assumption the formation-time
   size estimator makes),
3. spills the rest to memory when more than 128 values are simultaneously
   cross-block-live, inserting spill stores/reloads,
4. reports per-block read/write bank usage so the driver can trigger
   reverse if-conversion on blocks whose constraints are violated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.liveness import Liveness
from repro.analysis.predimpl import exposed_uses
from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.ir.regmask import bits, mask_of, regs_of
from repro.ir.opcodes import Opcode

#: base address of the (simulated) spill area in memory
SPILL_BASE = 1 << 30


@dataclass
class AllocationResult:
    """Outcome of allocating one function."""

    #: virtual register -> architectural register number (0..nregs-1)
    assignment: dict[int, int] = field(default_factory=dict)
    #: virtual registers that live in memory instead
    spilled: dict[int, int] = field(default_factory=dict)  # vreg -> slot
    spill_loads: int = 0
    spill_stores: int = 0
    #: per block: reads/writes per bank after allocation
    block_reads: dict[str, dict[int, int]] = field(default_factory=dict)
    block_writes: dict[str, dict[int, int]] = field(default_factory=dict)

    @property
    def spill_count(self) -> int:
        return len(self.spilled)


class RegisterAllocator:
    """Allocates architectural registers for one function."""

    def __init__(self, func: Function, nregs: int = 128, banks: int = 4):
        self.func = func
        self.nregs = nregs
        self.banks = banks
        self.result = AllocationResult()

    # -- analysis -----------------------------------------------------------

    def cross_block_values(self) -> list[int]:
        """Virtual registers live across block boundaries, hottest first.

        "Hottest" is approximated by static use count, so when spilling is
        needed the least-used values go to memory.
        """
        live = Liveness(self.func)
        cross_mask = mask_of(self.func.params)
        for name in self.func.blocks:
            cross_mask |= live.live_in[name]
        cross = regs_of(cross_mask)
        counts: dict[int, int] = {reg: 0 for reg in cross}
        for instr in self.func.instructions():
            for reg in instr.uses():
                if reg in counts:
                    counts[reg] += 1
        return sorted(cross, key=lambda r: (-counts[r], r))

    # -- allocation --------------------------------------------------------

    def allocate(self) -> AllocationResult:
        result = self.result
        candidates = self.cross_block_values()
        for index, vreg in enumerate(candidates):
            if index < self.nregs:
                # Round-robin across banks balances bank port pressure.
                result.assignment[vreg] = index
            else:
                slot = len(result.spilled)
                result.spilled[vreg] = slot
        if result.spilled:
            self._insert_spill_code()
        self._measure_bank_usage()
        return result

    def bank_of(self, arch_reg: int) -> int:
        return arch_reg % self.banks

    # -- spilling ------------------------------------------------------------

    def _insert_spill_code(self) -> None:
        """Reload spilled values at block entry, store them at block exit.

        This simple all-live spill placement is enough for a simulator
        backend: spilled values are rare (128 registers is a lot).
        """
        spilled = self.result.spilled
        for block in self.func.blocks.values():
            used = {r for i in block.instrs for r in i.uses()}
            reload_regs = sorted(used & set(spilled))
            store_regs = [r for r in bits(block.def_mask()) if r in spilled]
            prologue = []
            for vreg in reload_regs:
                addr = self.func.new_reg()
                prologue.append(
                    Instruction(
                        Opcode.MOVI, dest=addr, imm=SPILL_BASE + spilled[vreg]
                    )
                )
                prologue.append(
                    Instruction(Opcode.LOAD, dest=vreg, srcs=(addr,))
                )
                self.result.spill_loads += 1
            epilogue = []
            for vreg in store_regs:
                addr = self.func.new_reg()
                epilogue.append(
                    Instruction(
                        Opcode.MOVI, dest=addr, imm=SPILL_BASE + spilled[vreg]
                    )
                )
                epilogue.append(
                    Instruction(Opcode.STORE, srcs=(addr, vreg))
                )
                self.result.spill_stores += 1
            if prologue or epilogue:
                # Epilogue stores must precede the block's branches; since
                # hyperblocks interleave branches, insert stores before the
                # first branch instruction.
                first_branch = next(
                    (k for k, i in enumerate(block.instrs) if i.is_branch),
                    len(block.instrs),
                )
                block.instrs = (
                    prologue
                    + block.instrs[:first_branch]
                    + epilogue
                    + block.instrs[first_branch:]
                )
                block.touch()

    # -- reporting ----------------------------------------------------------

    def _measure_bank_usage(self) -> None:
        assignment = self.result.assignment
        for name, block in self.func.blocks.items():
            reads: dict[int, int] = {}
            writes: dict[int, int] = {}
            live = exposed_uses(block)
            for vreg in live:
                arch = assignment.get(vreg)
                if arch is not None:
                    bank = self.bank_of(arch)
                    reads[bank] = reads.get(bank, 0) + 1
            for vreg in bits(block.def_mask()):
                arch = assignment.get(vreg)
                if arch is not None:
                    bank = self.bank_of(arch)
                    writes[bank] = writes.get(bank, 0) + 1
            self.result.block_reads[name] = reads
            self.result.block_writes[name] = writes


def allocate_registers(func: Function, nregs: int = 128, banks: int = 4) -> AllocationResult:
    """Allocate ``func``'s cross-block values; insert spill code if needed."""
    return RegisterAllocator(func, nregs=nregs, banks=banks).allocate()
