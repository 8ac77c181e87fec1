"""TRIPS structural block constraints and the ``LegalBlock`` estimator.

The TRIPS ISA restricts every block to (Section 2 of the paper):

1. at most 128 instructions,
2. at most 32 load/store identifiers,
3. at most 8 reads and 8 writes per register bank (4 banks),
4. a fixed number of outputs: a constant number of register writes and
   stores, plus exactly one branch, must be produced on every execution.

Constraint 4 is what makes duplication expensive on an EDGE target:
a value written on only one predicate path needs a null write on the other
paths, and a predicated store needs a matching null store.  The estimator
below charges those padding instructions, together with the fanout movs the
backend will later insert for values with many consumers, so hyperblock
formation converges against a realistic size — exactly the role the size
estimator plays in the Scale/TRIPS compiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

from repro.analysis.predimpl import exposed_mask
from repro.ir.block import BasicBlock
from repro.ir.opcodes import Opcode
from repro.ir.regmask import as_mask, bits

_LOAD = Opcode.LOAD
_STORE = Opcode.STORE
_MOVI = Opcode.MOVI

#: Live-out accepted as a register bitmask (the hot path) or any iterable
#: of register numbers (external callers, tests).
LiveOut = Union[int, Iterable[int]]


@dataclass(frozen=True)
class TripsConstraints:
    """Architectural block limits (defaults = the TRIPS prototype)."""

    max_instructions: int = 128
    max_memory_ops: int = 32
    register_banks: int = 4
    reads_per_bank: int = 8
    writes_per_bank: int = 8
    #: data targets an instruction can encode; more consumers need fanout.
    instruction_targets: int = 2
    #: if True, charge reads/writes to banks by hashing virtual register
    #: numbers (pessimistic: the later register allocator balances banks).
    #: The default budgets *total* reads/writes against banks*per_bank,
    #: which is what the Scale size estimator effectively assumes.
    strict_banking: bool = False

    def bank_of(self, reg: int) -> int:
        return reg % self.register_banks

    @property
    def max_reads(self) -> int:
        return self.register_banks * self.reads_per_bank

    @property
    def max_writes(self) -> int:
        return self.register_banks * self.writes_per_bank


#: A configuration with everything effectively unlimited, for experiments
#: that isolate policy effects from structural limits.
UNLIMITED = TripsConstraints(
    max_instructions=1 << 30,
    max_memory_ops=1 << 30,
    reads_per_bank=1 << 30,
    writes_per_bank=1 << 30,
)


#: Structural-constraint identifiers used in ``violation_kinds`` (and in
#: trace ``reject`` events): which of the TRIPS block limits fired.
CONSTRAINT_INSTRUCTIONS = "instructions"
CONSTRAINT_MEMORY_OPS = "memory_ops"
CONSTRAINT_REG_READS = "register_reads"
CONSTRAINT_REG_WRITES = "register_writes"
CONSTRAINT_BANK_READS = "bank_reads"
CONSTRAINT_BANK_WRITES = "bank_writes"


@dataclass
class BlockEstimate:
    """Sizing of one block against :class:`TripsConstraints`."""

    real_instructions: int = 0
    memory_ops: int = 0
    fanout_instructions: int = 0
    null_writes: int = 0
    null_stores: int = 0
    #: total register-read/-write outputs (exposed reads, live-out writes)
    reg_reads: int = 0
    reg_writes: int = 0
    #: per-bank breakdowns, filled only under ``strict_banking``
    bank_reads: dict[int, int] = field(default_factory=dict)
    bank_writes: dict[int, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    #: structural identifier per entry of ``violations`` (same order):
    #: one of the ``CONSTRAINT_*`` names above.
    violation_kinds: list[str] = field(default_factory=list)

    @property
    def total_instructions(self) -> int:
        return (
            self.real_instructions
            + self.fanout_instructions
            + self.null_writes
            + self.null_stores
        )

    @property
    def legal(self) -> bool:
        return not self.violations

    def violate(self, kind: str, message: str) -> None:
        """Record one constraint violation with its structural kind."""
        self.violations.append(message)
        self.violation_kinds.append(kind)

    def as_attrs(self) -> dict:
        """Estimator values as flat, JSON-safe trace-event attributes."""
        return {
            "real_instructions": self.real_instructions,
            "fanout_instructions": self.fanout_instructions,
            "null_writes": self.null_writes,
            "null_stores": self.null_stores,
            "total_instructions": self.total_instructions,
            "memory_ops": self.memory_ops,
            "reg_reads": self.reg_reads,
            "reg_writes": self.reg_writes,
        }


def _dict_fanout(consumers: dict, remat: int, width: int) -> int:
    """Fanout slots for consumers beyond ``width`` (constants excluded)."""
    fanout = 0
    if remat:
        for reg, count in consumers.items():
            if count > width and not remat >> reg & 1:
                fanout += count - width
    else:
        for count in consumers.values():
            if count > width:
                fanout += count - width
    return fanout


def estimate_block(
    block: BasicBlock,
    live_out: LiveOut,
    constraints: TripsConstraints,
) -> BlockEstimate:
    """Size ``block`` against the constraints.

    ``live_out`` — a register bitmask (or any iterable of register
    numbers) — is the set of registers live on exit; it determines the
    block's register-write outputs and the null-write padding.
    """
    live_out_mask = as_mask(live_out)
    consumers = {}
    unconditional_writers = 0  # mask of unpredicated destinations
    written = 0  # mask of all destinations
    remat = 0  # constants: rematerialized, not fanned out
    predicated_stores = 0

    consumers_get = consumers.get
    memory_ops = 0
    for instr in block.instrs:
        op = instr.op
        dest = instr.dest
        pred = instr.pred
        if dest is not None:
            bit = 1 << dest
            if op is _MOVI:
                remat |= bit
            else:
                remat &= ~bit
            written |= bit
            if pred is None:
                unconditional_writers |= bit
        for reg in instr.srcs:
            consumers[reg] = consumers_get(reg, 0) + 1
        if pred is not None:
            consumers[pred.reg] = consumers_get(pred.reg, 0) + 1
        if op is _LOAD:
            memory_ops += 1
        elif op is _STORE:
            memory_ops += 1
            if pred is not None:
                predicated_stores += 1

    est = BlockEstimate()
    est.real_instructions = len(block.instrs)
    est.memory_ops = memory_ops
    est.fanout_instructions = _dict_fanout(
        consumers, remat, constraints.instruction_targets
    )

    # Output padding (fixed-output rule): live-out registers written only
    # under a predicate need a null write for the paths that skip them;
    # predicated stores need a matching null store.
    live_writes = written & live_out_mask
    est.null_writes = (live_writes & ~unconditional_writers).bit_count()
    est.null_stores = predicated_stores

    # Register banking: reads = upward-exposed registers (predicate-
    # implication aware), writes = live-out registers the block defines.
    reads_mask = exposed_mask(block)
    est.reg_reads = reads_mask.bit_count()
    est.reg_writes = live_writes.bit_count()

    # Violations.
    if est.total_instructions > constraints.max_instructions:
        est.violate(
            CONSTRAINT_INSTRUCTIONS,
            f"instructions {est.total_instructions} > "
            f"{constraints.max_instructions}",
        )
    mem_total = est.memory_ops + est.null_stores
    if mem_total > constraints.max_memory_ops:
        est.violate(
            CONSTRAINT_MEMORY_OPS,
            f"memory ops {mem_total} > {constraints.max_memory_ops}",
        )
    if constraints.strict_banking:
        bank_of = constraints.bank_of
        bank_reads = est.bank_reads
        bank_writes = est.bank_writes
        for reg in bits(reads_mask):
            bank = bank_of(reg)
            bank_reads[bank] = bank_reads.get(bank, 0) + 1
        for reg in bits(live_writes):
            bank = bank_of(reg)
            bank_writes[bank] = bank_writes.get(bank, 0) + 1
        for bank, count in bank_reads.items():
            if count > constraints.reads_per_bank:
                est.violate(
                    CONSTRAINT_BANK_READS,
                    f"bank {bank} reads {count} > {constraints.reads_per_bank}",
                )
        for bank, count in bank_writes.items():
            if count > constraints.writes_per_bank:
                est.violate(
                    CONSTRAINT_BANK_WRITES,
                    f"bank {bank} writes {count} > "
                    f"{constraints.writes_per_bank}",
                )
    else:
        if est.reg_reads > constraints.max_reads:
            est.violate(
                CONSTRAINT_REG_READS,
                f"register reads {est.reg_reads} > {constraints.max_reads}",
            )
        if est.reg_writes > constraints.max_writes:
            est.violate(
                CONSTRAINT_REG_WRITES,
                f"register writes {est.reg_writes} > {constraints.max_writes}",
            )
    return est


def legal_block(
    block: BasicBlock, live_out: LiveOut, constraints: TripsConstraints
) -> bool:
    """The paper's ``LegalBlock`` check."""
    return estimate_block(block, live_out, constraints).legal
