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

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.analysis.predimpl import exposed_mask
from repro.ir.block import BasicBlock
from repro.ir.opcodes import Opcode
from repro.ir.regmask import as_mask

_LOAD = Opcode.LOAD
_STORE = Opcode.STORE
_MOVI = Opcode.MOVI

#: Live-out accepted as a register bitmask (the hot path) or any iterable
#: of register numbers (external callers, tests).
LiveOut = Union[int, Iterable[int]]


@dataclass(frozen=True)
class TripsConstraints:
    """Architectural block limits (defaults = the TRIPS prototype).

    Register reads and writes are budgeted in total against
    ``register_banks * reads_per_bank`` (``writes_per_bank``), which is
    what the Scale size estimator effectively assumes: the register
    allocator, not formation, balances them across banks.
    """

    max_instructions: int = 128
    max_memory_ops: int = 32
    register_banks: int = 4
    reads_per_bank: int = 8
    writes_per_bank: int = 8
    #: data targets an instruction can encode; more consumers need fanout.
    instruction_targets: int = 2

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


class BlockEstimate:
    """Sizing of one block against :class:`TripsConstraints`.

    Counting register reads (``exposed_mask``) costs about as much as the
    rest of an estimate, and the count can decide legality only when the
    instruction, memory-op and write limits all hold.  ``estimate_block``
    counts reads only then.  An estimate that failed one of those limits
    counts them on the first read of ``reg_reads``, ``violations``,
    ``violation_kinds`` or ``as_attrs()``, from its block as it is at that
    point; ``legal`` never needs them.
    """

    def __init__(self) -> None:
        self.real_instructions = 0
        self.memory_ops = 0
        self.fanout_instructions = 0
        self.null_writes = 0
        self.null_stores = 0
        #: live-out registers the block writes
        self.reg_writes = 0
        self._reg_reads = 0
        self._violations: list[str] = []
        self._violation_kinds: list[str] = []
        #: ``(block, constraints)`` while the reads are not counted yet.
        self._uncounted: "Optional[tuple[BasicBlock, TripsConstraints]]" = None

    @property
    def reg_reads(self) -> int:
        """Upward-exposed registers the block reads."""
        if self._uncounted is not None:
            self._count_reads()
        return self._reg_reads

    @property
    def violations(self) -> list[str]:
        if self._uncounted is not None:
            self._count_reads()
        return self._violations

    @property
    def violation_kinds(self) -> list[str]:
        """Structural identifier per entry of ``violations`` (same order):
        one of the ``CONSTRAINT_*`` names above."""
        if self._uncounted is not None:
            self._count_reads()
        return self._violation_kinds

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
        # Reads stay uncounted only after another limit failed.
        return self._uncounted is None and not self._violations

    def violate(self, kind: str, message: str) -> None:
        """Record one constraint violation with its structural kind."""
        self._violations.append(message)
        self._violation_kinds.append(kind)

    def _count_reads(self) -> None:
        """Count register reads, then check every limit in order."""
        block, constraints = self._uncounted
        self._uncounted = None
        self._reg_reads = exposed_mask(block).bit_count()
        if self.total_instructions > constraints.max_instructions:
            self.violate(
                CONSTRAINT_INSTRUCTIONS,
                f"instructions {self.total_instructions} > "
                f"{constraints.max_instructions}",
            )
        mem_total = self.memory_ops + self.null_stores
        if mem_total > constraints.max_memory_ops:
            self.violate(
                CONSTRAINT_MEMORY_OPS,
                f"memory ops {mem_total} > {constraints.max_memory_ops}",
            )
        if self._reg_reads > constraints.max_reads:
            self.violate(
                CONSTRAINT_REG_READS,
                f"register reads {self._reg_reads} > {constraints.max_reads}",
            )
        if self.reg_writes > constraints.max_writes:
            self.violate(
                CONSTRAINT_REG_WRITES,
                f"register writes {self.reg_writes} > {constraints.max_writes}",
            )

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


#: Flags of ``estimate_block``'s per-register write record.
_UNCONDITIONAL = 1  # written unpredicated somewhere in the block
_LAST_MOVI = 2  # last written by MOVI: a constant, rematerialized


def estimate_block(
    block: BasicBlock,
    live_out: LiveOut,
    constraints: TripsConstraints,
) -> BlockEstimate:
    """Size ``block`` against the constraints.

    ``live_out`` — a register bitmask (or any iterable of register
    numbers) — is the set of registers live on exit; it determines the
    block's register-write outputs and the null-write padding.

    One dict holds two facts per written register, whether some write of
    it is unpredicated and whether its last write is a ``MOVI``, so each
    instruction costs per instruction rather than per bit of the register
    namespace; the live-out mask is read once per written register.
    """
    live_out_mask = as_mask(live_out)
    consumers = {}
    writes: dict[int, int] = {}  # reg -> _UNCONDITIONAL | _LAST_MOVI flags
    predicated_stores = 0

    consumers_get = consumers.get
    writes_get = writes.get
    memory_ops = 0
    for instr in block.instrs:
        op = instr.op
        dest = instr.dest
        pred = instr.pred
        if dest is not None:
            if pred is None:
                writes[dest] = (
                    _UNCONDITIONAL | _LAST_MOVI if op is _MOVI
                    else _UNCONDITIONAL
                )
            elif op is _MOVI:
                writes[dest] = writes_get(dest, 0) | _LAST_MOVI
            else:
                writes[dest] = writes_get(dest, 0) & _UNCONDITIONAL
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
    # Fanout slots for consumers beyond the instruction's targets;
    # constants are rematerialized, not fanned out.
    width = constraints.instruction_targets
    fanout = 0
    for reg, count in consumers.items():
        if count > width and not writes_get(reg, 0) & _LAST_MOVI:
            fanout += count - width
    est.fanout_instructions = fanout

    # Output padding (fixed-output rule): live-out registers written only
    # under a predicate need a null write for the paths that skip them;
    # predicated stores need a matching null store.
    live_written = [reg for reg in writes if live_out_mask >> reg & 1]
    est.null_writes = sum(
        1 for reg in live_written if not writes[reg] & _UNCONDITIONAL
    )
    est.null_stores = predicated_stores

    # Register banking: reads = upward-exposed registers (predicate-
    # implication aware), writes = live-out registers the block defines.
    # Reads are counted now only if they can still decide legality.
    est.reg_writes = len(live_written)
    est._uncounted = (block, constraints)
    if (
        est.total_instructions <= constraints.max_instructions
        and est.memory_ops + est.null_stores <= constraints.max_memory_ops
        and est.reg_writes <= constraints.max_writes
    ):
        est._count_reads()
    return est


def legal_block(
    block: BasicBlock, live_out: LiveOut, constraints: TripsConstraints
) -> bool:
    """The paper's ``LegalBlock`` check."""
    return estimate_block(block, live_out, constraints).legal
