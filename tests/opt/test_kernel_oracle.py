"""Oracle for the per-trial kernels of the optimizer and the estimator.

Convergent formation runs ``optimize_block`` with its ``value_number``
and ``eliminate_dead_code`` passes (``repro.opt.local``),
``estimate_block`` (``repro.core.constraints``) and the ``exposed_mask``
it reads (``repro.analysis.predimpl``) on every attempted merge.  The
passes and the estimator keep per-register state (dicts and sets)
instead of register bitmasks as wide as the function's register
namespace.  The mask-based kernels they replaced are kept below as
references, verbatim apart from their names, ``exposed_mask``'s version
cache and the estimate's result type (the eager ``BlockEstimate`` that
counted reads on every call).  So is the round loop that ran every call
to ``max_rounds`` while a round still rewrote something, even a round
that left the block as it found it.

On every input both must return equal results and leave equal
instruction payloads: the ``optimize_block``, pass and trial-estimate
calls recorded while SPEC, microbenchmark and 10x programs form
(``optimize_block``'s two call sites, the pass table and
``merge.estimate_block`` wrapped), the blocks of ``random_program(0..15)``
before and after BF formation, and hand-built corner cases.  Estimates
are also compared under tight limits, so that every violation text is
exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from unittest import mock

import pytest

from repro.analysis.liveness import Liveness
from repro.analysis.predimpl import _VersionedImplication, exposed_mask
from repro.core import merge
from repro.core.constraints import (
    CONSTRAINT_INSTRUCTIONS,
    CONSTRAINT_MEMORY_OPS,
    CONSTRAINT_REG_READS,
    CONSTRAINT_REG_WRITES,
    LiveOut,
    TripsConstraints,
    estimate_block,
)
from repro.harness.experiment import heuristic_config
from repro.ir.block import BasicBlock
from repro.ir.instruction import Instruction, Predicate
from repro.ir.opcodes import COMMUTATIVE_OPS, Opcode
from repro.ir.regmask import as_mask
from repro.opt import local, pipeline
from repro.opt.local import (
    _DCE_REMOVABLE_OPS,
    _VALUE_OPS,
    eliminate_dead_code,
    fold_moves,
    implicit_predication,
    optimize_block,
    propagate_and_fold,
    value_number,
)
from repro.profiles import collect_profile
from repro.workloads.generators import random_inputs, random_program
from repro.workloads.spec import SPEC_ORDER
from tests.conftest import profiled_program
from tests.opt.test_local import _count_pass_calls

_LOAD = Opcode.LOAD
_STORE = Opcode.STORE
_MOVI = Opcode.MOVI


# ---------------------------------------------------------------------------
# Reference kernels: the mask-based versions, kept verbatim
# ---------------------------------------------------------------------------


def _reference_reads_between(block: BasicBlock, lo: int, hi: int, reg: int) -> bool:
    for idx in range(lo + 1, hi):
        if reg in block.instrs[idx].uses():
            return True
    return False


def reference_value_number(block: BasicBlock) -> bool:
    """Remove redundant computations; merge complementary-path duplicates.

    The availability table is generation-stamped: redefining a register is a
    single counter bump, and an entry records the generations of every
    register it depends on (sources, the provider's destination, and the
    provider's predicate register, if any).  A lookup whose recorded
    generations no longer match is stale and is dropped then, instead of the
    previous scheme of scanning the whole table on every register write —
    which was the single hottest leaf of convergent formation.
    """
    changed = False
    # key -> (provider index, clock at insertion, dependence regs).  An
    # entry is stale iff any dependence register was redefined after the
    # insertion, i.e. iff some gen[reg] exceeds the recorded clock.
    table: dict = {}
    gen: dict[int, int] = {}  # reg -> clock of its latest redefinition
    clock = 0
    mem_epoch = 0
    instrs = block.instrs
    remove: set[int] = set()
    gen_get = gen.get
    table_get = table.get
    value_ops = _VALUE_OPS
    commutative = COMMUTATIVE_OPS
    LOAD = Opcode.LOAD
    STORE = Opcode.STORE
    MOV = Opcode.MOV

    # ``remove`` only ever receives the *current* index, so no membership
    # check is needed inside the loop — removed instructions are skipped by
    # never being revisited.
    for i, instr in enumerate(instrs):
        op = instr.op
        dest = instr.dest
        if op is STORE:
            mem_epoch += 1
        if dest is None or op not in value_ops:
            if dest is not None:
                clock += 1
                gen[dest] = clock
            continue
        srcs = instr.srcs
        if len(srcs) == 2 and srcs[0] > srcs[1] and op in commutative:
            srcs = (srcs[1], srcs[0])
        if op is LOAD:
            key = (op, srcs, instr.imm, mem_epoch)
        else:
            key = (op, srcs, instr.imm)
        if dest in srcs:
            # Self-referential (dest is also a source): the table entry
            # would describe the *old* value of the source, which this
            # instruction just overwrote — never record or match it.
            clock += 1
            gen[dest] = clock
            continue
        entry = table_get(key)
        prev_idx = None
        if entry is not None:
            prev_idx, ins_clock, deps = entry
            for reg in deps:
                if gen_get(reg, 0) > ins_clock:
                    del table[key]
                    prev_idx = None
                    break
        pred = instr.pred
        if prev_idx is None:
            clock += 1
            gen[dest] = clock
            deps = srcs + (dest,) if pred is None else srcs + (dest, pred.reg)
            table[key] = (i, clock, deps)
            continue
        prev = instrs[prev_idx]
        prev_pred = prev.pred
        merged = False
        if prev_pred is None or (pred is not None and prev_pred == pred):
            # The value is available whenever instr would execute.
            if prev.dest == dest:
                if not _reference_reads_between(block, prev_idx, i, dest):
                    remove.add(i)
                    merged = True
            else:
                clock += 1
                gen[dest] = clock
                instr.op = MOV
                instr.srcs = (prev.dest,)
                instr.imm = None
                merged = True
        if (
            not merged
            and prev_pred is not None
            and pred is not None
            and prev_pred.reg == pred.reg
            and prev_pred.sense != pred.sense
            and prev.dest == dest
            and not _reference_reads_between(block, prev_idx, i, dest)
        ):
            # Instruction merging: the same computation on both sides of a
            # predicate collapses to one unconditional instruction.  The
            # provider no longer depends on its predicate register, so its
            # entry is re-stamped without it — otherwise a later
            # redefinition of the (now irrelevant) predicate register would
            # evict it.  No dependence register was redefined since the
            # original insertion (the lookup above just validated that), so
            # stamping with the current clock is exact.
            prev.pred = None
            table[key] = (prev_idx, clock, srcs + (dest,))
            remove.add(i)
            merged = True
        if merged:
            changed = True
        else:
            clock += 1
            gen[dest] = clock
            deps = srcs + (dest,) if pred is None else srcs + (dest, pred.reg)
            table[key] = (i, clock, deps)

    if remove:
        block.instrs = [ins for j, ins in enumerate(instrs) if j not in remove]
    return changed


def reference_eliminate_dead_code(block: BasicBlock, live_out: "int | set[int]") -> bool:
    """Remove pure instructions whose results are never observed."""
    live = as_mask(live_out)
    keep: list[Instruction] = []
    keep_append = keep.append
    removable_ops = _DCE_REMOVABLE_OPS
    changed = False
    for instr in reversed(block.instrs):
        dest = instr.dest
        if (
            dest is not None
            and not live >> dest & 1
            and instr.op in removable_ops
        ):
            changed = True
            continue
        pred = instr.pred
        if dest is not None and pred is None:
            live &= ~(1 << dest)
        for reg in instr.srcs:
            live |= 1 << reg
        if pred is not None:
            live |= 1 << pred.reg
        keep_append(instr)
    if changed:
        keep.reverse()
        block.instrs = keep
    return changed


def reference_exposed_mask(block: BasicBlock) -> int:
    """Upward-exposed register reads as a bitmask (bit ``r`` = register ``r``).

    A read of ``r`` guarded by ``q`` is exposed unless an earlier write of
    ``r`` was unconditional or guarded by ``p`` with ``q ⇒ p`` under
    version-consistent implication.  The predicate register itself is read
    unconditionally (to decide execution), so it counts as an unguarded
    use.

    """

    instrs = block.instrs
    exposed = 0
    killed = 0

    for instr in instrs:
        if instr.pred is not None:
            break
    else:
        # Entirely unpredicated: every write kills, no implication needed.
        for instr in instrs:
            for reg in instr.srcs:
                if not killed >> reg & 1:
                    exposed |= 1 << reg
            if instr.dest is not None:
                killed |= 1 << instr.dest
        return exposed

    imp = _VersionedImplication()
    covered = imp.covered
    imp_version = imp.version
    imp_ver_get = imp_version.get
    record_combinator = imp.record_combinator
    #: reg -> list of (write predicate, version of pred reg at write)
    cond_writes: dict[int, list[tuple[Predicate, int]]] = {}
    cond_writes_get = cond_writes.get
    _COMBINATORS = (Opcode.AND, Opcode.NOT, Opcode.MOV)

    for instr in instrs:
        guard = instr.pred
        if guard is not None:
            # The predicate register is read unconditionally.
            settled = killed | exposed
            if not settled >> guard.reg & 1:
                exposed |= 1 << guard.reg
                settled = killed | exposed
            for reg in instr.srcs:
                if settled >> reg & 1:
                    continue
                writes = cond_writes_get(reg)
                if writes is not None:
                    for write_pred, write_ver in writes:
                        if covered(guard, write_pred, write_ver):
                            break
                    else:
                        exposed |= 1 << reg
                        settled |= 1 << reg
                else:
                    exposed |= 1 << reg
                    settled |= 1 << reg
        else:
            settled = killed | exposed
            for reg in instr.srcs:
                if not settled >> reg & 1:
                    bit = 1 << reg
                    exposed |= bit
                    settled |= bit
        dest = instr.dest
        if dest is not None:
            imp_version[dest] = imp_ver_get(dest, 0) + 1
            if guard is None:
                # Record combinator facts after bumping the version: the
                # edges constrain the *new* value of dest.
                killed |= 1 << dest
                if cond_writes:
                    cond_writes.pop(dest, None)
                if instr.op in _COMBINATORS:
                    record_combinator(instr)
            else:
                cond_writes.setdefault(dest, []).append(
                    (Predicate(guard.reg, guard.sense), imp_ver_get(guard.reg, 0))
                )
    return exposed


@dataclass
class ReferenceEstimate:
    """Sizing of one block against :class:`TripsConstraints`."""

    real_instructions: int = 0
    memory_ops: int = 0
    fanout_instructions: int = 0
    null_writes: int = 0
    null_stores: int = 0
    #: total register-read/-write outputs (exposed reads, live-out writes)
    reg_reads: int = 0
    reg_writes: int = 0
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


def _reference_dict_fanout(consumers: dict, remat: int, width: int) -> int:
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


def reference_estimate_block(
    block: BasicBlock,
    live_out: LiveOut,
    constraints: TripsConstraints,
) -> ReferenceEstimate:
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

    est = ReferenceEstimate()
    est.real_instructions = len(block.instrs)
    est.memory_ops = memory_ops
    est.fanout_instructions = _reference_dict_fanout(
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
    reads_mask = reference_exposed_mask(block)
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


_REFERENCE_PASS_FNS = (
    propagate_and_fold,
    value_number,
    fold_moves,
    implicit_predication,
    eliminate_dead_code,
)
_REFERENCE_PASSES = tuple(
    (i, fn in (fold_moves, implicit_predication, eliminate_dead_code))
    for i, fn in enumerate(_REFERENCE_PASS_FNS)
)


def reference_optimize_block(
    block: BasicBlock,
    live_out: "int | set[int]",
    max_rounds: int = 4,
) -> bool:
    """Optimize ``block`` in place; return whether anything changed."""
    live_out = as_mask(live_out)
    converged = block.converged
    if (
        converged is not None
        and converged[0] == block.version
        and converged[1] == live_out
    ):
        return False
    changed_any = False
    # Per-pass no-op elision: a pass whose input is unchanged since a run
    # where it reported no change is deterministic and would report no
    # change again, so skipping it leaves the optimization trajectory (and
    # the final IR) byte-identical to the plain round-robin loop — it only
    # removes provably redundant scans.  ``stamp`` counts block mutations;
    # ``clean[i]`` records the stamp at which pass ``i`` last confirmed the
    # block clean (or -1 while it has changes it has not yet re-confirmed).
    stamp = 0
    clean = [-1, -1, -1, -1, -1]
    for _ in range(max_rounds):
        changed = False
        for i, needs_live in _REFERENCE_PASSES:
            if clean[i] == stamp:
                continue
            fn = _REFERENCE_PASS_FNS[i]
            did = fn(block, live_out) if needs_live else fn(block)
            if did:
                changed = True
                stamp += 1
                clean[i] = -1
            else:
                clean[i] = stamp
        if not changed:
            if changed_any:
                block.touch()
            block.converged = (block.version, live_out)
            return changed_any
        changed_any = True
    if changed_any:
        # The passes mutate instructions and reassign ``instrs`` directly;
        # re-stamp once here so version-keyed analysis caches notice.
        block.touch()
    return changed_any


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

#: Programs formed with the pass table and the trial estimator wrapped:
#: the SPEC programs under BF, microbenchmarks under the other three
#: Table-2 configurations (``VLIW`` optimizes only after formation), and
#: one 10x program under BF.
RECORDED_PIPELINES = (
    *((name, "BF") for name in SPEC_ORDER),
    ("sieve", "VLIW"),
    ("bzip2_3", "Convergent VLIW"),
    ("twolf_3", "DF"),
    ("ammp_1", "DF"),
    ("scaled-440-2006", "BF"),
)

#: Estimator limits every estimate input is also sized against.
TIGHT = TripsConstraints(
    max_instructions=16, max_memory_ops=2, reads_per_bank=2, writes_per_bank=2
)


def _payload(instrs) -> tuple:
    return tuple(
        (
            instr.op, instr.dest, instr.srcs, instr.imm, instr.target,
            instr.callee, instr.origin,
            None if instr.pred is None else (instr.pred.reg, instr.pred.sense),
        )
        for instr in instrs
    )


def _block(instrs) -> BasicBlock:
    return BasicBlock("b", [instr.copy() for instr in instrs])


class _Recorder:
    """Deduplicated ``(instructions, live-out[, constraints])`` inputs."""

    def __init__(self):
        self.calls: dict = {}

    def note(self, block, *args) -> None:
        instrs = tuple(instr.copy() for instr in block.instrs)
        self.calls.setdefault((_payload(instrs), *args), (instrs, *args))

    def inputs(self) -> list:
        return list(self.calls.values())


@pytest.fixture(scope="module")
def recorded() -> dict:
    """Kernel name -> the inputs recorded while forming RECORDED_PIPELINES."""
    opt, vn, dce, est = _Recorder(), _Recorder(), _Recorder(), _Recorder()

    def wrap(fn, recorder, recorded_args):
        # ``value_number`` records its block alone: its second argument is
        # optimize_block's record of the round, not an input.
        def recording(block, *args):
            recorder.note(block, *args[:recorded_args])
            return fn(block, *args)
        return recording

    def recording_optimize(block, live_out):
        opt.note(block, live_out)
        return optimize_block(block, live_out)

    def recording_estimate(block, live_out, constraints):
        est.note(block, live_out, constraints)
        return estimate_block(block, live_out, constraints)

    passes = tuple(
        wrap(fn, vn, 0) if fn is value_number
        else wrap(fn, dce, 1) if fn is eliminate_dead_code
        else fn
        for fn in local._PASS_FNS
    )
    with mock.patch.object(local, "_PASS_FNS", passes), mock.patch.object(
        merge, "optimize_block", recording_optimize
    ), mock.patch.object(
        pipeline, "optimize_block", recording_optimize
    ), mock.patch.object(
        merge, "estimate_block", recording_estimate
    ):
        for name, config in RECORDED_PIPELINES:
            module, _, _, profile = profiled_program(name)
            heuristic_config(config)(module.copy(), profile)
    return {
        "optimize": opt.inputs(), "vn": vn.inputs(), "dce": dce.inputs(),
        "estimate": est.inputs(),
    }


@pytest.fixture(scope="module")
def random_blocks() -> list:
    """``(instructions, live-out)`` of every block of ``random_program(0..15)``,
    unformed and formed under BF."""
    out = []
    for seed in range(16):
        module = random_program(seed)
        formed = module.copy()
        profile = collect_profile(module.copy(), args=random_inputs(seed))
        heuristic_config("BF")(formed, profile)
        for func in (*module, *formed):
            live = Liveness(func)
            for name, block in func.blocks.items():
                out.append((tuple(block.instrs), live.live_out[name]))
    return out


def I(op, dest=None, srcs=(), imm=None, pred=None, target=None):
    return Instruction(op, dest=dest, srcs=srcs, imm=imm, pred=pred, target=target)


P = Predicate
ADD, SUB, MOVI, TLT = Opcode.ADD, Opcode.SUB, Opcode.MOVI, Opcode.TLT

#: name -> (instructions, live-out registers).  Every case also runs with
#: every register it names live-out, and with none.
HAND_BUILT = {
    # A predicated write does not kill: the first v1 stays live.
    "predicated-redefinition-before-read": ([
        I(ADD, 1, (2, 3)),
        I(SUB, 1, (2, 3), pred=P(4)),
        I(ADD, 5, (1, 1)),
        I(ADD, 6, (1, 7), pred=P(4, False)),
        I(Opcode.RET, srcs=(5,)),
    ], {5, 6}),
    # The last write decides whether v1 is a constant.
    "movi-then-add": ([
        I(MOVI, 1, imm=3),
        I(ADD, 1, (2, 3)),
        I(ADD, 4, (1, 1)),
        I(ADD, 5, (1, 1)),
        I(MOVI, 6, imm=1),
        I(ADD, 6, (2, 2), pred=P(7)),
        I(ADD, 8, (6, 6)),
        I(ADD, 9, (6, 6)),
    ], {1, 4, 5, 6, 8, 9}),
    "add-then-movi": ([
        I(ADD, 1, (2, 3)),
        I(MOVI, 1, imm=3),
        I(ADD, 4, (1, 1)),
        I(ADD, 5, (1, 1)),
        I(ADD, 6, (2, 2)),
        I(MOVI, 6, imm=1, pred=P(7)),
        I(ADD, 8, (6, 6)),
        I(ADD, 9, (6, 6)),
    ], {1, 4, 5, 6, 8, 9}),
    # ``v1 = add v1, 1`` twice: self-reference is never a
    # value-numbering provider.
    "self-increment": ([
        I(MOVI, 2, imm=1),
        I(ADD, 1, (1, 2)),
        I(ADD, 1, (1, 2)),
        I(ADD, 3, (1, 2)),
        I(ADD, 4, (1, 2)),
    ], {1, 3, 4}),
    "commutative-keys": ([
        I(ADD, 3, (1, 2)),
        I(ADD, 4, (2, 1)),
        I(SUB, 5, (1, 2)),
        I(SUB, 6, (2, 1)),
        I(Opcode.MUL, 7, (2, 1)),
        I(Opcode.MUL, 8, (1, 2)),
    ], {3, 4, 5, 6, 7, 8}),
    # The same value on both sides of v3 becomes one unpredicated
    # instruction, which stays available after v3 is redefined.
    "complementary-path-merge": ([
        I(TLT, 3, (1, 2)),
        I(ADD, 4, (1, 2), pred=P(3)),
        I(ADD, 4, (1, 2), pred=P(3, False)),
        I(TLT, 3, (2, 1)),
        I(ADD, 5, (1, 2)),
        I(ADD, 6, (4, 5)),
    ], {4, 5, 6}),
    # The provider's guard register is redefined: no reuse.
    "provider-predicate-redefined": ([
        I(TLT, 3, (1, 2)),
        I(ADD, 4, (1, 2), pred=P(3)),
        I(TLT, 3, (2, 1)),
        I(ADD, 5, (1, 2), pred=P(3)),
        I(ADD, 6, (4, 5), pred=P(3)),
    ], {4, 5, 6}),
    "predicated-stores": ([
        I(TLT, 3, (1, 2)),
        I(Opcode.LOAD, 4, (1,), imm=0),
        I(_STORE, None, (1, 2), imm=0, pred=P(3)),
        I(Opcode.LOAD, 5, (1,), imm=0),
        I(_STORE, None, (1, 4), imm=8, pred=P(3, False)),
        I(Opcode.LOAD, 6, (1,), imm=0),
        I(ADD, 7, (4, 5)),
        I(ADD, 8, (6, 7)),
    ], {8}),
}


def _hand_built() -> list:
    out = []
    for instrs, live in HAND_BUILT.values():
        named = set()
        for instr in instrs:
            named.update(instr.uses())
            if instr.dest is not None:
                named.add(instr.dest)
        for live_out in (live, named, set()):
            out.append((tuple(instrs), as_mask(live_out)))
    return out


def _inputs(source: str, kernel: str, recorded, random_blocks) -> list:
    if source == "recorded":
        return recorded[kernel]
    if source == "random":
        return random_blocks
    return _hand_built()


SOURCES = ("recorded", "random", "hand-built")


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def _assert_pass_matches(new, reference, inputs) -> None:
    assert inputs
    for instrs, live_out in inputs:
        args = () if live_out is None else (live_out,)
        got_block, want_block = _block(instrs), _block(instrs)
        got = new(got_block, *args)
        want = reference(want_block, *args)
        assert got == want, [str(instr) for instr in instrs]
        assert _payload(got_block.instrs) == _payload(want_block.instrs), [
            str(instr) for instr in instrs
        ]


@pytest.mark.parametrize("source", SOURCES)
def test_value_number_matches_reference(source, recorded, random_blocks):
    inputs = _inputs(source, "vn", recorded, random_blocks)
    _assert_pass_matches(
        value_number, reference_value_number,
        [(instrs, None) for instrs, *_ in inputs],
    )


@pytest.mark.parametrize("source", SOURCES)
def test_eliminate_dead_code_matches_reference(source, recorded, random_blocks):
    _assert_pass_matches(
        eliminate_dead_code, reference_eliminate_dead_code,
        _inputs(source, "dce", recorded, random_blocks),
    )


@pytest.mark.parametrize("source", SOURCES)
def test_exposed_mask_matches_reference(source, recorded, random_blocks):
    inputs = _inputs(source, "estimate", recorded, random_blocks)
    assert inputs
    for instrs, *_ in inputs:
        block = _block(instrs)
        assert exposed_mask(block) == reference_exposed_mask(block), [
            str(instr) for instr in instrs
        ]


def _estimate_values(est) -> tuple:
    """Every value an estimate reports, the read count last."""
    return (
        est.legal, est.real_instructions, est.memory_ops,
        est.fanout_instructions, est.null_writes, est.null_stores,
        est.total_instructions, est.reg_writes, est.as_attrs(),
        est.violations, est.violation_kinds, est.reg_reads,
    )


@pytest.mark.parametrize("source", SOURCES)
def test_estimate_block_matches_reference(source, recorded, random_blocks):
    """Every value matches, ``legal`` read before anything that counts
    the reads; a second estimate reads ``violations`` first."""
    inputs = _inputs(source, "estimate", recorded, random_blocks)
    assert inputs
    for instrs, live_out, *constraints in inputs:
        for limits in (*constraints, TripsConstraints(), TIGHT):
            got = estimate_block(_block(instrs), live_out, limits)
            want = reference_estimate_block(_block(instrs), live_out, limits)
            assert _estimate_values(got) == _estimate_values(want), [
                str(instr) for instr in instrs
            ]
            got = estimate_block(_block(instrs), live_out, limits)
            assert (got.violations, got.legal) == (want.violations, want.legal)


def test_recorded_inputs_reach_every_branch(recorded):
    """The recorded estimates are predicated and violate every limit kind
    under the tight limits, so the oracle above sees each branch."""
    kinds = set()
    predicated = 0
    for instrs, live_out, _ in recorded["estimate"]:
        predicated += any(instr.pred is not None for instr in instrs)
        kinds.update(
            reference_estimate_block(_block(instrs), live_out, TIGHT)
            .violation_kinds
        )
    assert predicated
    assert kinds == {
        CONSTRAINT_INSTRUCTIONS, CONSTRAINT_MEMORY_OPS, CONSTRAINT_REG_READS,
        CONSTRAINT_REG_WRITES,
    }


# ---------------------------------------------------------------------------
# optimize_block: the round loop ends where the reference's answer is fixed
# ---------------------------------------------------------------------------


def _optimize_inputs(source: str, recorded, random_blocks) -> list:
    """``(instructions, live-out)`` to optimize: the recorded
    ``optimize_block`` and dead-code inputs, or the random blocks."""
    if source == "random":
        return random_blocks
    return [*recorded["optimize"], *recorded["dce"]]


@pytest.mark.parametrize("source", ("recorded", "random"))
def test_optimize_block_matches_reference(source, recorded, random_blocks):
    """The same instruction payload as the reference round loop; a call
    that reports no change left the block and its version as they were;
    and where a call recorded ``converged``, a second call on the block or
    on a fresh copy of it changes nothing."""
    inputs = _optimize_inputs(source, recorded, random_blocks)
    assert inputs
    stamped = 0
    for instrs, live_out in inputs:
        got_block, want_block = _block(instrs), _block(instrs)
        version = got_block.version
        got = optimize_block(got_block, live_out)
        want = reference_optimize_block(want_block, live_out)
        payload = _payload(got_block.instrs)
        context = [str(instr) for instr in instrs]
        assert payload == _payload(want_block.instrs), context
        if not got:
            assert payload == _payload(instrs), context
            assert got_block.version == version, context
        else:
            assert want and got_block.version != version, context
        if got_block.converged is None:
            continue
        stamped += 1
        assert got_block.converged == (got_block.version, as_mask(live_out))
        fresh = _block(got_block.instrs)
        assert not optimize_block(got_block, live_out), context
        assert not optimize_block(fresh, live_out), context
        assert _payload(fresh.instrs) == payload, context
    assert stamped


def test_dead_code_elimination_is_clean_after_its_own_change(recorded):
    """One backward walk reaches the fixpoint: a second walk over the
    first one's output keeps every instruction."""
    changed = 0
    for instrs, live_out in recorded["dce"]:
        block = _block(instrs)
        if eliminate_dead_code(block, live_out):
            changed += 1
            kept = _payload(block.instrs)
            assert not eliminate_dead_code(block, live_out)
            assert _payload(block.instrs) == kept
    assert changed


MOV = Opcode.MOV

#: ``v549 = mov v543`` lets ``propagate_and_fold`` rewrite ``v550 = mov v549``
#: to ``mov v543``; ``value_number`` then finds ``mov v543`` available in
#: v549 and maps it back.  Both copies are live-out.
COPY_CHAIN = [
    I(MOV, 549, (543,)),
    I(MOV, 550, (549,)),
]


ONE_ROUND = [fn.__name__ for fn in local._PASS_FNS]


def test_a_round_that_undoes_itself_ends_the_call(monkeypatch):
    live_out = as_mask({549, 550})
    want_block = _block(COPY_CHAIN)
    assert reference_optimize_block(want_block, live_out)  # four rounds
    calls = _count_pass_calls(monkeypatch)
    block = _block(COPY_CHAIN)
    version = block.version
    assert not optimize_block(block, live_out)
    assert calls == ONE_ROUND
    assert block.version == version
    assert block.converged == (version, live_out)
    assert _payload(block.instrs) == _payload(want_block.instrs)
    assert _payload(block.instrs) == _payload(COPY_CHAIN)


def test_the_rounds_before_a_self_undoing_one_count(monkeypatch):
    """Round 1 folds a constant, which nothing undoes, while it rewrites
    the copy back and forth; round 2 only rewrites the copy and ends the
    call."""
    instrs = [
        I(MOVI, 1, imm=2),
        I(ADD, 543, (1, 1)),
        *COPY_CHAIN,
    ]
    live_out = as_mask({1, 543, 549, 550})
    want_block = _block(instrs)
    assert reference_optimize_block(want_block, live_out)
    calls = _count_pass_calls(monkeypatch)
    block = _block(instrs)
    version = block.version
    assert optimize_block(block, live_out)
    assert calls == ONE_ROUND * 2
    assert block.version != version
    assert block.converged == (block.version, live_out)
    assert _payload(block.instrs) == _payload(want_block.instrs)
    assert block.instrs[1].op is MOVI


#: Shapes from which value_number removes one instruction, next to the
#: copy it rewrites back: a recomputation into the same register, and the
#: same computation on both sides of v3, which merges into one
#: unpredicated instruction.
REMOVALS = {
    "recomputation": [I(ADD, 5, (1, 2)), I(ADD, 5, (1, 2))],
    "complementary-paths": [
        I(TLT, 3, (1, 2)),
        I(ADD, 5, (1, 2), pred=P(3)),
        I(ADD, 5, (1, 2), pred=P(3, False)),
    ],
}


@pytest.mark.parametrize("shape", sorted(REMOVALS))
def test_a_value_number_removal_is_a_change(shape, monkeypatch):
    """value_number removes an instruction in the round that rewrites the
    copy back: that round changed the block."""
    instrs = [*COPY_CHAIN, *REMOVALS[shape]]
    live_out = as_mask({3, 5, 549, 550})
    want_block = _block(instrs)
    assert reference_optimize_block(want_block, live_out)
    calls = _count_pass_calls(monkeypatch)
    block = _block(instrs)
    assert optimize_block(block, live_out)
    assert calls == ONE_ROUND * 2
    assert len(block.instrs) == len(instrs) - 1
    assert _payload(block.instrs) == _payload(want_block.instrs)
