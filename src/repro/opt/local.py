"""Block-local scalar optimization — the ``Optimize`` step of Figure 5.

Convergent hyperblock formation calls this on every trial merge, so the
passes here are exactly the ones the paper names:

- copy propagation and constant folding,
- (predicate-aware) value numbering, including *instruction merging*:
  identical computations on complementary predicate paths — the classic
  redundancy tail duplication creates — collapse into one unpredicated
  instruction,
- *implicit predication* (the paper's predicate optimization [25]): an
  instruction whose consumers are all guarded by a predicate implying its
  own can drop its predicate, shrinking the predicate's fanout and
  shortening the dataflow critical path,
- dead-code elimination against the block's live-out set.

``optimize_block`` runs rounds of all five passes and ends at the first
round that changes nothing, at the first round that leaves the block
exactly as it found it (``propagate_and_fold`` and ``value_number`` can
rewrite one copy back and forth forever), or after ``max_rounds``.  The
passes are deliberately block-local: after formation, hyperblocks *are*
the interesting optimization scope.
"""

from __future__ import annotations

from repro.analysis.predimpl import implication_edges, implies
from repro.ir.block import BasicBlock
from repro.ir.instruction import Instruction, Predicate
from repro.ir.regmask import as_mask
from repro.ir.opcodes import COMMUTATIVE_OPS, PURE_OPS, Opcode
from repro.ir.semantics import EVAL_BINOP as _BINOPS
from repro.ir.semantics import EvaluationError

# Opcode sets inlined into the pass loops below: these run once per
# *attempted* merge during formation, and the per-instruction `is_pure`
# property call was a measurable fraction of formation wall time.
_VALUE_OPS = PURE_OPS | {Opcode.LOAD}
_DCE_REMOVABLE_OPS = PURE_OPS | {Opcode.NULLW, Opcode.FANOUT}


def optimize_block(
    block: BasicBlock,
    live_out: "int | set[int]",
    max_rounds: int = 4,
) -> bool:
    """Optimize ``block`` in place; return whether a round changed it.

    ``live_out`` is a register bitmask (any iterable of register numbers
    is accepted and converted once on entry).

    Each round runs the five passes in order.  The call ends at the first
    round that changes nothing; at the first round that leaves the block
    exactly as it found it; or after ``max_rounds`` rounds.  A round undoes
    itself when only ``propagate_and_fold`` and ``value_number`` changed
    the block, neither made a change that cannot be undone (a constant
    fold, a removed instruction, a dropped predicate, a non-MOV turned into
    a MOV), and every instruction they rewrote has the fields it had when
    the round began: ``v550 = mov v549`` becomes ``mov v543`` through the
    copy ``v549 = mov v543`` and is mapped back.  The passes are
    deterministic in the instructions and the live-out set, so every later
    round would repeat that one, and ``max_rounds`` rounds would end with
    the same block.

    The return value counts only the rounds before one that undid itself,
    and the block is re-stamped (``touch``) only when it is true.  A call
    that ends at either kind of round leaves the block at a state no further
    call changes, and records ``(block.version, live_out)`` in
    ``block.converged``; a later call with the same pair returns ``False``
    without running a pass.  That relies on the rule that every mutation
    path calls ``BasicBlock.touch()``; the stamp keeps a reference to the
    caller's live-out int, not a copy.  A call that exhausts ``max_rounds``
    while still changing records nothing.
    """
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
    # Dead-code elimination is clean right after its own change: it records
    # reads only from the instructions it keeps, so a second walk over its
    # output keeps everything.
    stamp = 0
    clean = [-1, -1, -1, -1, -1]
    for _ in range(max_rounds):
        changed = False
        # Whether only the two forward passes changed the block this round;
        # they note what they rewrote in ``rewrites`` (see ``_restored``).
        forward_only = True
        rewrites: dict = {}
        for i, takes_live_out in _PASSES:
            if clean[i] == stamp:
                continue
            fn = _PASS_FNS[i]
            if takes_live_out:
                did = fn(block, live_out)
            else:
                did = fn(block, rewrites)
            if did:
                changed = True
                stamp += 1
                clean[i] = stamp if i == _DCE else -1
                if takes_live_out:
                    forward_only = False
            else:
                clean[i] = stamp
        if changed and not (forward_only and _restored(rewrites)):
            changed_any = True
            continue
        # Nothing changed, or the round undid itself: every later round
        # would repeat this one.
        if changed_any:
            block.touch()
        block.converged = (block.version, live_out)
        return changed_any
    if changed_any:
        # The passes mutate instructions and reassign ``instrs`` directly;
        # re-stamp once here so version-keyed analysis caches notice.
        block.touch()
    return changed_any


def _restored(rewrites: dict) -> bool:
    """Whether every instruction the forward passes rewrote this round has
    the fields they noted for it at the round's start again.

    ``rewrites`` maps an instruction to its ``(op, srcs, imm, pred)`` before
    its first rewrite of the round, or to ``None`` after a change that
    cannot be undone, which no instruction's fields equal.
    """
    for instr, fields in rewrites.items():
        if fields != (instr.op, instr.srcs, instr.imm, instr.pred):
            return False
    return True


def _note(rewrites: "dict | None", instr: Instruction) -> None:
    """Note ``instr``'s fields before its first rewrite of the round."""
    if rewrites is not None and instr not in rewrites:
        rewrites[instr] = (instr.op, instr.srcs, instr.imm, instr.pred)


# ---------------------------------------------------------------------------
# Copy propagation and constant folding
# ---------------------------------------------------------------------------


def propagate_and_fold(block: BasicBlock, rewrites: "dict | None" = None) -> bool:
    """Forward-propagate unpredicated copies/constants; fold constants.

    This runs once per optimizer round of every *attempted* merge, so the
    loop body is written for speed: the copy map is generation-stamped — a
    register write is one counter bump, and an entry whose recorded source
    generation went stale is dropped lazily at its next lookup instead of
    scanning the map on every write — and the per-instruction fast path
    (no copy facts apply, no constant facts apply) touches each dict once.

    ``rewrites`` is ``optimize_block``'s record of the round (see
    ``_restored``): a rewritten operand is noted with the fields it
    replaces, a constant fold as a change that cannot be undone.
    """
    changed = False
    # reg -> (equivalent earlier reg, that reg's generation when recorded)
    copies: dict[int, tuple[int, int]] = {}
    consts: dict[int, object] = {}  # reg -> constant value
    gen: dict[int, int] = {}  # reg -> redefinition count so far
    gen_get = gen.get
    get_binop = _BINOPS.get
    MOVI = Opcode.MOVI
    MOV = Opcode.MOV
    NOT = Opcode.NOT
    NEG = Opcode.NEG

    for instr in block.instrs:
        srcs = instr.srcs
        if copies:
            # Rewrite sources through the copy map.
            hit = False
            for s in srcs:
                if s in copies:
                    hit = True
                    break
            if hit:
                new_srcs = []
                dirty = False
                for s in srcs:
                    entry = copies.get(s)
                    if entry is not None:
                        src, src_gen = entry
                        if gen_get(src, 0) == src_gen:
                            new_srcs.append(src)
                            dirty = True
                            continue
                        del copies[s]
                    new_srcs.append(s)
                if dirty:
                    _note(rewrites, instr)
                    srcs = tuple(new_srcs)
                    instr.srcs = srcs
                    changed = True
            pred = instr.pred
            if pred is not None and pred.reg in copies:
                src, src_gen = copies[pred.reg]
                if gen_get(src, 0) == src_gen:
                    _note(rewrites, instr)
                    instr.pred = Predicate(src, pred.sense)
                    changed = True
                else:
                    del copies[pred.reg]

        # Constant-fold pure operations with all-constant inputs.
        if consts and srcs:
            op = instr.op
            if len(srcs) == 2:
                folder = get_binop(op)
                if (
                    folder is not None
                    and srcs[0] in consts
                    and srcs[1] in consts
                ):
                    try:
                        value = folder(consts[srcs[0]], consts[srcs[1]])
                    except (EvaluationError, ArithmeticError, ValueError):
                        # Division by a constant zero, negative shift:
                        # legitimately unfoldable — the operation keeps its
                        # runtime semantics.  Anything else is an optimizer
                        # bug and must reach the trial guard, not vanish.
                        value = None
                    if value is not None:
                        if rewrites is not None:
                            rewrites[instr] = None
                        instr.op = MOVI
                        instr.srcs = ()
                        instr.imm = value
                        changed = True
            elif op is NOT and srcs[0] in consts:
                if rewrites is not None:
                    rewrites[instr] = None
                instr.op = MOVI
                instr.imm = 0 if consts[srcs[0]] else 1
                instr.srcs = ()
                changed = True
            elif op is NEG and srcs[0] in consts:
                if rewrites is not None:
                    rewrites[instr] = None
                instr.op = MOVI
                instr.imm = -consts[srcs[0]]
                instr.srcs = ()
                changed = True

        # Record new facts (only unpredicated defs produce reliable facts).
        dest = instr.dest
        if dest is not None:
            if copies:
                copies.pop(dest, None)
            if consts:
                consts.pop(dest, None)
            gen[dest] = gen_get(dest, 0) + 1
            if instr.pred is None:
                op = instr.op
                if op is MOVI:
                    consts[dest] = instr.imm
                elif op is MOV:
                    src = instr.srcs[0]
                    if src != dest:
                        copies[dest] = (src, gen_get(src, 0))
    return changed


# ---------------------------------------------------------------------------
# Predicate-aware value numbering / instruction merging
# ---------------------------------------------------------------------------


def _reads_between(block: BasicBlock, lo: int, hi: int, reg: int) -> bool:
    for idx in range(lo + 1, hi):
        if reg in block.instrs[idx].uses():
            return True
    return False


def value_number(block: BasicBlock, rewrites: "dict | None" = None) -> bool:
    """Remove redundant computations; merge complementary-path duplicates.

    The availability table is generation-stamped: redefining a register is a
    single counter bump, and an entry records only its provider's index and
    the clock at its insertion.  An entry depends on the registers of its
    key's sources and on its provider's destination and predicate register;
    it is stale iff one of them was redefined after the insertion, which a
    hit checks from the key and the provider.  A stale entry is dropped
    then, instead of scanning the whole table on every register write —
    which was the single hottest leaf of convergent formation.

    ``rewrites`` is ``optimize_block``'s record of the round (see
    ``_restored``): a MOV given another source is noted with the fields it
    replaces; a removal, a dropped predicate or a non-MOV turned into a MOV
    as a change that cannot be undone.
    """
    changed = False
    # key -> (provider index, clock at insertion).
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
        if dest in srcs:
            # Self-referential (dest is also a source): the table entry
            # would describe the *old* value of the source, which this
            # instruction just overwrote — never record or match it.
            clock += 1
            gen[dest] = clock
            continue
        if len(srcs) == 2 and srcs[0] > srcs[1] and op in commutative:
            srcs = (srcs[1], srcs[0])
        if op is LOAD:
            key = (op, srcs, instr.imm, mem_epoch)
        else:
            key = (op, srcs, instr.imm)
        entry = table_get(key)
        prev = None
        if entry is not None:
            prev_idx, ins_clock = entry
            prev = instrs[prev_idx]
            prev_pred = prev.pred
            if gen_get(prev.dest, 0) > ins_clock or (
                prev_pred is not None and gen_get(prev_pred.reg, 0) > ins_clock
            ):
                prev = None
            else:
                for reg in srcs:
                    if gen_get(reg, 0) > ins_clock:
                        prev = None
                        break
            if prev is None:
                del table[key]
        if prev is None:
            clock += 1
            gen[dest] = clock
            table[key] = (i, clock)
            continue
        pred = instr.pred
        merged = False
        if prev_pred is None or (pred is not None and prev_pred == pred):
            # The value is available whenever instr would execute.
            if prev.dest == dest:
                if not _reads_between(block, prev_idx, i, dest):
                    if rewrites is not None:
                        rewrites[instr] = None
                    remove.add(i)
                    merged = True
            else:
                clock += 1
                gen[dest] = clock
                if op is MOV:
                    _note(rewrites, instr)
                elif rewrites is not None:
                    rewrites[instr] = None
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
            and not _reads_between(block, prev_idx, i, dest)
        ):
            # Instruction merging: the same computation on both sides of a
            # predicate collapses to one unconditional instruction.  The
            # provider no longer depends on its predicate register (a later
            # hit reads ``prev.pred``, now ``None``), so a later
            # redefinition of that register no longer evicts it.  None of
            # its dependence registers was redefined since the original
            # insertion (the lookup above just validated that), so
            # re-stamping with the current clock is exact.
            if rewrites is not None:
                rewrites[prev] = None
                rewrites[instr] = None
            prev.pred = None
            table[key] = (prev_idx, clock)
            remove.add(i)
            merged = True
        if merged:
            changed = True
        else:
            clock += 1
            gen[dest] = clock
            table[key] = (i, clock)

    if remove:
        block.instrs = [ins for j, ins in enumerate(instrs) if j not in remove]
    return changed


# ---------------------------------------------------------------------------
# Move folding
# ---------------------------------------------------------------------------


def fold_moves(block: BasicBlock, live_out: "int | set[int]") -> bool:
    """Fold ``t = op(...); r = mov t [if g]`` into ``r = op(...) [if g]``.

    The write-back mov that non-SSA lowering produces for every variable
    update doubles the latency of loop-carried dependence chains; a real
    code generator writes the destination directly.  Safe when ``t`` has no
    other consumers and is not live-out, the producer is an unpredicated
    pure op (or load), and ``r`` is neither read nor written between the
    two instructions.
    """
    live_out = as_mask(live_out)
    instrs = block.instrs
    MOV = Opcode.MOV
    for instr in instrs:
        if instr.op is MOV and instr.dest is not None:
            break
    else:
        # No foldable mov at all — skip building the use-count map.  This
        # is the common case from the second optimizer round on, once the
        # write-back movs of the fresh merge have been folded away.
        return False
    use_counts: dict[int, int] = {}
    counts_get = use_counts.get
    for instr in instrs:
        for reg in instr.srcs:
            use_counts[reg] = counts_get(reg, 0) + 1
        pred = instr.pred
        if pred is not None:
            use_counts[pred.reg] = counts_get(pred.reg, 0) + 1

    changed = False
    remove: set[int] = set()
    producer_at: dict[int, int] = {}  # reg -> index of latest producer
    for j, instr in enumerate(instrs):
        if (
            instr.op is MOV
            and instr.dest is not None
            and j not in remove
        ):
            t = instr.srcs[0]
            r = instr.dest
            i = producer_at.get(t)
            if (
                i is not None
                and i not in remove
                and t != r
                and not live_out >> t & 1
                and use_counts.get(t, 0) == 1
            ):
                producer = instrs[i]
                # The producer is *moved down* into the mov's slot, so its
                # predicate context is the mov's own; its sources must not
                # be redefined in between (the mov's position defines when
                # the guard and the old value of r are observed, so those
                # need no checks).
                ok = (
                    producer.pred is None
                    and producer.op in _VALUE_OPS
                    and producer.dest == t
                )
                if ok:
                    producer_srcs = set(producer.srcs)
                    is_load = producer.op is Opcode.LOAD
                    for k in range(i + 1, j):
                        if k in remove:
                            continue
                        dest_k = instrs[k].dest
                        if dest_k is not None and dest_k in producer_srcs:
                            ok = False
                            break
                        if is_load and instrs[k].op is Opcode.STORE:
                            ok = False
                            break
                if ok:
                    producer.dest = r
                    producer.pred = instr.pred
                    instrs[j] = producer
                    remove.add(i)
                    changed = True
                    producer_at[r] = j
        if instr.dest is not None and j not in remove:
            producer_at[instr.dest] = j

    if remove:
        block.instrs = [ins for k, ins in enumerate(instrs) if k not in remove]
    return changed


# ---------------------------------------------------------------------------
# Implicit predication (predicate use reduction)
# ---------------------------------------------------------------------------


def implicit_predication(block: BasicBlock, live_out: "int | set[int]") -> bool:
    """Drop predicates that are implied by every consumer's predicate.

    Only the *head* of a dependence chain needs the predicate; instructions
    whose value is consumed exclusively under (predicates implying) the
    same guard are implicitly predicated, as in dataflow predication [25].
    """
    live_out = as_mask(live_out)
    instrs = block.instrs
    value_ops = _VALUE_OPS
    candidates = [
        i
        for i, instr in enumerate(instrs)
        if instr.pred is not None
        and instr.dest is not None
        and instr.op in value_ops
        and not live_out >> instr.dest & 1
    ]
    if not candidates:
        return False
    # The implication graph is only consulted when a reader's guard differs
    # from the candidate's own; consumers guarded by exactly the candidate's
    # predicate (the overwhelmingly common shape if-conversion produces)
    # resolve reflexively, so the graph is built lazily on first real need.
    edges: "dict | None" = None
    changed = False
    n = len(instrs)
    for i in candidates:
        instr = instrs[i]
        p = instr.pred
        if p is None:  # cleared by an earlier iteration
            continue
        d = instr.dest
        ok = True
        has_reader = False
        # A predicate atom names a stable dynamic value only while its
        # register is not redefined between this instruction and the reader
        # (unrolled iterations recompute loop tests into the same register).
        redefined = 0
        for k in range(i + 1, n):
            later = instrs[k]
            later_pred = later.pred
            if d in later.srcs or (later_pred is not None and later_pred.reg == d):
                has_reader = True
                q = later_pred
                if (
                    q is None
                    or redefined >> p.reg & 1
                    or redefined >> q.reg & 1
                ):
                    ok = False
                    break
                if q.reg != p.reg or q.sense != p.sense:
                    if edges is None:
                        edges, _ = implication_edges(block)
                    if not implies(edges, q, p, redefined):
                        ok = False
                        break
            later_dest = later.dest
            if later_dest is not None:
                if later_dest == d and later_pred is None:
                    break
                redefined |= 1 << later_dest
        if ok and has_reader:
            instr.pred = None
            changed = True
    return changed


# ---------------------------------------------------------------------------
# Dead code elimination
# ---------------------------------------------------------------------------


def eliminate_dead_code(block: BasicBlock, live_out: "int | set[int]") -> bool:
    """Remove pure instructions whose results are never observed.

    The backward walk keeps a dict of the registers already decided below
    the current point (``True``: read there, ``False``: killed by an
    unpredicated write first) and reads the live-out mask only for a
    register the dict does not hold, so each step costs per instruction,
    not per bit of the register namespace.
    """
    live_out = as_mask(live_out)
    decided: dict[int, bool] = {}
    decided_get = decided.get
    keep: list[Instruction] = []
    keep_append = keep.append
    removable_ops = _DCE_REMOVABLE_OPS
    changed = False
    for instr in reversed(block.instrs):
        dest = instr.dest
        pred = instr.pred
        if dest is not None:
            live = decided_get(dest)
            if live is None:
                live = live_out >> dest & 1
            if not live and instr.op in removable_ops:
                changed = True
                continue
            if pred is None:
                decided[dest] = False
        for reg in instr.srcs:
            decided[reg] = True
        if pred is not None:
            decided[pred.reg] = True
        keep_append(instr)
    if changed:
        keep.reverse()
        block.instrs = keep
    return changed


#: The optimize_block schedule: (index, takes-live-out) in run order; the
#: indices key the per-pass clean stamps.  The two passes that take no
#: live-out take the round's ``rewrites`` record instead.
_PASS_FNS = (
    propagate_and_fold,
    value_number,
    fold_moves,
    implicit_predication,
    eliminate_dead_code,
)
_PASSES = tuple(
    (i, fn in (fold_moves, implicit_predication, eliminate_dead_code))
    for i, fn in enumerate(_PASS_FNS)
)
_DCE = _PASS_FNS.index(eliminate_dead_code)
