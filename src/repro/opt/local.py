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

All passes run to a bounded fixpoint.  They are deliberately block-local:
after formation, hyperblocks *are* the interesting optimization scope.
"""

from __future__ import annotations

from typing import Optional

from repro.ir import arena as _arena
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
    """Optimize ``block`` in place; return whether anything changed.

    ``live_out`` is a register bitmask (any iterable of register numbers
    is accepted and converted once on entry).
    """
    live_out = as_mask(live_out)
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
        for i, needs_live in _PASSES:
            if clean[i] == stamp:
                continue
            fn = _PASS_FNS[i]
            did = fn(block, live_out) if needs_live else fn(block)
            if did:
                changed = True
                stamp += 1
                clean[i] = -1
            else:
                clean[i] = stamp
        changed_any |= changed
        if not changed:
            break
    if changed_any:
        # The passes mutate instructions and reassign ``instrs`` directly;
        # re-stamp once here so version-keyed analysis caches notice.
        block.touch()
    if _arena.ENABLED:
        # Encode the settled block once: the estimator and use/kill
        # lookups that follow every trial then hit its view.
        _arena.STORE.encode_block(block)
    return changed_any


# ---------------------------------------------------------------------------
# Copy propagation and constant folding
# ---------------------------------------------------------------------------


def propagate_and_fold(block: BasicBlock) -> bool:
    """Forward-propagate unpredicated copies/constants; fold constants.

    This runs once per optimizer round of every *attempted* merge, so the
    loop body is written for speed: the copy map is generation-stamped — a
    register write is one counter bump, and an entry whose recorded source
    generation went stale is dropped lazily at its next lookup instead of
    scanning the map on every write — and the per-instruction fast path
    (no copy facts apply, no constant facts apply) touches each dict once.
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
                    srcs = tuple(new_srcs)
                    instr.srcs = srcs
                    changed = True
            pred = instr.pred
            if pred is not None and pred.reg in copies:
                src, src_gen = copies[pred.reg]
                if gen_get(src, 0) == src_gen:
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
                        instr.op = MOVI
                        instr.srcs = ()
                        instr.imm = value
                        changed = True
            elif op is NOT and srcs[0] in consts:
                instr.op = MOVI
                instr.imm = 0 if consts[srcs[0]] else 1
                instr.srcs = ()
                changed = True
            elif op is NEG and srcs[0] in consts:
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


def _vn_key(instr: Instruction, mem_epoch: int):
    srcs = instr.srcs
    if instr.op in COMMUTATIVE_OPS and len(srcs) == 2 and srcs[0] > srcs[1]:
        srcs = (srcs[1], srcs[0])
    if instr.op is Opcode.LOAD:
        return (instr.op, srcs, instr.imm, mem_epoch)
    return (instr.op, srcs, instr.imm)


def _complementary(a: Optional[Predicate], b: Optional[Predicate]) -> bool:
    return (
        a is not None
        and b is not None
        and a.reg == b.reg
        and a.sense != b.sense
    )


def _reads_between(block: BasicBlock, lo: int, hi: int, reg: int) -> bool:
    for idx in range(lo + 1, hi):
        if reg in block.instrs[idx].uses():
            return True
    return False


def value_number(block: BasicBlock) -> bool:
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
                if not _reads_between(block, prev_idx, i, dest):
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
            and not _reads_between(block, prev_idx, i, dest)
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


def _implication_edges(
    block: BasicBlock,
) -> tuple[dict[tuple[int, bool], set[tuple[int, bool]]], dict[int, int]]:
    """Facts of the form ``atom -> implied atom`` from single-def predicate
    combinators (AND / NOT / MOV chains built by if-conversion).

    Also returns per-register definition counts: implication reasoning
    (including the reflexive case) is only sound for registers defined once
    in the block — a redefined test register names *different* dynamic
    values at different points (unrolled iterations recompute the loop test
    into the same register).
    """
    def_counts: dict[int, int] = {}
    counts_get = def_counts.get
    combinators: list[Instruction] = []
    AND, NOT, MOV = Opcode.AND, Opcode.NOT, Opcode.MOV
    for instr in block.instrs:
        d = instr.dest
        if d is not None:
            def_counts[d] = counts_get(d, 0) + 1
            if instr.pred is None:
                op = instr.op
                if op is AND or op is NOT or op is MOV:
                    combinators.append(instr)
    edges: dict[tuple[int, bool], set[tuple[int, bool]]] = {}
    for instr in combinators:
        d = instr.dest
        if def_counts.get(d, 0) != 1:
            continue
        op = instr.op
        if op is AND:
            a, b = instr.srcs
            edges.setdefault((d, True), set()).update({(a, True), (b, True)})
        elif op is NOT:
            (a,) = instr.srcs
            edges.setdefault((d, True), set()).add((a, False))
            edges.setdefault((d, False), set()).add((a, True))
        else:
            (a,) = instr.srcs
            edges.setdefault((d, True), set()).add((a, True))
            edges.setdefault((d, False), set()).add((a, False))
    return edges, def_counts


def _implies(
    edges: dict[tuple[int, bool], set[tuple[int, bool]]],
    q: Predicate,
    p: Predicate,
    unstable: int = 0,
) -> bool:
    """True if ``q`` holding guarantees ``p`` holds.

    Atoms over registers in the ``unstable`` mask (redefined between the
    producer and the consumer) name different dynamic values and are not
    traversed.
    """
    start = (q.reg, q.sense)
    goal = (p.reg, p.sense)
    if start == goal:
        return True
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt in edges.get(node, ()):
            if unstable >> nxt[0] & 1:
                continue
            if nxt == goal:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


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
                        edges, _ = _implication_edges(block)
                    if not _implies(edges, q, p, redefined):
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


#: The optimize_block schedule: (index, takes-live-out) in run order; the
#: indices key the per-pass clean stamps.
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
