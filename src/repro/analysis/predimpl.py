"""Predicate implication reasoning within a block.

If-conversion guards merged code with chains of ``AND``/``NOT``/``MOV``
combinators.  Several analyses need to know when one predicate *implies*
another — e.g. a read of ``r`` guarded by ``q`` is NOT upward-exposed if an
earlier write of ``r`` was guarded by ``p`` and ``q ⇒ p`` (whenever the
read executes, the write executed first).  Without this, every predicated
temporary in a hyperblock looks live-in and live-out, which poisons
liveness, dead-code elimination, and the structural size estimates.

Hyperblocks formed by unrolling redefine test registers, so naive
implication over register *names* is unsound.  :func:`exposed_uses` tracks
a version number per register: implication facts constrain the value a
register had at a specific version, and only facts whose versions line up
with a guarded write are used to suppress exposure.
:func:`implication_edges` and :func:`implies` are the unversioned facts
for a caller that tracks redefinitions itself: the optimizer's implicit
predication passes the registers redefined since the producer as the
``unstable`` mask.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.block import BasicBlock
from repro.ir.instruction import Instruction, Predicate
from repro.ir.opcodes import Opcode

Atom = tuple[int, bool]


def implication_edges(
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


def implies(
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


class _VersionedImplication:
    """Implication graph whose edges are stamped with register versions.

    An edge ``(d, s)@dv -> (a, t)@av`` asserts: *the value of d at its
    dv-th definition, being s, implies the value a had at its av-th
    definition was t*.  Searches therefore carry ``(atom, version)``
    states, so facts about stale definitions are never misapplied — the
    soundness hazard unrolled hyperblocks create by recomputing tests into
    the same register.
    """

    def __init__(self) -> None:
        self.version: dict[int, int] = {}
        #: atom -> list of (head version, implied atom, implied version)
        self.edges: dict[Atom, list[tuple[int, Atom, int]]] = {}

    def ver(self, reg: int) -> int:
        return self.version.get(reg, 0)

    def bump(self, reg: int) -> None:
        version = self.version
        version[reg] = version.get(reg, 0) + 1

    def _edge(self, src: Atom, dst: Atom) -> None:
        self.edges.setdefault(src, []).append(
            (self.ver(src[0]), dst, self.ver(dst[0]))
        )

    def record_combinator(self, instr) -> None:
        """Add facts for an unpredicated combinator (call after bumping
        the destination's version)."""
        d = instr.dest
        op = instr.op
        ver_get = self.version.get
        edges = self.edges
        dv = ver_get(d, 0)
        if op is Opcode.AND:
            a, b = instr.srcs
            facts = edges.setdefault((d, True), [])
            facts.append((dv, (a, True), ver_get(a, 0)))
            facts.append((dv, (b, True), ver_get(b, 0)))
        elif op is Opcode.NOT:
            (a,) = instr.srcs
            av = ver_get(a, 0)
            edges.setdefault((d, True), []).append((dv, (a, False), av))
            edges.setdefault((d, False), []).append((dv, (a, True), av))
        elif op is Opcode.MOV:
            (a,) = instr.srcs
            av = ver_get(a, 0)
            edges.setdefault((d, True), []).append((dv, (a, True), av))
            edges.setdefault((d, False), []).append((dv, (a, False), av))

    def covered(self, guard: Predicate, write: Predicate, write_ver: int) -> bool:
        """Does ``guard`` (current value) imply that ``write``'s register,
        at version ``write_ver``, held ``write.sense``?"""
        goal = ((write.reg, write.sense), write_ver)
        start = ((guard.reg, guard.sense), self.ver(guard.reg))
        if start == goal:
            return True
        seen = {start}
        stack = [start]
        while stack:
            atom, version = stack.pop()
            for head_ver, dst, dst_ver in self.edges.get(atom, ()):
                if head_ver != version:
                    continue
                state = (dst, dst_ver)
                if state == goal:
                    return True
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
        return False


#: Memo for :func:`exposed_mask`, keyed by ``BasicBlock.version``.  Version
#: stamps are process-unique and never reused (see ``repro.ir.block``), so a
#: version alone identifies the exact instruction sequence it was computed
#: from.  Cleared wholesale when it grows past ``_EXPOSED_CACHE_MAX``.
_exposed_cache: dict[int, int] = {}
#: Materialized ``set[int]`` views for :func:`exposed_uses` (cold paths).
_exposed_set_cache: dict[int, set[int]] = {}
_EXPOSED_CACHE_MAX = 4096


def exposed_mask(block: BasicBlock) -> int:
    """Upward-exposed register reads as a bitmask (bit ``r`` = register ``r``).

    A read of ``r`` guarded by ``q`` is exposed unless an earlier write of
    ``r`` was unconditional or guarded by ``p`` with ``q ⇒ p`` under
    version-consistent implication.  The predicate register itself is read
    unconditionally (to decide execution), so it counts as an unguarded
    use.

    The walk keeps one set of the registers already settled (killed by an
    unpredicated write, or exposed; neither kind ever leaves it) and ORs
    a bit into the returned mask only when a register is newly exposed,
    so each step costs per instruction rather than per bit of the
    register namespace.

    Results are memoized on the block's version stamp.  This is the
    primitive every hot analysis consumes (use/kill masks, the structural
    estimator); :func:`exposed_uses` is the ``set[int]`` view for cold
    callers.
    """
    version = block.version
    cached = _exposed_cache.get(version)
    if cached is not None:
        return cached

    instrs = block.instrs
    exposed = 0
    settled: set[int] = set()
    settle = settled.add

    for instr in instrs:
        if instr.pred is not None:
            break
    else:
        # Entirely unpredicated: every write kills, no implication needed.
        for instr in instrs:
            for reg in instr.srcs:
                if reg not in settled:
                    settle(reg)
                    exposed |= 1 << reg
            if instr.dest is not None:
                settle(instr.dest)
        if len(_exposed_cache) >= _EXPOSED_CACHE_MAX:
            _exposed_cache.clear()
        _exposed_cache[version] = exposed
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
            guard_reg = guard.reg
            if guard_reg not in settled:
                settle(guard_reg)
                exposed |= 1 << guard_reg
            for reg in instr.srcs:
                if reg in settled:
                    continue
                writes = cond_writes_get(reg)
                if writes is not None:
                    for write_pred, write_ver in writes:
                        if covered(guard, write_pred, write_ver):
                            break
                    else:
                        settle(reg)
                        exposed |= 1 << reg
                else:
                    settle(reg)
                    exposed |= 1 << reg
        else:
            for reg in instr.srcs:
                if reg not in settled:
                    settle(reg)
                    exposed |= 1 << reg
        dest = instr.dest
        if dest is not None:
            imp_version[dest] = imp_ver_get(dest, 0) + 1
            if guard is None:
                # Record combinator facts after bumping the version: the
                # edges constrain the *new* value of dest.
                settle(dest)
                if cond_writes:
                    cond_writes.pop(dest, None)
                if instr.op in _COMBINATORS:
                    record_combinator(instr)
            else:
                # Predicates are values, so the write keeps its guard.
                cond_writes.setdefault(dest, []).append(
                    (guard, imp_ver_get(guard.reg, 0))
                )
    if len(_exposed_cache) >= _EXPOSED_CACHE_MAX:
        _exposed_cache.clear()
    _exposed_cache[version] = exposed
    return exposed


def exposed_uses(block: BasicBlock) -> set[int]:
    """``set[int]`` view of :func:`exposed_mask` (cold paths and tests).

    Memoized on the block version like the mask; callers must treat the
    returned set as read-only.
    """
    from repro.ir.regmask import regs_of

    version = block.version
    cached = _exposed_set_cache.get(version)
    if cached is not None:
        return cached
    view = regs_of(exposed_mask(block))
    if len(_exposed_set_cache) >= _EXPOSED_CACHE_MAX:
        _exposed_set_cache.clear()
    _exposed_set_cache[version] = view
    return view
