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
"""

from __future__ import annotations

from typing import Optional

from repro.ir.block import BasicBlock
from repro.ir.instruction import Predicate
from repro.ir.opcodes import Opcode

Atom = tuple[int, bool]
Edges = dict[Atom, set[Atom]]


def implication_edges(block: BasicBlock) -> tuple[Edges, dict[int, int]]:
    """Unversioned implication facts from single-def predicate combinators.

    Suitable for callers that do their own redefinition tracking (the
    optimizer's implicit-predication pass).  Returns ``(edges,
    def_counts)``.
    """
    def_counts: dict[int, int] = {}
    for instr in block.instrs:
        if instr.dest is not None:
            def_counts[instr.dest] = def_counts.get(instr.dest, 0) + 1
    edges: Edges = {}
    for instr in block.instrs:
        if instr.dest is None or def_counts.get(instr.dest, 0) != 1:
            continue
        if instr.pred is not None:
            continue
        d = instr.dest
        if instr.op is Opcode.AND:
            a, b = instr.srcs
            edges.setdefault((d, True), set()).update({(a, True), (b, True)})
        elif instr.op is Opcode.NOT:
            (a,) = instr.srcs
            edges.setdefault((d, True), set()).add((a, False))
            edges.setdefault((d, False), set()).add((a, True))
        elif instr.op is Opcode.MOV:
            (a,) = instr.srcs
            edges.setdefault((d, True), set()).add((a, True))
            edges.setdefault((d, False), set()).add((a, False))
    return edges, def_counts


def implies(
    edges: Edges,
    q: Predicate,
    p: Predicate,
    unstable: frozenset[int] = frozenset(),
) -> bool:
    """True if ``q`` holding guarantees ``p`` holds (unversioned).

    Atoms over registers in ``unstable`` are not traversed.
    """
    if p.reg in unstable:
        return False
    start = (q.reg, q.sense)
    goal = (p.reg, p.sense)
    if start == goal:
        return True
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt in edges.get(node, ()):
            if nxt[0] in unstable:
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
