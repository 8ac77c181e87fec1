"""Basic blocks (and, after formation, hyperblocks).

A :class:`BasicBlock` is a named, ordered list of instructions.  Before
hyperblock formation a block contains at most one test-guarded pair of
branches; after formation a block may contain arbitrarily many predicated
instructions and predicated exit branches.  The structural invariant in both
cases is the same: *on any execution, exactly one branch instruction fires*.
The functional simulator enforces the invariant dynamically.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from repro.ir.instruction import Instruction, reserve_uids
from repro.ir.opcodes import Opcode

#: Process-wide monotonic stamp source for block versions.  Unlike
#: ``id()``, a stamp is never reused, so ``(name, version)`` is a safe
#: cache token even after a block object is garbage-collected and its
#: address recycled.
_version_counter = itertools.count(1)


class BlockShape:
    """Facts about one version of a block, scanned once per version stamp.

    ``succs`` are the branch targets in instruction order, de-duplicated;
    ``has_call`` says whether any instruction is a ``CALL``.  The other
    facts are ``None`` until their first use fills them:

    - ``def_mask`` — every register the block writes, predicated or not
      (:meth:`BasicBlock.def_mask`);
    - ``kill_mask`` — every register an unpredicated instruction writes
      (:meth:`BasicBlock.kill_mask`);
    - ``exposed_mask`` — the upward-exposed register reads
      (``repro.analysis.predimpl.exposed_mask``);
    - ``height`` — the dependence height
      (``repro.analysis.depgraph.dependence_height``).
    """

    __slots__ = (
        "version", "succs", "has_call", "def_mask", "kill_mask",
        "exposed_mask", "height",
    )

    def __init__(self, block: "BasicBlock"):
        succs: list[str] = []
        has_call = False
        for instr in block.instrs:
            op = instr.op
            if op is Opcode.BR:
                target = instr.target
                if target is not None and target not in succs:
                    succs.append(target)
            elif op is Opcode.CALL:
                has_call = True
        self.version = block.version
        self.succs: tuple[str, ...] = tuple(succs)
        self.has_call = has_call
        self.def_mask: Optional[int] = None
        self.kill_mask: Optional[int] = None
        self.exposed_mask: Optional[int] = None
        self.height: Optional[int] = None


class BasicBlock:
    """A single-entry, multiple-exit region of predicated instructions.

    Every block carries a monotonically increasing ``version`` stamp,
    refreshed by the mutating helpers below.  Analyses (use/kill sets,
    liveness, merge-trial memoization, the optimizer's ``converged``
    stamp) key their caches on it, so a version names exactly one
    instruction sequence.  The rule every mutation path keeps: code that
    mutates ``instrs`` or any instruction in it directly — rather than
    through :meth:`append`, :meth:`extend` or :meth:`retarget_branches` —
    calls :meth:`touch` afterwards.

    ``converged`` is ``None`` or the ``(version, live_out)`` pair at which
    ``repro.opt.local.optimize_block`` last found the block at its
    fixpoint; ``_shape`` is the :class:`BlockShape` of the version
    :meth:`shape` last scanned.  Copies and unpickled blocks start without
    either.
    """

    __slots__ = ("name", "instrs", "version", "converged", "_shape")

    def __init__(self, name: str, instrs: Optional[list[Instruction]] = None):
        self.name = name
        self.instrs: list[Instruction] = list(instrs) if instrs else []
        self.version = next(_version_counter)
        self.converged: Optional[tuple[int, int]] = None
        self._shape: Optional[BlockShape] = None

    # -- construction -----------------------------------------------------

    def touch(self) -> int:
        """Re-stamp the block after a mutation; returns the new version."""
        self.version = next(_version_counter)
        return self.version

    def append(self, instr: Instruction) -> Instruction:
        self.instrs.append(instr)
        self.version = next(_version_counter)
        return instr

    def extend(self, instrs) -> None:
        self.instrs.extend(instrs)
        self.version = next(_version_counter)

    # -- queries ------------------------------------------------------------

    def branches(self) -> list[Instruction]:
        """All control-transfer instructions (``BR`` and ``RET``) in order."""
        return [i for i in self.instrs if i.is_branch]

    def shape(self) -> BlockShape:
        """The :class:`BlockShape` of the current version, scanned once per
        version stamp (exact under the :meth:`touch` rule above)."""
        shape = self._shape
        if shape is None or shape.version != self.version:
            shape = self._shape = BlockShape(self)
        return shape

    def successors(self) -> list[str]:
        """Branch-target block names, in instruction order, de-duplicated."""
        return list(self.shape().succs)

    def branches_to(self, target: str) -> list[Instruction]:
        """Branch instructions in this block whose target is ``target``."""
        return [
            i for i in self.instrs if i.op is Opcode.BR and i.target == target
        ]

    def has_return(self) -> bool:
        return any(i.op is Opcode.RET for i in self.instrs)

    def has_call(self) -> bool:
        return self.shape().has_call

    def def_mask(self) -> int:
        """Mask of every register the block writes (predicated or not),
        computed on first use per version."""
        shape = self.shape()
        mask = shape.def_mask
        if mask is None:
            mask = 0
            for instr in self.instrs:
                if instr.dest is not None:
                    mask |= 1 << instr.dest
            shape.def_mask = mask
        return mask

    def kill_mask(self) -> int:
        """Mask of every register an unpredicated instruction writes (a
        predicated write leaves the old value visible), computed on first
        use per version."""
        shape = self.shape()
        mask = shape.kill_mask
        if mask is None:
            mask = 0
            for instr in self.instrs:
                if instr.dest is not None and instr.pred is None:
                    mask |= 1 << instr.dest
            shape.kill_mask = mask
        return mask

    def retarget_branches(self, old: str, new: str) -> int:
        """Point every branch aimed at ``old`` to ``new``; return count."""
        count = 0
        for instr in self.instrs:
            if instr.op is Opcode.BR and instr.target == old:
                instr.target = new
                count += 1
        if count:
            self.version = next(_version_counter)
        return count

    def size(self) -> int:
        return len(self.instrs)

    def copy(self, new_name: str) -> "BasicBlock":
        """Deep-copy the block under a new name (fresh instruction uids)."""
        return BasicBlock(new_name, [i.copy() for i in self.instrs])

    # -- pickling ----------------------------------------------------------

    def __getstate__(self):
        return (self.name, self.instrs)

    def __setstate__(self, state) -> None:
        # Versions are process-local: an unpickled block is re-stamped
        # from the local counter so it can never alias a stamp already
        # handed out in this process.  Instruction uids keep their
        # values, so the local uid counter skips past them instead.
        self.name, self.instrs = state
        self.version = next(_version_counter)
        self.converged = None
        self._shape = None
        if self.instrs:
            reserve_uids(max(instr.uid for instr in self.instrs))

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name} [{len(self.instrs)} instrs]>"
