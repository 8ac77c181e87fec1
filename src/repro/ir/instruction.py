"""The :class:`Instruction` — a predicated RISC-like operation.

Instructions use virtual register numbers (plain ints) for operands and
results.  Every instruction may carry a *predicate*: a ``(register, sense)``
pair.  A predicated instruction only executes when the register's boolean
value matches the sense; a predicated-false instruction writes nothing and,
if it is a branch, does not fire.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from repro.ir.opcodes import (
    BRANCH_OPS,
    MEMORY_OPS,
    OP_INFO,
    PURE_OPS,
    TEST_OPS,
    Opcode,
)

_uid_counter = itertools.count(1)


def reserve_uids(highest: int) -> None:
    """Make every uid minted from now on exceed ``highest``.

    Uids travel with pickled instructions, so a process that receives
    instructions minted elsewhere must skip past them before it mints its
    own (see ``BasicBlock.__setstate__``).
    """
    global _uid_counter
    if next(_uid_counter) <= highest:
        _uid_counter = itertools.count(highest + 1)


class Predicate:
    """A guard ``(reg, sense)``: execute iff ``bool(reg_value) == sense``."""

    __slots__ = ("reg", "sense")

    def __init__(self, reg: int, sense: bool = True):
        self.reg = reg
        self.sense = bool(sense)

    def negated(self) -> "Predicate":
        return Predicate(self.reg, not self.sense)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Predicate)
            and self.reg == other.reg
            and self.sense == other.sense
        )

    def __hash__(self) -> int:
        return hash((self.reg, self.sense))

    def __repr__(self) -> str:
        mark = "" if self.sense else "!"
        return f"{mark}v{self.reg}"


class Instruction:
    """A single IR operation.

    Attributes:
        op: the :class:`Opcode`.
        dest: destination virtual register, or ``None``.
        srcs: tuple of source virtual registers.
        imm: immediate operand (int or float), or ``None``.
        target: branch target block name (``BR`` only).
        callee: called function name (``CALL`` only).
        pred: optional :class:`Predicate` guard.
        uid: unique id, preserved by copies made with :meth:`copy` being
            *fresh* — a copy gets a new uid but remembers its ``origin``.
        origin: uid of the instruction this one was duplicated from (or its
            own uid for originals); used by merge statistics and debugging.
    """

    __slots__ = ("op", "dest", "srcs", "imm", "target", "callee", "pred",
                 "uid", "origin", "lsid")

    def __init__(
        self,
        op: Opcode,
        dest: Optional[int] = None,
        srcs: Iterable[int] = (),
        imm=None,
        target: Optional[str] = None,
        callee: Optional[str] = None,
        pred: Optional[Predicate] = None,
        origin: Optional[int] = None,
    ):
        self.op = op
        self.dest = dest
        self.srcs = tuple(srcs)
        self.imm = imm
        self.target = target
        self.callee = callee
        self.pred = pred
        self.uid = next(_uid_counter)
        self.origin = origin if origin is not None else self.uid
        #: load/store identifier, assigned by the backend
        self.lsid: Optional[int] = None

    # -- classification -------------------------------------------------

    @property
    def is_branch(self) -> bool:
        return self.op in BRANCH_OPS

    @property
    def is_test(self) -> bool:
        return self.op in TEST_OPS

    @property
    def is_memory(self) -> bool:
        return self.op in MEMORY_OPS

    @property
    def is_call(self) -> bool:
        return self.op is Opcode.CALL

    @property
    def is_pure(self) -> bool:
        return self.op in PURE_OPS

    @property
    def latency(self) -> int:
        return OP_INFO[self.op].latency

    # -- registers ------------------------------------------------------

    def uses(self) -> tuple[int, ...]:
        """All registers read, including the predicate register."""
        if self.pred is not None:
            return self.srcs + (self.pred.reg,)
        return self.srcs

    def defs(self) -> tuple[int, ...]:
        return (self.dest,) if self.dest is not None else ()

    def rewrite_srcs(self, mapping: dict[int, int]) -> None:
        """Replace source (and predicate) registers per ``mapping`` in place."""
        self.srcs = tuple(mapping.get(s, s) for s in self.srcs)
        if self.pred is not None and self.pred.reg in mapping:
            self.pred = Predicate(mapping[self.pred.reg], self.pred.sense)

    # -- duplication ----------------------------------------------------

    def copy(self) -> "Instruction":
        """A fresh instruction with identical payload but a new uid."""
        # Bypasses __init__: this runs once per duplicated instruction of
        # every *attempted* merge, so slot stores beat keyword dispatch.
        new = Instruction.__new__(Instruction)
        new.op = self.op
        new.dest = self.dest
        new.srcs = self.srcs
        new.imm = self.imm
        new.target = self.target
        new.callee = self.callee
        pred = self.pred
        new.pred = Predicate(pred.reg, pred.sense) if pred is not None else None
        new.uid = next(_uid_counter)
        new.origin = self.origin
        new.lsid = None
        return new

    # -- display ----------------------------------------------------------

    def __repr__(self) -> str:
        parts = []
        if self.dest is not None:
            parts.append(f"v{self.dest} =")
        parts.append(self.op.value)
        operands = [f"v{s}" for s in self.srcs]
        if self.imm is not None:
            operands.append(repr(self.imm))
        if self.callee is not None:
            operands.insert(0, f"@{self.callee}")
        if self.target is not None:
            operands.append(self.target)
        if operands:
            parts.append(", ".join(operands))
        text = " ".join(parts)
        if self.pred is not None:
            text += f" if {self.pred!r}"
        return text
