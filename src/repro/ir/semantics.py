"""Evaluation semantics for binary operations.

Shared by the functional simulator (execution) and the optimizer
(constant folding) so the two can never disagree.
"""

from __future__ import annotations

import operator
from typing import Callable

from repro.ir.opcodes import Opcode


class EvaluationError(Exception):
    """Raised for undefined arithmetic (division by zero)."""


def int_div(a, b):
    """C-style division: floats divide exactly, ints truncate toward zero."""
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    if b == 0:
        raise EvaluationError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def int_mod(a, b):
    if b == 0:
        raise EvaluationError("integer modulo by zero")
    return a - int_div(a, b) * b


#: The arithmetic entries are the ``operator`` module's C functions,
#: which compute what ``a + b`` and friends do, raise what they raise and
#: cost no Python frame per executed instruction.  The tests return an
#: ``int``, not the ``bool`` the comparison operators would.
EVAL_BINOP: dict[Opcode, Callable] = {
    Opcode.ADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.MUL: operator.mul,
    Opcode.DIV: int_div,
    Opcode.MOD: int_mod,
    Opcode.AND: operator.and_,
    Opcode.OR: operator.or_,
    Opcode.XOR: operator.xor,
    Opcode.SHL: operator.lshift,
    Opcode.SHR: operator.rshift,
    Opcode.FADD: operator.add,
    Opcode.FSUB: operator.sub,
    Opcode.FMUL: operator.mul,
    Opcode.FDIV: operator.truediv,
    Opcode.TEQ: lambda a, b: 1 if a == b else 0,
    Opcode.TNE: lambda a, b: 1 if a != b else 0,
    Opcode.TLT: lambda a, b: 1 if a < b else 0,
    Opcode.TLE: lambda a, b: 1 if a <= b else 0,
    Opcode.TGT: lambda a, b: 1 if a > b else 0,
    Opcode.TGE: lambda a, b: 1 if a >= b else 0,
}
