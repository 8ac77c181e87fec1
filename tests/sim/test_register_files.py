"""Dense register files on shapes the oracle programs rarely produce.

The programs of the interpreter and timing oracles use at most three
operands per instruction, always give a call a destination, and make
three calls in all: the timing oracle passes even if a callee's ready
times are dropped after every block.  Here a call reads five operands
(more than the timing model's three fixed slots), a call and a null
store have no destination (they write the interpreter's sink slot), a
register that only an instruction names is read before any write, and
a function called twice reads a register before that activation writes
it (the timing model's ready times are shared by every activation).
Both simulators must still match the reference loops those oracles
keep.
"""

from __future__ import annotations

from repro.ir import FunctionBuilder, Instruction, Opcode, Predicate, build_module
from repro.sim.functional import Interpreter, register_file_size
from repro.sim.machine import TRIPS_MACHINE
from tests.sim.test_interpreter_oracle import ReferenceInterpreter, _run
from tests.sim.test_timing_oracle import (
    NO_HISTORY,
    LockstepSimulator,
    assert_matches_reference,
)


def _module():
    callee = FunctionBuilder("f", nparams=4)
    callee.block("entry", entry=True)
    callee.ret(callee.add(callee.add(0, 1), callee.mul(2, 3)))

    # ``i`` is read before this activation writes it: the interpreter
    # reads 0, and the timing model the ready time the last activation
    # left in the function's shared list.
    count = FunctionBuilder("count", nparams=1)
    count.block("entry", entry=True)
    i = count.func.new_reg()
    count.br("head")
    count.block("head")
    count.br_cond(count.tlt(i, 0), "body", "exit")
    count.block("body")
    count.mov_to(i, count.addi(i, 1))
    count.br("head")
    count.block("exit")
    count.ret(i)

    main = FunctionBuilder("main", nparams=1)
    main.block("entry", entry=True)
    a, b = main.movi(2), main.addi(0, 3)
    chain = main.mul(main.mul(main.mul(0, b), b), b)
    taken = main.tlt(chain, main.movi(100))
    # Five operands; the predicate, which arrives last, is the fifth.
    wide = main.call("f", a, b, 0, a, pred=Predicate(taken, True))
    main.br("exit")
    main.block("exit")
    base = main.movi(64)
    main.store(base, main.load(main.movi(65)), offset=2)
    main.store(base, main.add(main.call("count", a), main.call("count", b)))
    # Appended directly, past FunctionBuilder's register bookkeeping, so
    # only these instructions name v90-v97; v97 is never written.
    main.current.instrs += [
        Instruction(Opcode.CALL, srcs=(wide, b, a, 0), callee="f"),
        Instruction(Opcode.NULLS, pred=Predicate(taken, False)),
        Instruction(Opcode.NULLW, dest=90),
        Instruction(Opcode.ADD, dest=95, srcs=(97, wide)),
        Instruction(Opcode.STORE, srcs=(base, 95), imm=1),
        Instruction(Opcode.ADD, dest=96, srcs=(95, 90)),
        Instruction(Opcode.ADD, dest=94, srcs=(96, 0)),
        Instruction(Opcode.RET, srcs=(94,)),
    ]
    return build_module(main.finish(), callee.finish(), count.finish())


def test_register_file_size_covers_every_named_register():
    func = _module().function("main")
    assert register_file_size(func) == 98
    assert register_file_size(FunctionBuilder("g", nparams=3).finish()) == 3


def test_interpreter_matches_reference():
    module = _module()
    for arg in (1, 20):
        want = _run(ReferenceInterpreter, module, (arg,), {})
        assert _run(Interpreter, module, (arg,), {}) == want


def test_timing_matches_reference():
    module = _module()
    for machine in (TRIPS_MACHINE, NO_HISTORY):
        for arg in (1, 20):
            sim = LockstepSimulator(module, machine)
            got = sim.run(args=(arg,))
            assert_matches_reference(sim, got, f"main({arg})")
