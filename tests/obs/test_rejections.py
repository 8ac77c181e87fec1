"""Rejection-reason attribution: every structural constraint that fires
names itself — in ``BlockEstimate.violation_kinds`` at the estimator
layer, and in the trace ``reject`` event's ``constraints`` list end to
end."""

from __future__ import annotations

from repro.core.constraints import (
    CONSTRAINT_INSTRUCTIONS,
    CONSTRAINT_MEMORY_OPS,
    CONSTRAINT_REG_READS,
    CONSTRAINT_REG_WRITES,
    TripsConstraints,
    estimate_block,
)
from repro.core.convergent import form_module
from repro.ir import BasicBlock, FunctionBuilder, Instruction, Opcode, build_module
from repro.obs.trace import Tracer
from tests.conftest import make_diamond


def _block_of(*instrs) -> BasicBlock:
    blk = BasicBlock("b")
    for instr in instrs:
        blk.append(instr)
    return blk


def I(op, dest=None, srcs=(), imm=None, pred=None, target=None):
    return Instruction(
        op, dest=dest, srcs=srcs, imm=imm, pred=pred, target=target
    )


# ---------------------------------------------------------------------------
# estimator layer: each violation carries its structural kind
# ---------------------------------------------------------------------------


def test_instruction_violation_kind():
    blk = _block_of(
        *[I(Opcode.MOVI, dest=i + 10, imm=i) for i in range(8)],
        I(Opcode.RET),
    )
    est = estimate_block(blk, set(), TripsConstraints(max_instructions=4))
    assert est.violation_kinds == [CONSTRAINT_INSTRUCTIONS]
    assert len(est.violation_kinds) == len(est.violations)


def test_memory_violation_kind():
    blk = _block_of(
        *[I(Opcode.LOAD, dest=i + 10, srcs=(0,), imm=i) for i in range(4)],
        I(Opcode.RET),
    )
    est = estimate_block(blk, set(), TripsConstraints(max_memory_ops=2))
    assert est.violation_kinds == [CONSTRAINT_MEMORY_OPS]


def test_register_read_violation_kind():
    # 8 distinct upward-exposed reads against a 1x4 read budget.
    blk = _block_of(
        *[I(Opcode.ADD, dest=20 + i, srcs=(2 * i, 2 * i + 1))
          for i in range(4)],
        I(Opcode.RET),
    )
    est = estimate_block(
        blk, set(),
        TripsConstraints(register_banks=1, reads_per_bank=4),
    )
    assert est.violation_kinds == [CONSTRAINT_REG_READS]


def test_register_write_violation_kind():
    blk = _block_of(
        *[I(Opcode.MOVI, dest=i, imm=i) for i in range(6)],
        I(Opcode.RET),
    )
    est = estimate_block(
        blk, live_out=set(range(6)),
        constraints=TripsConstraints(register_banks=1, writes_per_bank=4),
    )
    assert est.violation_kinds == [CONSTRAINT_REG_WRITES]


def test_multiple_violations_keep_pairwise_order():
    blk = _block_of(
        *[I(Opcode.LOAD, dest=i + 10, srcs=(0,), imm=i) for i in range(8)],
        I(Opcode.RET),
    )
    est = estimate_block(
        blk, set(),
        TripsConstraints(max_instructions=4, max_memory_ops=4),
    )
    assert est.violation_kinds == [
        CONSTRAINT_INSTRUCTIONS, CONSTRAINT_MEMORY_OPS,
    ]
    for kind, message in zip(est.violation_kinds, est.violations):
        assert kind.split("_")[0] in message.replace("register", "register_")


def test_estimate_as_attrs_is_flat_and_consistent():
    blk = _block_of(
        I(Opcode.MOVI, dest=1, imm=0),
        I(Opcode.RET),
    )
    est = estimate_block(blk, set(), TripsConstraints())
    attrs = est.as_attrs()
    assert attrs["real_instructions"] == 2
    assert attrs["total_instructions"] == est.total_instructions
    assert all(isinstance(v, (int, float)) for v in attrs.values())


# ---------------------------------------------------------------------------
# end to end: the trace reject event names the constraint that fired
# ---------------------------------------------------------------------------


def _constraint_rejects(trace):
    return [
        e for e in trace.named("reject")
        if e.attrs.get("reason") == "constraint"
    ]


def test_formation_reject_names_instruction_constraint():
    func = make_diamond()
    tracer = Tracer()
    form_module(
        build_module(func), constraints=TripsConstraints(max_instructions=4), tracer=tracer
    )
    trace = tracer.finish()
    rejects = _constraint_rejects(trace)
    assert rejects, "tight instruction limit must reject at least one trial"
    for event in rejects:
        attrs = event.attrs
        assert CONSTRAINT_INSTRUCTIONS in attrs["constraints"]
        assert len(attrs["constraints"]) == len(attrs["violations"])
        assert attrs["estimate"]["total_instructions"] > 4


def test_formation_reject_names_memory_constraint():
    fb = FunctionBuilder("main", nparams=1)
    fb.block("entry", entry=True)
    cond = fb.tlt(0, fb.movi(4))
    fb.br_cond(cond, "loads", "exit")
    fb.block("loads")
    acc = fb.movi(0)
    for i in range(3):
        fb.mov_to(acc, fb.add(acc, fb.load(0, offset=i)))
    fb.br("exit")
    fb.block("exit")
    fb.ret(acc)
    func = fb.finish()

    tracer = Tracer()
    form_module(
        build_module(func), constraints=TripsConstraints(max_memory_ops=2), tracer=tracer
    )
    trace = tracer.finish()
    rejects = _constraint_rejects(trace)
    assert rejects
    kinds = {kind for e in rejects for kind in e.attrs["constraints"]}
    assert CONSTRAINT_MEMORY_OPS in kinds
    for event in rejects:
        assert event.attrs["estimate"]["memory_ops"] >= 3


def test_rejected_trial_span_wraps_the_reject_event():
    func = make_diamond()
    tracer = Tracer()
    form_module(
        build_module(func), constraints=TripsConstraints(max_instructions=4), tracer=tracer
    )
    trace = tracer.finish()
    reject = _constraint_rejects(trace)[0]
    trial = next(
        e for e in trace.spans("trial") if e.span_id == reject.parent_id
    )
    assert trial.attrs["committed"] is False
    assert (trial.attrs["hb"], trial.attrs["target"]) == (
        reject.attrs["hb"], reject.attrs["target"],
    )
