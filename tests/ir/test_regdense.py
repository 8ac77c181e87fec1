"""Register numbering: the allocation frontier and the renumber pass.

Two properties are pinned here.  First, ``Function.new_reg`` stays
collision-free: the frontier stays above every name allocated or
noted.  Second, :func:`renumber_registers` is the identity on
everything the builder produces (printed IR byte-identical, no version
bumps) and a semantics-preserving densification on sparse parsed IR.
"""

import pytest

from repro.ir import format_function, format_module, parse_function_text
from repro.ir.function import Function, Module
from repro.ir.regdense import renumber_registers
from repro.ir.regmask import as_mask, bits, has, mask_of, regs_of
from repro.sim import run_module
from repro.workloads.generators import random_inputs, random_program
from repro.workloads.spec import SPEC_BENCHMARKS


# -- the register frontier --------------------------------------------------


def test_new_hands_out_sequential_names():
    func = Function("f")
    assert [func.new_reg() for _ in range(4)] == [0, 1, 2, 3]
    assert func.max_reg() == 4


def test_note_below_frontier_is_a_noop():
    func = Function("f")
    for _ in range(3):
        func.new_reg()
    assert func.note_reg(1) == 1
    assert func.max_reg() == 3


def test_note_beyond_the_frontier_skips_the_gap():
    func = Function("f")
    func.new_reg()  # v0
    assert func.note_reg(5) == 5
    assert func.max_reg() == 6  # new_reg() must not collide with v5
    assert func.new_reg() == 6


def test_copy_is_independent():
    func = Function("f", params=[0, 1])
    clone = func.copy()
    clone.new_reg()
    clone.note_reg(10)
    assert func.max_reg() == 2
    assert clone.max_reg() == 11


# -- regmask helpers --------------------------------------------------------


def test_mask_round_trip():
    regs = {0, 3, 17, 64, 200}
    mask = mask_of(regs)
    assert regs_of(mask) == regs
    assert list(bits(mask)) == sorted(regs)
    assert all(has(mask, reg) for reg in regs)
    assert not has(mask, 1)


def test_as_mask_accepts_masks_and_collections():
    assert as_mask(0b1010) == 0b1010
    assert as_mask({1, 3}) == 0b1010
    assert as_mask(frozenset()) == 0
    assert as_mask(0) == 0


# -- renumber_registers: identity on builder-produced IR --------------------


@pytest.mark.parametrize("name", sorted(SPEC_BENCHMARKS))
def test_spec_workloads_round_trip_byte_identical(name):
    module = SPEC_BENCHMARKS[name].module()
    before = format_module(module)
    versions = {
        fname: {bname: block.version for bname, block in func.blocks.items()}
        for fname, func in module.functions.items()
    }
    for func in module:
        mapping = renumber_registers(func)
        assert all(old == new for old, new in mapping.items())
    assert format_module(module) == before
    # Identity renumbering must not invalidate analysis caches.
    for fname, func in module.functions.items():
        for bname, block in func.blocks.items():
            assert block.version == versions[fname][bname]
    # And the same holds through the text parser: parse the printed IR,
    # renumber, print again — byte-identical to what we started with.
    for fname, func in module.functions.items():
        text = format_function(func)
        parsed = parse_function_text(text)
        mapping = renumber_registers(parsed)
        assert all(old == new for old, new in mapping.items())
        assert format_function(parsed) == text


@pytest.mark.parametrize("seed", [1, 7, 23, 58, 91])
def test_random_programs_round_trip_byte_identical(seed):
    module = random_program(seed)
    before = format_module(module)
    for func in module:
        mapping = renumber_registers(func)
        assert all(old == new for old, new in mapping.items())
    assert format_module(module) == before


# -- renumber_registers: densification of sparse parsed IR ------------------

_SPARSE_TEXT = """\
func @main(v0, v1) {
entry:
  v7 = movi 3
  v900 = add v0, v7
  v12 = tlt v900, v1
  br big if v12
  br small if !v12
big:
  v900 = mul v900, v7
  br join
small:
  v900 = sub v900, v7
  br join
join:
  v31 = add v900, v0
  ret v31
}
"""


def test_sparse_function_renumbers_dense():
    func = parse_function_text(_SPARSE_TEXT)
    assert func.next_reg == 901
    mapping = renumber_registers(func)
    # First-appearance order: params, then v7, v900, v12, then v31.
    assert mapping == {0: 0, 1: 1, 7: 2, 900: 3, 12: 4, 31: 5}
    assert func.next_reg == 6
    text = format_function(func)
    assert "v900" not in text
    assert "v5 = add v3, v0" in text


def test_sparse_renumber_preserves_semantics():
    sparse = parse_function_text(_SPARSE_TEXT)
    dense = parse_function_text(_SPARSE_TEXT)
    renumber_registers(dense)
    for args in [(0, 0), (4, -2), (-3, 9), (10, 10)]:
        mod_sparse, mod_dense = Module("s"), Module("d")
        mod_sparse.add_function(parse_function_text(format_function(sparse)))
        mod_dense.add_function(parse_function_text(format_function(dense)))
        res_s, _, mem_s = run_module(mod_sparse, args=args)
        res_d, _, mem_d = run_module(mod_dense, args=args)
        assert res_s == res_d
        assert mem_s == mem_d


def test_sparse_renumber_is_idempotent():
    func = parse_function_text(_SPARSE_TEXT)
    renumber_registers(func)
    after_first = format_function(func)
    mapping = renumber_registers(func)
    assert all(old == new for old, new in mapping.items())
    assert format_function(func) == after_first


@pytest.mark.parametrize("seed", [2, 11, 40])
def test_random_program_semantics_survive_renumber(seed):
    module = random_program(seed)
    baseline = random_program(seed)
    for func in module:
        renumber_registers(func)
    args = random_inputs(seed)
    res_a, _, mem_a = run_module(module, args=args)
    res_b, _, mem_b = run_module(baseline, args=args)
    assert res_a == res_b
    assert mem_a == mem_b
