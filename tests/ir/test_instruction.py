"""Unit tests for Instruction and Predicate."""

import ast
from pathlib import Path

import repro
from repro.ir import Instruction, Opcode, Predicate


def test_uids_are_unique():
    a = Instruction(Opcode.ADD, dest=2, srcs=(0, 1))
    b = Instruction(Opcode.ADD, dest=2, srcs=(0, 1))
    assert a.uid != b.uid


def test_copy_gets_fresh_uid_but_keeps_origin():
    a = Instruction(Opcode.ADD, dest=2, srcs=(0, 1))
    c = a.copy()
    assert c.uid != a.uid
    assert c.origin == a.uid
    d = c.copy()
    assert d.origin == a.uid


def test_copy_shares_the_predicate_value():
    a = Instruction(Opcode.ADD, dest=2, srcs=(0, 1), pred=Predicate(5, True))
    c = a.copy()
    assert c.pred is a.pred
    c.pred = Predicate(6, False)
    assert a.pred == Predicate(5, True)


def test_nothing_assigns_a_predicate_field_after_init():
    """Predicates are values, which is what lets copies share them: no
    code in the package assigns ``.reg`` or ``.sense`` (directly, by
    augmented assignment or by ``setattr``) outside ``Predicate.__init__``."""
    offenders = []

    class Scan(ast.NodeVisitor):
        def __init__(self, path):
            self.path = path
            self.scope = []

        def _scoped(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

        def _targets(self, targets, node):
            for target in targets:
                if isinstance(target, (ast.Tuple, ast.List)):
                    self._targets(target.elts, node)
                elif isinstance(target, ast.Starred):
                    self._targets([target.value], node)
                elif isinstance(target, ast.Attribute) and target.attr in (
                    "reg", "sense"
                ):
                    self._offend(node)

        def _offend(self, node):
            if self.scope[-2:] != ["Predicate", "__init__"]:
                offenders.append(f"{self.path}:{node.lineno}")

        def visit_Assign(self, node):
            self._targets(node.targets, node)
            self.generic_visit(node)

        def visit_AugAssign(self, node):
            self._targets([node.target], node)
            self.generic_visit(node)

        def visit_AnnAssign(self, node):
            self._targets([node.target], node)
            self.generic_visit(node)

        def visit_Call(self, node):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "setattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in ("reg", "sense")
            ):
                self._offend(node)
            self.generic_visit(node)

    package = Path(repro.__file__).parent
    paths = sorted(package.rglob("*.py"))
    assert paths
    for path in paths:
        Scan(path.relative_to(package)).visit(ast.parse(path.read_text()))
    assert offenders == []


def test_uses_includes_predicate_register():
    a = Instruction(Opcode.ADD, dest=2, srcs=(0, 1), pred=Predicate(5))
    assert set(a.uses()) == {0, 1, 5}
    assert a.defs() == (2,)


def test_store_has_no_defs():
    s = Instruction(Opcode.STORE, srcs=(3, 4), imm=8)
    assert s.defs() == ()
    assert s.is_memory


def test_rewrite_srcs_remaps_sources_and_predicate():
    a = Instruction(Opcode.ADD, dest=2, srcs=(0, 1), pred=Predicate(1, False))
    a.rewrite_srcs({0: 10, 1: 11})
    assert a.srcs == (10, 11)
    assert a.pred == Predicate(11, False)
    assert a.dest == 2  # dest untouched


def test_predicate_negation():
    p = Predicate(3, True)
    assert p.negated() == Predicate(3, False)
    assert p.negated().negated() == p


def test_classification_properties():
    br = Instruction(Opcode.BR, target="B")
    ret = Instruction(Opcode.RET)
    test = Instruction(Opcode.TLT, dest=2, srcs=(0, 1))
    call = Instruction(Opcode.CALL, dest=2, srcs=(0,), callee="f")
    assert br.is_branch and ret.is_branch
    assert not test.is_branch and test.is_test and test.is_pure
    assert call.is_call and not call.is_pure


def test_repr_round_trips_key_fields():
    a = Instruction(Opcode.ADD, dest=2, srcs=(0, 1), pred=Predicate(5, False))
    text = repr(a)
    assert "v2 =" in text and "add" in text and "!v5" in text
    br = Instruction(Opcode.BR, target="loop")
    assert "loop" in repr(br)
