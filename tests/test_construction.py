"""The construction contract: a kind's validating constructor reads only input from outside.

Inside the package, a structure kind's constructor (FiniteNearSemiring(…),
BasicAlgebra(…), OrthoLattice(…), and in a kind's own methods cls(…) and
type(…)(…)) may be called only by _Structure.from_document, which reads
documents, and in fixtures.py, whose tables are entered by hand.  Every
structure derived from validated ones is built by _Structure._built, which
takes its fields as given.  A TableStack has no constructor of its own, and
no package code calls the class: TableStack.of and the trusted build make
every stack.  This reads each module's syntax tree.
"""
import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import nearsemiring
from nearsemiring import core

KINDS = {core._Structure.__name__} | {c.__name__ for c in core._Structure.__subclasses__()}
ALLOWED_MODULES = {"fixtures"}
ALLOWED_METHODS = {("_Structure", "from_document")}


class _Calls(ast.NodeVisitor):
    """The calls of a module to the given classes, as (class, function, line) triples."""

    def __init__(self, kinds):
        self.kinds, self.where, self.found = kinds, [], []

    def _scoped(self, node):
        self.where.append(node)
        self.generic_visit(node)
        self.where.pop()

    visit_ClassDef = visit_FunctionDef = _scoped

    def visit_Call(self, node):
        func = node.func
        classes = [n.name for n in self.where if isinstance(n, ast.ClassDef)]
        in_kind = bool(classes) and classes[-1] in self.kinds
        if (isinstance(func, ast.Name) and (func.id in self.kinds or func.id == "cls" and in_kind)
                or isinstance(func, ast.Attribute) and func.attr in self.kinds
                or isinstance(func, ast.Call) and isinstance(func.func, ast.Name)
                and func.func.id == "type"):
            functions = [n.name for n in self.where if isinstance(n, ast.FunctionDef)]
            self.found.append((classes[-1] if classes else None,
                               functions[-1] if functions else None, node.lineno))
        self.generic_visit(node)


def _constructor_calls(kinds=KINDS) -> dict:
    package = Path(nearsemiring.__file__).parent
    calls = {}
    for path in sorted(package.glob("*.py")):
        visitor = _Calls(kinds)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        calls[path.stem] = visitor.found
    return calls


def test_kinds_are_the_three_structures():
    assert KINDS == {"_Structure", "FiniteNearSemiring", "BasicAlgebra", "OrthoLattice"}


def test_only_documents_and_fixtures_call_a_kinds_constructor():
    calls = _constructor_calls()
    stray = [f"{module}.py:{line} in {cls or '-'}.{function or '-'}"
             for module, found in calls.items() if module not in ALLOWED_MODULES
             for cls, function, line in found if (cls, function) not in ALLOWED_METHODS]
    assert stray == []
    # the check sees the calls it allows
    assert [(cls, function) for cls, function, _line in calls["core"]] == [
        ("_Structure", "from_document")]
    assert len(calls["fixtures"]) >= 6


def test_no_package_code_calls_the_table_stack_class():
    stray = [f"{module}.py:{line}" for module, found in _constructor_calls({"TableStack"}).items()
             for _cls, _function, line in found]
    assert stray == []
    assert "__init__" not in vars(core.TableStack)
    mv3 = nearsemiring.fixtures.mv3()
    with pytest.raises(TypeError):
        core.TableStack(mv3.add, np.stack([mv3.mul] * 2), mv3.zero, mv3.one)


def test_only_two_checks_search_a_first_failure_by_hand():
    """core._first_true, the hand-written search for a first failing point, serves only
    the two checks that are no equation; every equational check is a clause."""
    calls = {(module, function) for module, found in _constructor_calls({"_first_true"}).items()
             for _cls, function, _line in found}
    assert calls == {("center", "_subalgebra"), ("congruences", "_first_non_permuting")}


def test_no_table_validator_reads_stacks():
    for name in ("_square_table", "_binary_table", "_unary_table"):
        assert "stack" not in inspect.signature(getattr(core, name)).parameters, name
