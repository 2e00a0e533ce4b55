"""One declaration per structure kind.

Documents, table equality, ops and pickling of near semirings, basic
algebras and ortholattices all come from each kind's declaration; these
tests pin what that gives for each kind.
"""
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nearsemiring as nsr
from nearsemiring import cli

# per kind: the class, its document's fields in order (the optional one last) and its ops keys
KINDS = {
    "algebra": (nsr.FiniteNearSemiring, ("zero", "one", "add", "mul", "inv"),
                {"add", "mul", "zero", "one", "inv"}),
    "basic": (nsr.BasicAlgebra, ("zero", "oplus", "neg"), {"oplus", "neg", "zero", "one"}),
    "lattice": (nsr.OrthoLattice, ("zero", "one", "join", "ortho"),
                {"join", "meet", "ortho", "zero", "one"}),
}


@st.composite
def structures(draw):
    """A structurally valid structure of a drawn kind, size 1 to 5; an algebra may lack inv."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    n = draw(st.integers(1, 5))
    element = st.integers(0, n - 1)

    def square():
        return np.array(draw(st.lists(element, min_size=n * n, max_size=n * n))).reshape(n, n)

    perm = draw(st.permutations(range(n)))
    zero = draw(element)
    one = draw(element.filter(lambda x: n == 1 or x != zero))
    labels = draw(st.none() | st.permutations([f"e{i}" for i in range(n)]))
    name = draw(st.sampled_from(["S", "T x", "ü"]))
    if kind == "algebra":
        inv = draw(st.none() | st.just(perm))
        return nsr.FiniteNearSemiring(square(), square(), zero, one, inv=inv, name=name,
                                      labels=labels)
    if kind == "basic":
        return nsr.BasicAlgebra(square(), perm, zero, name=name, labels=labels)
    return nsr.OrthoLattice(square(), perm, zero, one, name=name, labels=labels)


def _kind(structure):
    return next(k for k, (cls, _f, _o) in KINDS.items() if type(structure) is cls)


def _expected_keys(structure):
    _cls, fields, _ops = KINDS[_kind(structure)]
    keys = ["name", "size"] + [f for f in fields if getattr(structure, f) is not None]
    plain = tuple(str(i) for i in range(structure.n))
    return keys + ([] if structure.labels == plain else ["labels"])


@settings(max_examples=200, deadline=None)
@given(structures())
def test_documents_round_trip_with_their_key_order(s):
    doc = s.to_document()
    assert list(doc) == _expected_keys(s)
    for again in (type(s).from_document(doc), type(s).from_document(json.loads(json.dumps(doc))),
                  pickle.loads(pickle.dumps(s))):
        assert type(again) is type(s)
        assert again.same_tables(s) and s.same_tables(again)
        assert (again.name, again.labels, again.n) == (s.name, s.labels, s.n)
        assert list(again.to_document()) == list(doc)
        assert again.to_document() == doc
        assert not any(np.ndim(v) and v.flags.writeable for v in again.ops().values())


@settings(max_examples=300, deadline=None)
@given(structures(), st.data())
def test_same_tables_sees_any_single_change(s, data):
    """One changed table cell or constant, or a dropped inv, as a document edit."""
    doc, n = s.to_document(), s.n
    constants = [f for f in ("zero", "one") if f in doc]
    changes = [("drop", "inv")] if "inv" in doc else []
    changes += [("cell", f) for f in doc if n > 1 and np.ndim(doc[f]) == 2]
    changes += [("constant", c) for c in constants if n > len(constants)]
    if not changes:
        return
    what, field = data.draw(st.sampled_from(changes))
    if what == "drop":
        del doc[field]
    elif what == "constant":
        doc[field] = data.draw(st.sampled_from(
            [x for x in range(n) if x not in [doc[c] for c in constants]]))
    else:
        x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        doc[field][x][y] = data.draw(st.sampled_from(
            [v for v in range(n) if v != doc[field][x][y]]))
    changed = type(s).from_document(doc)
    assert not s.same_tables(changed)
    assert not changed.same_tables(s)


@settings(max_examples=100, deadline=None)
@given(structures())
def test_ops_keys_stay_per_kind(s):
    _cls, _fields, keys = KINDS[_kind(s)]
    if getattr(s, "inv", True) is None:
        keys = keys - {"inv"}
    ops = s.ops()
    assert set(ops) == keys
    for name, value in ops.items():
        assert value is getattr(s, name) or value == getattr(s, name)
    ops.clear()                       # a caller's copy: the structure's own is untouched
    assert set(s.ops()) == keys


def test_table_stack_ops_follow_the_near_semiring_declaration():
    mv3 = nsr.fixtures.fixture("MV3")
    stack = nsr.core.TableStack(np.stack([mv3.add] * 2), mv3.mul, mv3.zero, mv3.one)
    assert set(stack.ops()) == {"add", "mul", "zero", "one"}
    stack = nsr.core.TableStack(np.stack([mv3.add] * 2), mv3.mul, mv3.zero, mv3.one,
                                inv=mv3.inv)
    assert set(stack.ops()) == {"add", "mul", "zero", "one", "inv"}


def test_repr_per_kind():
    mv3 = nsr.fixtures.fixture("MV3")
    assert repr(mv3) == "FiniteNearSemiring('MV3', n=3, inv=True)"
    assert repr(nsr.basic_from_lns(mv3)) == "BasicAlgebra('B(MV3)', n=3)"
    assert repr(nsr.fixtures.mo2_ortholattice()) == "OrthoLattice('MO2', n=6)"


def test_the_cli_reads_a_document_as_the_kind_whose_first_table_it_holds(tmp_path):
    mv3 = nsr.fixtures.fixture("MV3")
    lattice = nsr.fixtures.mo2_ortholattice().to_document()
    cases = [
        (mv3.to_document(), nsr.FiniteNearSemiring),
        (nsr.basic_from_lns(mv3).to_document(), nsr.BasicAlgebra),
        (lattice, nsr.OrthoLattice),
        ({**mv3.to_document(), "join": lattice["join"]},
         "lattice document lacks required field 'ortho'"),
        ({**lattice, "oplus": lattice["join"]},
         "basic-algebra document lacks required field 'neg'"),
        ({"name": "x", "join": [[0]]}, "lattice document lacks required field 'size'"),
        ({"name": "x", "neg": [0]}, "algebra document lacks required field 'size'"),
    ]
    for i, (doc, expected) in enumerate(cases):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        if isinstance(expected, str):
            with pytest.raises(nsr.DocumentError, match=f"^{expected}$"):
                cli._load_document(str(path))
        else:
            assert type(cli._load_document(str(path))) is expected
