"""Derived structures are built on trusted fields, and only their labels are checked.

Relabellings, products, duals, quotients, the center, the intervals [0, e],
the four translations and stack slices are all built by _Structure._built
from fields of structures that were validated already; the search's stacks,
their takes and TableStack.of by the same build, which TableStack shares.  A spy on _built
catches every structure these constructions make, and each is checked: its
document loads back to the same tables, name and labels, and every array
of its ops is read-only.  A spy on the table validators shows that none of
them runs again, apart from relabel's check of its permutation.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nearsemiring as nsr
from nearsemiring import core, search, varieties
from nearsemiring.congruences import Congruence

VALIDATORS = ("_square_table", "_binary_table", "_unary_table")
COMPANIONS = (nsr.fixtures.mv3_basic, nsr.fixtures.mo2_ortholattice,
              nsr.fixtures.chain2_ortholattice, nsr.fixtures.bool4_ortholattice)
FIXTURES = [nsr.fixtures.fixture(name) for name in
            nsr.fixtures.names() + ("MV3xBOOL2", "MO2xBOOL2")] + [f() for f in COMPANIONS]


def _constructions(s, perm):
    """Every construction of a structure from s, whether or not s meets its preconditions."""
    yield lambda: s.relabel(perm, name="P")
    yield lambda: nsr.product_algebra(s, s)
    if isinstance(s, nsr.FiniteNearSemiring):
        yield lambda: nsr.dual_algebra(s)
        for theta in nsr.all_congruences(s):
            yield lambda theta=theta: nsr.quotient_algebra(s, theta)
        yield lambda: nsr.center_algebra(s)
        for e in range(s.n):
            yield lambda e=e: nsr.interval_algebra(s, e)
        yield lambda: nsr.basic_from_lns(s)
        yield lambda: nsr.oml_from_ons(s)
    elif isinstance(s, nsr.BasicAlgebra):
        yield lambda: nsr.lns_from_basic(s)
    else:
        yield lambda: nsr.ons_from_oml(s)


def _derive(s, perm):
    """The structures every construction that applies to s builds, and the table
    validations they make, as (validator, what) pairs."""
    built, validated = [], []
    build = core._Structure._built.__func__

    def spy_build(cls, fields, name, labels):
        built.append(build(cls, fields, name, labels))
        return built[-1]

    def spy(validator, original):
        def wrapper(obj, *args, **kwargs):
            validated.append((validator, args[0] if validator == "_square_table" else args[1]))
            return original(obj, *args, **kwargs)
        return wrapper

    constructions = list(_constructions(s, perm))      # the congruences are found unspied
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core._Structure, "_built", classmethod(spy_build))
        for module in (core, varieties):
            for name in VALIDATORS:
                if hasattr(module, name):
                    mp.setattr(module, name, spy(name, getattr(module, name)))
        for construct in constructions:
            try:
                construct()
            except nsr.DocumentError:
                raise
            except nsr.AlgebraError:                    # a precondition s does not meet
                pass
    return built, validated


def _assert_trusted(d):
    back = type(d).from_document(d.to_document())
    assert back.same_tables(d) and back.name == d.name and back.labels == d.labels
    arrays = [v for v in d.ops().values() if isinstance(v, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)


@st.composite
def structures(draw):
    """A relabelled fixture, or tables of a drawn kind and size 1 to 4 with no axioms."""
    if draw(st.booleans()):
        s = draw(st.sampled_from(FIXTURES))
        return s.relabel(draw(st.permutations(range(s.n))), name="F")
    kind = draw(st.sampled_from([nsr.FiniteNearSemiring, nsr.BasicAlgebra, nsr.OrthoLattice]))
    n = draw(st.integers(1, 4))
    square = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n * n,
                                    max_size=n * n))).reshape(n, n)
    perm = draw(st.permutations(range(n)))
    zero, one = draw(st.permutations(range(n)))[:2] if n >= 2 else (0, 0)
    labels = draw(st.none() | st.just([f"e{i}" for i in range(n)]))
    if kind is nsr.BasicAlgebra:
        return kind(square, perm, zero, labels=labels)
    if kind is nsr.OrthoLattice:
        return kind(square, perm, zero, one, labels=labels)
    mul = draw(st.sampled_from([square, square.T]))
    return kind(square, mul, zero, one, inv=draw(st.none() | st.just(perm)), labels=labels)


@settings(max_examples=60, deadline=None)
@given(structures(), st.data())
def test_every_derived_structure_is_trusted_and_validated_only_at_its_permutation(s, data):
    perm = data.draw(st.permutations(range(s.n)))
    built, validated = _derive(s, perm)
    assert len(built) >= 2                              # the relabelling and the product
    for d in built:
        _assert_trusted(d)
    assert validated == [("_unary_table", "permutation")]


def test_the_fixtures_derived_structures_are_trusted():
    names = set()
    for s in FIXTURES:
        built, validated = _derive(s, np.arange(s.n)[::-1])
        for d in built:
            _assert_trusted(d)
        assert validated == [("_unary_table", "permutation")], s.name
        names.update(d.name for d in built)
    # each construction built something on some fixture
    for part in ("P", "MV3xMV3", "dual(MV3)", "MV3xBOOL2/θ", "Ce(MO2xBOOL2)", "MO2xBOOL2[0,",
                 "B(MV3)", "R(MV3basic)", "R(MO2)", "L(MO2)"):
        assert any(name.startswith(part) for name in names), part


def test_stack_slices_are_trusted():
    models = nsr.enumerate_models(4, "involutive-integral").models
    with pytest.MonkeyPatch.context() as mp:
        for name in VALIDATORS:
            mp.setattr(core, name, None)                # a call would raise TypeError
        slices = [models[i] for i in range(len(models))] + [models.algebra(0, 7)]
    for d in slices:
        _assert_trusted(d)
    assert slices[-1].name == "7" and slices[0].name == "n4#0"


def test_stacks_are_built_on_trusted_fields():
    built, build = [], core._Declared._built.__func__

    def spy_build(cls, fields, name, labels):
        built.append(build(cls, fields, name, labels))
        return built[-1]

    verified, verify = [], search._verify
    mv3 = nsr.fixtures.mv3()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core.TableStack, "_built", classmethod(spy_build))
        mp.setattr(search, "_verify", lambda stack, c: verified.append(stack) or verify(stack, c))
        for name in VALIDATORS:
            mp.setattr(core, name, None)                # a call would raise TypeError
        models = nsr.enumerate_models(4, "involutive-integral").models
        witness = nsr.find_model(4, "involutive-integral", "lukasiewicz").models
        picked = models.take(np.arange(3))
        stacked = core.TableStack.of([mv3, mv3])
    assert {s.name for s in built} >= {"candidate", "n4#{}", "witness-n3", "R"}
    for stack in verified + [models, witness, picked, stacked]:     # the leaves, then the rest
        assert any(s is stack for s in built)
    for stack in built:
        assert isinstance(stack, core.TableStack) and stack.labels == core._plain_labels(stack.n)
        assert not any(v.flags.writeable for v in stack.ops().values() if isinstance(v, np.ndarray))


def _lattices():
    fx = nsr.fixtures
    mo2 = fx.mo2_ortholattice()
    return [mo2, mo2.relabel([5, 3, 1, 0, 4, 2]),
            nsr.product_algebra(mo2, fx.chain2_ortholattice()),
            nsr.oml_from_ons(fx.fixture("MO2xBOOL2")), fx.bool4_ortholattice()]


@pytest.mark.parametrize("lat", _lattices(), ids=lambda s: s.name)
def test_the_meet_is_derived_once_per_lattice(lat):
    meet = lat.meet
    assert meet is lat.meet and lat.ops()["meet"] is meet and not meet.flags.writeable
    assert np.array_equal(meet, core.relabel_table(lat.join, lat.ortho, lat.ortho))
    assert nsr.check_oml(lat).passed


def test_joined_labels_that_collide_are_still_refused():
    bool2 = nsr.fixtures.bool2()
    a = nsr.FiniteNearSemiring(bool2.add, bool2.mul, 0, 1, inv=bool2.inv, labels=("p", "p,q"))
    b = nsr.FiniteNearSemiring(bool2.add, bool2.mul, 0, 1, inv=bool2.inv, labels=("q,r", "r"))
    with pytest.raises(nsr.DocumentError, match="^labels must be 4 distinct strings$"):
        nsr.product_algebra(a, b)
    doc = dict(nsr.fixtures.fixture("MV3xBOOL2").to_document(), labels="a,b c a b,c d e".split())
    algebra = nsr.load_algebra(doc)
    with pytest.raises(nsr.DocumentError, match="^labels must be 3 distinct strings$"):
        nsr.quotient_algebra(algebra, Congruence((0, 0, 1, 1, 2, 2)))
