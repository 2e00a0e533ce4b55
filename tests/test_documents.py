"""Malformed documents are DocumentErrors (exit 2), never tracebacks or silent coercions."""
import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import nearsemiring as nsr
from nearsemiring import fixtures
from nearsemiring.cli import main
from nearsemiring.core import DocumentError

DOCS = [fixtures.fixture(name).to_document() for name in ("EX24", "EX28", "MV3", "MO2")]
DOCS += [fixtures.mv3_basic().to_document(), fixtures.mo2_ortholattice().to_document()]
CONSTANTS = {"oplus": ("zero",), "join": ("zero", "one")}
TABLES = ("add", "mul", "inv", "oplus", "neg", "join", "ortho")


def _constants(doc):
    for table, names in CONSTANTS.items():
        if table in doc:
            return names
    return ("zero", "one")


def _run(tmp_path, doc, *argv):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return main(["check", str(path), *argv])


@pytest.mark.parametrize("doc", DOCS, ids=lambda d: d["name"])
def test_malformed_documents_exit_two(doc, tmp_path, capsys):
    table = next(k for k in ("add", "oplus", "join") if k in doc)
    cases = []
    ragged = copy.deepcopy(doc)
    ragged[table][1].pop()
    cases.append(ragged)
    for bad in ("0", 0.5, False, None, [0]):
        for name in _constants(doc):
            case = copy.deepcopy(doc)
            case[name] = bad
            cases.append(case)
    for size in (doc["size"] + 1, doc["size"] - 1, True, 2.0):
        case = copy.deepcopy(doc)
        case["size"] = size
        cases.append(case)
    for table in TABLES:
        if table in doc:
            # a JSON boolean among integers, in place of the integer numpy would read it as
            case = copy.deepcopy(doc)
            rows = case[table] if isinstance(case[table][0], list) else [case[table]]
            i, j = next((i, j) for i, row in enumerate(rows) for j, v in enumerate(row)
                        if v in (0, 1))
            rows[i][j] = bool(rows[i][j])
            cases.append(case)
    for labels in ("abc"[:doc["size"]], list(range(doc["size"])), 7):
        case = copy.deepcopy(doc)
        case["labels"] = labels
        cases.append(case)
    for case in cases:
        assert _run(tmp_path, case) == 2, case
        assert "input error" in capsys.readouterr().err


def test_numpy_integer_constants_stay_valid():
    a = fixtures.mv3()
    b = nsr.FiniteNearSemiring(a.add, a.mul, np.int64(a.zero), np.int32(a.one), inv=a.inv)
    assert b.same_tables(a)
    with pytest.raises(DocumentError):
        nsr.FiniteNearSemiring(a.add, a.mul, np.bool_(False), a.one, inv=a.inv)


def test_find_max_below_one_is_a_usage_error(capsys):
    for value in ("0", "-2"):
        assert main(["find", "--max", value, "--satisfy", "involutive"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "at least 1" in captured.err


def test_enumerate_workers_below_one_is_a_usage_error(capsys):
    for value in ("0", "-3"):
        argv = ["enumerate", "--size", "3", "--constraint", "involutive-integral"]
        assert main(argv + ["--workers", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "at least 1" in captured.err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats(-2, 12) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=2),
    max_leaves=6)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(doc) + ["labels", "inv"]))
        action = draw(st.sampled_from(("set", "delete", "cell", "row")))
        value = doc.get(key)
        if action == "delete":
            doc.pop(key, None)
        elif action in ("cell", "row") and isinstance(value, list) and value:
            i = draw(st.integers(0, len(value) - 1))
            if action == "row" or not isinstance(value[i], list) or not value[i]:
                value[i] = draw(json_values)
            else:
                value[i][draw(st.integers(0, len(value[i]) - 1))] = draw(json_values)
        else:
            doc[key] = draw(json_values)
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_documents(), profile=st.sampled_from(sorted(nsr.PROFILES)))
def test_mutated_documents_never_raise(doc, profile, tmp_path, capsys):
    argv = () if ("oplus" in doc or "join" in doc) else ("--profile", profile)
    assert _run(tmp_path, doc, *argv) in (0, 1, 2)
    capsys.readouterr()


def _nested(depth: int) -> str:
    return "[" * depth + "0" + "]" * depth


@pytest.mark.parametrize("depth", [900, 100_000])
def test_deeply_nested_tables_exit_two(depth, tmp_path, capsys):
    text = ('{"name": "R", "size": 1, "zero": 0, "one": 0, "add": %s, "mul": [[0]]}'
            % _nested(depth))
    with pytest.raises(DocumentError, match="nested too deeply"):
        nsr.load_algebra(text)
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_deeply_nested_table_objects_are_document_errors():
    # parsed already, so only the table scan sees the nesting
    table = [0]
    for _ in range(2_000):
        table = [table]
    for args in ((table, [[0]]), ([[0]], table)):
        with pytest.raises(DocumentError, match="nested too deeply"):
            nsr.FiniteNearSemiring(*args, 0, 0)
    with pytest.raises(DocumentError, match="nested too deeply"):
        nsr.BasicAlgebra([[0]], table, 0)
    # a boolean at the bottom is still found, however deep
    table = [True]
    for _ in range(2_000):
        table = [table]
    with pytest.raises(DocumentError, match="integers"):
        nsr.FiniteNearSemiring(table, [[0]], 0, 0)


def test_non_utf8_files_exit_two(tmp_path, capsys):
    path = tmp_path / "doc.json"
    for data in (b"\xff\xfe{}", b'{"name": "\xff"}'):
        path.write_bytes(data)
        assert main(["check", str(path)]) == 2
        assert "input error" in capsys.readouterr().err
        with pytest.raises(DocumentError):
            nsr.load_algebra(data)


def test_foreign_or_misspelt_keys_are_document_errors(tmp_path, capsys):
    mv3 = fixtures.mv3().to_document()
    misspelt = {k: v for k, v in mv3.items() if k != "inv"} | {"Inv": mv3["inv"]}
    both = mv3 | fixtures.mv3_basic().to_document()     # near-semiring and basic-algebra tables
    # load_algebra reads a near semiring; the CLI reads a basic algebra by its first table,
    # and the first key foreign to that is the constant "one"
    for doc, loaded, read in ((misspelt, "'Inv'", "'Inv'"), (both, "'oplus'", "'one'")):
        for source in (doc, json.dumps(doc)):
            with pytest.raises(DocumentError, match=f"unknown field {loaded}"):
                nsr.load_algebra(source)
        assert _run(tmp_path, doc) == 2
        assert f"unknown field {read}" in capsys.readouterr().err


def test_an_emitted_fixture_document_loads_with_its_comment(tmp_path, capsys):
    assert main(["fixtures", "emit", "MV3"]) == 0
    text = capsys.readouterr().out
    assert "comment" in json.loads(text)
    assert nsr.load_algebra(text).same_tables(fixtures.mv3())
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_a_document_that_is_not_an_object_is_a_document_error(tmp_path, capsys):
    for text in ("[1, 2]", "3", '"MV3"'):
        with pytest.raises(DocumentError, match="algebra document must be a JSON object"):
            nsr.load_algebra(text)
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err
