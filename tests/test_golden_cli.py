"""Golden CLI outputs: stdout digest and exit code of every subcommand.

Each invocation runs through ``cli.main`` in-process; its stdout is hashed
with sha256 and compared, together with the exit code, against
``golden_cli.json``.  Sources are the catalog fixtures, three products, and
companion documents (basic algebras, ortholattices) written to a temporary
directory and named ``doc:NAME`` in the keys.

Regenerate the digests (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from nearsemiring import fixtures, transforms
from nearsemiring.cli import main
from nearsemiring.core import PROFILES
from nearsemiring.varieties import BasicAlgebra

GOLDEN = Path(__file__).with_name("golden_cli.json")

SOURCES = fixtures.names() + ("MV3xBOOL2", "MO2xBOOL2", "BOOL4xMV3")
SUITES = ("core", "lukasiewicz", "orthomodular", "oml", "central", "witness-terms")



def _mutant(build, cell, value, name):
    """A builder of build()'s basic algebra with one ⊕ cell changed."""
    def mutant():
        basic = build()
        oplus = basic.oplus.copy()
        oplus[cell] = value
        return BasicAlgebra(oplus, basic.neg, basic.zero, name=name, labels=basic.labels)
    return mutant


def _bool4_basic():
    return transforms.basic_from_lns(fixtures.bool4())


# companion documents: basic algebras and ortholattices; the mutants fail BA4 and the
# order checks (order-partial-order by transitivity, antisymmetry and reflexivity in turn)
DOCUMENTS = {
    "MV3basic": fixtures.mv3_basic,
    "MO2lat": fixtures.mo2_ortholattice,
    "chain2": fixtures.chain2_ortholattice,
    "BOOL4lat": fixtures.bool4_ortholattice,
    "MV3basic-transitive": _mutant(fixtures.mv3_basic, (2, 2), 0, "MV3basic-transitive"),
    "BOOL4basic-antisymmetric": _mutant(_bool4_basic, (0, 1), 3, "BOOL4basic-antisymmetric"),
    "BOOL4basic-reflexive": _mutant(_bool4_basic, (1, 2), 0, "BOOL4basic-reflexive"),
}


def invocations() -> list:
    """Every golden argv, sources as fixtures:NAME or doc:NAME."""
    out = []
    for name in SOURCES:
        src = f"fixtures:{name}"
        for profile in sorted(PROFILES):
            out.append(("check", src, "--profile", profile))
            out.append(("check", src, "--profile", profile, "--json"))
            out.append(("check", src, "--profile", profile, "--dot"))
        for suite in SUITES:
            out.append(("properties", src, "--suite", suite))
        for to in ("basic", "oml"):
            out.append(("translate", src, "--to", to))
        for via in ("basic", "oml"):
            out.append(("roundtrip", src, "--via", via))
        out.append(("congruences", src, "--json"))
        out.append(("congruences", src, "--dot"))
        out.append(("center", src, "--method", "all", "--json"))
        out.append(("decompose", src, "--json"))
        out.append(("fixtures", "emit", name))
    for name in DOCUMENTS:
        src = f"doc:{name}"
        out.append(("check", src))
        out.append(("check", src, "--json"))
        for to in ("lns", "ons"):
            out.append(("translate", src, "--to", to))
        for via in ("basic", "oml"):
            out.append(("roundtrip", src, "--via", via, "--json"))
        out.append(("properties", src, "--suite", "oml"))
    out.append(("fixtures", "list"))
    for size in range(1, 6):
        out.append(("enumerate", "--size", str(size), "--constraint", "involutive-integral"))
    out.append(("find", "--max", "4", "--satisfy", "involutive-integral",
                "--violate", "lukasiewicz"))
    return out


def _write_documents(directory: Path) -> dict:
    paths = {}
    for name, build in DOCUMENTS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(build().to_document()), encoding="utf-8")
        paths[f"doc:{name}"] = str(path)
    return paths


def run_golden(argv, paths) -> list:
    """[exit code, sha256 of stdout] of one invocation."""
    real = [paths.get(a, a) for a in argv]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = main(real)
    return [code, hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()]


@pytest.fixture(scope="module")
def document_paths(tmp_path_factory):
    return _write_documents(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_set_is_complete(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in invocations())


@pytest.mark.parametrize("argv", invocations(), ids=" ".join)
def test_golden_cli(argv, golden, document_paths):
    assert run_golden(argv, document_paths) == golden[" ".join(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_cli.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_documents(Path(tmp))
        record = {" ".join(argv): run_golden(argv, paths) for argv in invocations()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(record)} invocations in {GOLDEN}")
