"""Command-line surface: document I/O, fixtures, checks, DOT diagrams.

Exit codes: 0 when every requested check passed, 1 when violations (or a
definitive negative search verdict) were found, 2 for usage or input
errors.  With identical arguments and inputs, stdout is byte-identical
across runs; timing and progress never go to stdout.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fixtures as fixture_catalog
from .core import (
    AlgebraError, DocumentError, FiniteNearSemiring, PreconditionError,
    PROFILES, _parse_json, check_axioms, core_property_suite, hasse_edges, induced_order,
)
from .varieties import (
    BasicAlgebra, OrthoLattice, check_basic_algebra, check_oml,
    check_orthomodular_ns, lukasiewicz_suite, oml_commutes_suite,
)
from .transforms import (
    basic_from_lns, lns_from_basic, oml_from_ons, ons_from_oml, roundtrip_check,
)
from .congruences import (
    all_congruences, congruence_lattice_properties, meet_partitions, witness_term_checks,
)
# central_elements stays bound here because perfbench/tracing.py wraps cli.central_elements
from .center import center_algebra, central_elements, central_lemma_suite, decompose
from .search import enumerate_models, find_model, parse_constraint


def _load_document(source: str):
    """A path to a JSON document, or fixtures:NAME.

    A document is a basic algebra or a lattice when it holds that kind's
    first table, and a near semiring otherwise.
    """
    if source.startswith("fixtures:"):
        return fixture_catalog.fixture(source[len("fixtures:"):])
    try:
        data = Path(source).read_bytes()
    except OSError as exc:
        raise DocumentError(f"cannot read {source}: {exc}") from exc
    doc = _parse_json(data, source)
    if not isinstance(doc, dict):
        raise DocumentError(f"{source} must hold a JSON object")
    cls = next((c for c in (BasicAlgebra, OrthoLattice) if c._kind.tables[0] in doc),
               FiniteNearSemiring)
    return cls.from_document(doc)


def _need_ns(obj) -> FiniteNearSemiring:
    if not isinstance(obj, FiniteNearSemiring):
        raise DocumentError(
            f"this command needs a near-semiring document, got {type(obj).__name__}")
    return obj


def _emit(args, payload_text: str, payload_json) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload_json, indent=1))
    else:
        print(payload_text)


# ---------------------------------------------------------------------------
# DOT rendering


def _dot_order(algebra: FiniteNearSemiring) -> str:
    """Hasse diagrams of whichever induced orders are defined."""
    graphs = []
    for which in ("sum", "mul"):
        try:
            report = induced_order(algebra, which)
        except PreconditionError:
            continue
        if not report.is_partial_order:
            continue
        lines = [f"digraph {which}_order {{", "  rankdir=BT;"]
        for x in range(algebra.n):
            lines.append(f'  "{algebra.label(x)}";')
        for x, y in report.covers():
            lines.append(f'  "{algebra.label(x)}" -> "{algebra.label(y)}";')
        lines.append("}")
        graphs.append("\n".join(lines))
    if not graphs:
        raise PreconditionError(f"{algebra.name} induces no partial order to draw")
    return "\n".join(graphs)


def _dot_congruences(algebra: FiniteNearSemiring, lattice) -> str:
    """Hasse diagram of the congruence lattice under refinement."""
    leq = [[meet_partitions(p, q) == p for q in lattice] for p in lattice]
    lines = ["digraph congruence_lattice {", "  rankdir=BT;"]
    for i, p in enumerate(lattice):
        lines.append(f'  n{i} [label="{p.render(algebra)}"];')
    for i, j in hasse_edges(leq):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    obj = _load_document(args.source)
    if isinstance(obj, BasicAlgebra):
        report = check_basic_algebra(obj)
    elif isinstance(obj, OrthoLattice):
        report = check_oml(obj)
    else:
        report = check_axioms(obj, args.profile)
        if args.dot:
            print(_dot_order(obj))
            return 0 if report.passed else 1
    _emit(args, report.render(), report.to_dict())
    return 0 if report.passed else 1


def _cmd_properties(args) -> int:
    obj = _load_document(args.source)
    if args.suite == "core":
        report = core_property_suite(_need_ns(obj))
    elif args.suite == "lukasiewicz":
        report = lukasiewicz_suite(_need_ns(obj))
    elif args.suite == "orthomodular":
        check = check_orthomodular_ns(_need_ns(obj))
        _emit(args, check.render(), check.to_dict())
        return 0 if check.passed else 1
    elif args.suite == "oml":
        lattice = obj if isinstance(obj, OrthoLattice) else oml_from_ons(_need_ns(obj))
        report = oml_commutes_suite(lattice)
    elif args.suite == "central":
        algebra = _need_ns(obj)
        rep = center_algebra(algebra)
        ok = rep.agreement and rep.boolean_check.passed
        parts = [rep.render(algebra)]
        for e in rep.centrals:
            sub = central_lemma_suite(algebra, e)
            ok = ok and sub.passed
            parts.append(sub.render())
        _emit(args, "\n".join(parts), rep.to_dict())
        return 0 if ok else 1
    else:  # witness-terms
        report = witness_term_checks(_need_ns(obj))
    _emit(args, report.render(), report.to_dict())
    return 0 if report.passed else 1


def _cmd_translate(args) -> int:
    obj = _load_document(args.source)
    if args.to == "basic":
        out = basic_from_lns(_need_ns(obj))
    elif args.to == "lns":
        if not isinstance(obj, BasicAlgebra):
            raise DocumentError("translate --to lns expects a basic-algebra document")
        out = lns_from_basic(obj)
    elif args.to == "ons":
        if not isinstance(obj, OrthoLattice):
            raise DocumentError("translate --to ons expects a lattice document")
        out = ons_from_oml(obj)
    else:  # oml
        out = oml_from_ons(_need_ns(obj))
    print(json.dumps(out.to_document(), indent=1))
    return 0


def _cmd_roundtrip(args) -> int:
    obj = _load_document(args.source)
    report = roundtrip_check(obj, args.via, verbose=args.verbose)
    _emit(args, report.render(), report.to_dict())
    return 0 if report.pointwise_equal else 1


def _cmd_congruences(args) -> int:
    algebra = _need_ns(_load_document(args.source))
    lattice = all_congruences(algebra)
    if args.dot:
        print(_dot_congruences(algebra, lattice))
        return 0
    props = congruence_lattice_properties(algebra, lattice)
    text = "\n".join([f"congruences of {algebra.name}: {len(lattice)}"]
                     + [f"  {p.render(algebra)}" for p in lattice]
                     + [props.render()])
    _emit(args, text, {
        "subject": algebra.name,
        "count": len(lattice),
        "congruences": [list(p.blocks) for p in lattice],
        "properties": props.to_dict(),
    })
    return 0


def _cmd_center(args) -> int:
    algebra = _need_ns(_load_document(args.source))
    method = {"full": "full-conditions"}.get(args.method, args.method)
    report = center_algebra(algebra, method)
    _emit(args, report.render(algebra), report.to_dict())
    return 0 if report.agreement and report.boolean_check.passed else 1


def _cmd_decompose(args) -> int:
    algebra = _need_ns(_load_document(args.source))
    result = decompose(algebra)
    _emit(args, result.render(algebra), result.to_dict())
    return 0


def _cmd_enumerate(args) -> int:
    constraint = parse_constraint(args.constraint or "", args.violate or "")
    result = enumerate_models(args.size, constraint,
                              allow_large=args.allow_large, workers=args.workers)
    if args.json:
        print(json.dumps(result.to_dict(), indent=1))
        return 0
    print(f"models of size {args.size} "
          f"under [{args.constraint or 'near-semiring'}]"
          + (f" violating [{args.violate}]" if args.violate else "")
          + f": {len(result.models)}")
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, model in enumerate(result.models):
            path = outdir / f"model-{args.size}-{i:03d}.json"
            path.write_text(json.dumps(model.to_document(), indent=1), encoding="utf-8")
        print(f"wrote {len(result.models)} documents to {outdir}")
    else:
        for model in result.models:
            print(json.dumps(model.to_document()))
    print(f"nodes explored: {result.nodes}", file=sys.stderr)
    return 0


def _cmd_find(args) -> int:
    result = find_model(args.max, args.satisfy or "", args.violate or "",
                        allow_large=args.allow_large)
    if args.json:
        print(json.dumps(result.to_dict(), indent=1))
        return 0 if result.models else 1
    if result.models:
        model = result.models[0]
        print(f"witness of size {model.n} found")
        print(json.dumps(model.to_document(), indent=1))
        for name, witness in result.violations:
            inst = ", ".join(f"{v}={model.label(x)}" for v, x in witness)
            print(f"violates {name} at {inst}")
        print(f"nodes explored: {result.nodes}", file=sys.stderr)
        return 0
    print(f"exhaustive-none: no model up to size {args.max} "
          f"satisfies [{args.satisfy}] while violating [{args.violate}]")
    print(f"nodes explored: {result.nodes}", file=sys.stderr)
    return 1


def _cmd_fixtures(args) -> int:
    if args.action == "list":
        for name, description in fixture_catalog.catalog():
            print(f"{name:8s} {description}")
        print("products: join names with x, e.g. MV3xBOOL2")
        return 0
    algebra = fixture_catalog.fixture(args.name)
    doc = algebra.to_document()
    doc["comment"] = fixture_catalog.DESCRIPTIONS.get(
        args.name, "product of catalog fixtures")
    print(json.dumps(doc, indent=1))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsr",
        description="Audit, translate, decompose and search finite near semirings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("source", help="algebra document path, or fixtures:NAME")

    p = sub.add_parser("check", help="check an axiom profile, report violations")
    add_source(p)
    p.add_argument("--profile", default="near-semiring", choices=sorted(PROFILES))
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", action="store_true",
                   help="emit DOT Hasse diagrams of the induced orders instead")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("properties", help="run an exhaustive property suite")
    add_source(p)
    p.add_argument("--suite", required=True,
                   choices=["core", "lukasiewicz", "orthomodular", "oml",
                            "central", "witness-terms"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_properties)

    p = sub.add_parser("translate", help="translate between structure kinds")
    add_source(p)
    p.add_argument("--to", required=True, choices=["basic", "lns", "ons", "oml"])
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("roundtrip", help="verify a translation round trip pointwise")
    add_source(p)
    p.add_argument("--via", required=True, choices=["basic", "oml"])
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_roundtrip)

    p = sub.add_parser("congruences", help="compute the congruence lattice")
    add_source(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=_cmd_congruences)

    p = sub.add_parser("center", help="central elements and the center algebra")
    add_source(p)
    p.add_argument("--method", default="all",
                   choices=["equational", "congruence", "full", "full-conditions", "all"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_center)

    p = sub.add_parser("decompose", help="direct decomposition into indecomposables")
    add_source(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("enumerate", help="all models of one size, up to isomorphism")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--constraint", default="",
                   help="comma-separated profiles and identity names")
    p.add_argument("--violate", default="",
                   help="identities every emitted model must violate")
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None, help="directory for model documents")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("find", help="first model satisfying/violating identities")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--satisfy", default="")
    p.add_argument("--violate", default="")
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_find)

    p = sub.add_parser("fixtures", help="list built-in algebras or emit one")
    fsub = p.add_subparsers(dest="action", required=True)
    fsub.add_parser("list")
    pe = fsub.add_parser("emit")
    pe.add_argument("name")
    p.set_defaults(fn=_cmd_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 1
    except DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
