"""The three benchmark workloads: their seeded inputs, task lists and answer checks.

A task is one unit of the closed loop: one ``nsr`` command for ``search`` and
``structure``, one document through the audit battery for ``audit``.  Each
task has a ``run`` step, which is timed, and a ``check`` step, which is not.
``check`` returns a list of problems; an empty list means the answer matched
its anchor.

The malformed documents of the audit corpus are not tasks: no task of a
workload may fail, and at the seed commit none of them is rejected (the
input handling defect of ROADMAP item 5).  ``malformed_problems`` loads them
once per run, untimed, and its problems, all of kind
``malformed-not-rejected``, are printed beside the result.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

SEARCH = "search"
STRUCTURE = "structure"
AUDIT = "audit"
WORKLOADS = (SEARCH, STRUCTURE, AUDIT)

# problem kind for a malformed document that is not rejected as DocumentError
KNOWN_DEFECT = "malformed-not-rejected"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Task:
    name: str
    kind: str                       # enumerate, find, congruences, center, decompose, doc
    run: object                     # () -> outcome, the timed part
    check: object                   # (task, outcome) -> [(problem kind, message)]
    traced: bool = True             # False: left out of traced passes
    durations: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    digest: str = None              # first digest seen, later passes must repeat it


@dataclass
class CliOutcome:
    code: int
    stdout: str
    error: str = None               # repr of an exception that escaped main()


def call_cli(main, argv) -> CliOutcome:
    """Run ``nsr argv`` in process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except Exception as exc:        # an uncaught exception is a failed task
        return CliOutcome(None, out.getvalue(), f"{type(exc).__name__}: {exc}")
    return CliOutcome(code, out.getvalue())


def cli_check(expected_code, anchor, recorded=None, same_as=None):
    """A check for a CLI task: exit code, anchor on stdout, stdout digest.

    anchor(stdout) returns a problem message or None.  recorded is the
    stdout digest taken at the seed commit (None when not recorded for this
    seed); same_as is a task whose stdout must be identical.
    """
    def check(task: Task, outcome: CliOutcome):
        if outcome.error is not None:
            return [("exception", outcome.error)]
        problems = []
        if outcome.code != expected_code:
            problems.append(("exit-code", f"exit {outcome.code}, expected {expected_code}"))
        message = anchor(outcome.stdout)
        if message:
            problems.append(("anchor", message))
        digest = sha(outcome.stdout)
        if recorded is not None and digest != recorded:
            problems.append(("digest", f"stdout digest {digest[:12]} != recorded {recorded[:12]}"))
        if task.digest is not None and digest != task.digest:
            problems.append(("digest", "stdout differs from an earlier pass"))
        if same_as is not None and same_as.digest is not None and digest != same_as.digest:
            problems.append(("digest", f"stdout differs from {same_as.name}"))
        if task.digest is None:
            task.digest = digest
        return problems
    return check


# ---------------------------------------------------------------------------
# search: a fixed task list, no randomness

A006966 = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222}

_HEADER = re.compile(r"^models of size \d+ under \[[^\]]*\]: (\d+)$")

SEARCH_TASKS = (
    # (name, argv, exit code, model count or None for exhaustive-none)
    ("enumerate-5-involutive-integral",
     ["enumerate", "--size", "5", "--constraint", "involutive-integral"], 0, 980),
    ("enumerate-5-involutive",
     ["enumerate", "--size", "5", "--constraint", "involutive"], 0, 10317),
    ("enumerate-6-orthomodular",
     ["enumerate", "--size", "6", "--constraint", "involutive-integral,orthomodular"], 0, 253),
    ("enumerate-6-lukasiewicz",
     ["enumerate", "--size", "6", "--constraint", "involutive-integral,lukasiewicz"], 0, 11),
    ("find-central-1-not-2",
     ["find", "--max", "6", "--satisfy", "involutive-integral,central-1",
      "--violate", "central-2"], 1, None),
    ("find-central-2-not-1",
     ["find", "--max", "6", "--satisfy", "involutive-integral,central-2",
      "--violate", "central-1"], 1, None),
)
TWIN_OF = "enumerate-6-orthomodular"
TWIN = "enumerate-6-orthomodular-workers-2"


def _models_anchor(count):
    def anchor(stdout):
        lines = stdout.splitlines()
        m = _HEADER.match(lines[0]) if lines else None
        if m is None:
            return f"no model-count header in {lines[:1]}"
        if int(m.group(1)) != count:
            return f"{m.group(1)} models, expected {count}"
        if len(lines) - 1 != count:
            return f"{len(lines) - 1} model lines, expected {count}"
        return None
    return anchor


def _none_anchor(stdout):
    if not stdout.startswith("exhaustive-none: no model up to size 6"):
        return f"expected exhaustive-none, got {stdout[:80]!r}"
    return None


def search_tasks(main, recorded: dict):
    """The search task list; recorded maps task name to its seed-commit stdout digest."""
    tasks = []
    for name, argv, code, count in SEARCH_TASKS:
        anchor = _none_anchor if count is None else _models_anchor(count)
        tasks.append(Task(name, argv[0], lambda argv=argv: call_cli(main, argv),
                          cli_check(code, anchor, recorded.get(name))))
        if name == TWIN_OF:
            serial, twin_argv = tasks[-1], argv + ["--workers", "2"]
    twin = Task(TWIN, "enumerate", lambda: call_cli(main, twin_argv),
                cli_check(0, _models_anchor(253), recorded.get(TWIN), same_as=serial),
                traced=False)
    tasks.append(twin)
    return tasks


# ---------------------------------------------------------------------------
# structure: seeded relabellings of product fixtures, written as documents

STRUCTURE_FIXTURES = (
    # (fixture, commands, congruence count, central count, sorted factor sizes)
    ("MO2xBOOL2", ("congruences", "center", "decompose"), 4, 4, (2, 6)),
    ("BOOL4xBOOL4", ("congruences", "center", "decompose"), 16, 16, (2, 2, 2, 2)),
    ("MV3xMV3xBOOL2", ("congruences", "center", "decompose"), 8, 8, (2, 3, 3)),
    ("MO2xMV3", ("congruences", "center", "decompose"), 4, 4, (3, 6)),
    ("BOOL2xBOOL2xBOOL2xBOOL2xBOOL2", ("decompose",), None, None, (2, 2, 2, 2, 2)),
)


def _json_anchor(test):
    def anchor(stdout):
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        return test(payload)
    return anchor


def _congruence_anchor(count):
    return _json_anchor(lambda p: None if p["count"] == count
                        else f"{p['count']} congruences, expected {count}")


def _center_anchor(count):
    def test(p):
        if len(p["centrals"]) != count:
            return f"{len(p['centrals'])} centrals, expected {count}"
        if not p["agreement"] or len(p["methods"]) != 3:
            return f"centrality methods {p['methods']} do not agree"
        return None
    return _json_anchor(test)


def _decompose_anchor(sizes):
    def test(p):
        got = tuple(sorted(f["algebra"]["size"] for f in p["factors"]))
        return None if got == sizes else f"factor sizes {got}, expected {sizes}"
    return _json_anchor(test)


def structure_documents(fixtures_module, seed: int, workdir: Path) -> dict:
    """Write one seeded relabelling of each structure fixture; name -> path."""
    rng = random.Random(f"structure-{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, *_rest in STRUCTURE_FIXTURES:
        algebra = fixtures_module.fixture(name)
        perm = list(range(algebra.n))
        rng.shuffle(perm)
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(algebra.relabel(perm).to_document()), encoding="utf-8")
        paths[name] = path
    return paths


def structure_tasks(main, paths: dict, recorded: dict):
    """The structure task list over the written documents."""
    tasks = []
    for name, commands, congruences, centrals, sizes in STRUCTURE_FIXTURES:
        for command in commands:
            anchor = {"congruences": lambda: _congruence_anchor(congruences),
                      "center": lambda: _center_anchor(centrals),
                      "decompose": lambda: _decompose_anchor(sizes)}[command]()
            argv = [command, str(paths[name]), "--json"]
            task_name = f"{command}-{name}"
            tasks.append(Task(task_name, command,
                              lambda argv=argv: call_cli(main, argv),
                              cli_check(0, anchor, recorded.get(task_name))))
    return tasks


# ---------------------------------------------------------------------------
# audit: a seeded corpus of small documents through a battery of checks

AUDIT_SOURCES = (
    "BOOL2", "EX24", "EX28", "APXA", "APXB", "MV3", "MO2", "BOOL4",
    "MV3xBOOL2", "EX28xBOOL2", "APXBxBOOL2", "BOOL2xBOOL2xBOOL2",
    "MV3xMV3", "EX24xEX24", "MO2xBOOL2", "BOOL4xMV3",
)
RELABELLED_PER_SOURCE = 32          # plus the source document itself
MUTANTS_PER_SOURCE = 32
MALFORMED_PER_CLASS = 10
MALFORMED_CLASSES = ("ragged-table", "zero-string", "zero-float", "size-mismatch")


@dataclass
class Document:
    name: str
    kind: str                       # source, relabelled, mutant; malformed outside the tasks
    source: str                     # fixture the document was made from
    text: str


def audit_corpus(fixtures_module, seed: int) -> list:
    """Sources, relabellings and one-cell mutants: the documents of the audit tasks."""
    rng = random.Random(f"audit-{seed}")
    docs = []
    for name in AUDIT_SOURCES:
        algebra = fixtures_module.fixture(name)
        docs.append(Document(f"{name}/source", "source", name,
                             json.dumps(algebra.to_document())))
        for i in range(RELABELLED_PER_SOURCE):
            doc = _relabelled(algebra, rng)
            docs.append(Document(f"{name}/relabel-{i}", "relabelled", name, json.dumps(doc)))
        for i in range(MUTANTS_PER_SOURCE):
            doc = _relabelled(algebra, rng)
            table = rng.choice(("add", "mul"))
            n = doc["size"]
            x, y = rng.randrange(n), rng.randrange(n)
            doc[table][x][y] = rng.choice([v for v in range(n) if v != doc[table][x][y]])
            docs.append(Document(f"{name}/mutant-{i}", "mutant", name, json.dumps(doc)))
    return docs


def malformed_corpus(fixtures_module, seed: int) -> list:
    """Ten seeded documents for each defect class of ROADMAP item 5."""
    rng = random.Random(f"malformed-{seed}")
    malformed = []
    for cls in MALFORMED_CLASSES:
        for i in range(MALFORMED_PER_CLASS):
            name = rng.choice(AUDIT_SOURCES)
            doc = _relabelled(fixtures_module.fixture(name), rng)
            if cls == "ragged-table":
                table = rng.choice(("add", "mul"))
                doc[table][rng.randrange(doc["size"])].pop()
            elif cls == "zero-string":
                doc["zero"] = str(doc["zero"])
            elif cls == "zero-float":
                doc["zero"] = 0.5
            else:
                doc["size"] += 1
            malformed.append(Document(f"{name}/{cls}-{i}", "malformed", name, json.dumps(doc)))
    return malformed


def malformed_problems(nsr, docs: list) -> list:
    """(name, kind, message) for each malformed document not rejected as DocumentError."""
    core = nsr.core
    problems = []
    for doc in docs:
        try:
            core.load_algebra(doc.text)
        except core.DocumentError:
            continue
        except Exception as exc:
            problems.append((doc.name, KNOWN_DEFECT, f"{type(exc).__name__}: {exc}"))
            continue
        problems.append((doc.name, KNOWN_DEFECT, "accepted"))
    return problems


def _relabelled(algebra, rng) -> dict:
    perm = list(range(algebra.n))
    rng.shuffle(perm)
    return algebra.relabel(perm).to_document()


def audit_battery(nsr):
    """The checks each loaded document goes through, in order.

    Calls look the functions up on their modules at call time, so the
    traced run's wrappers see them.
    """
    core, varieties, transforms = nsr.core, nsr.varieties, nsr.transforms
    congruences, center = nsr.congruences, nsr.center
    battery = [lambda a, p=p: core.check_axioms(a, p) for p in sorted(core.PROFILES)]
    battery += [
        lambda a: core.induced_order(a, "sum"),
        lambda a: core.induced_order(a, "mul"),
        lambda a: core.core_property_suite(a),
        lambda a: varieties.check_lukasiewicz(a),
        lambda a: varieties.lukasiewicz_suite(a),
        lambda a: varieties.check_orthomodular_ns(a),
        lambda a: transforms.roundtrip_check(a, "basic"),
        lambda a: transforms.roundtrip_check(a, "oml"),
        lambda a: center.center_algebra(a),
        lambda a: congruences.witness_term_checks(a),
        lambda a: core.dual_algebra(a),
    ]
    return battery


@dataclass
class DocOutcome:
    error: str = None               # exception class from load_algebra, or None
    uncaught: str = None            # an exception outside AlgebraError, anywhere
    results: list = None            # per battery entry: (report, (text, dict)) or (error, message)


def _render(nsr, result, algebra):
    """render() and to_dict() of one battery result, whatever its report type."""
    if isinstance(result, nsr.core.FiniteNearSemiring):     # from dual_algebra
        return None, result.to_document()
    if isinstance(result, nsr.core.PartialOrderReport):     # has no render()
        return repr(result.covers()), result.to_dict()
    if isinstance(result, nsr.center.CenterReport):
        return result.render(algebra), result.to_dict()
    return result.render(), result.to_dict()


def run_document(nsr, battery, doc: Document, span):
    """Load one document and run the battery over it; the timed part of an audit task."""
    core = nsr.core
    try:
        algebra = core.load_algebra(doc.text)
    except core.DocumentError as exc:
        return DocOutcome(error=f"DocumentError: {exc}")
    except core.AlgebraError as exc:
        return DocOutcome(error=f"{type(exc).__name__}: {exc}")
    except Exception as exc:        # outside AlgebraError: a failed task
        return DocOutcome(uncaught=f"{type(exc).__name__}: {exc}")
    results = []
    for call in battery:
        try:
            result = call(algebra)
        except core.AlgebraError as exc:
            results.append((type(exc).__name__, str(exc)))
            continue
        except Exception as exc:
            return DocOutcome(uncaught=f"{type(exc).__name__}: {exc}")
        with span("core.report_render"):
            rendered = _render(nsr, result, algebra)
        results.append((result, rendered))
    return DocOutcome(results=results)


def verdict(outcome: DocOutcome) -> tuple:
    """Label-free summary: per battery entry, which clauses pass and which errors arise."""
    out = []
    for entry in outcome.results:
        result = entry[0]
        if isinstance(result, str):
            out.append(("error", result))
        elif hasattr(result, "violations"):
            out.append((result.passed, tuple(sorted({v.clause for v in result.violations})),
                        tuple(result.tags)))
        elif hasattr(result, "clauses"):
            out.append(tuple((c.clause, c.passed) for c in result.clauses))
        elif hasattr(result, "covers"):
            out.append((result.is_partial_order, result.is_join_semilattice,
                        result.is_meet_semilattice, result.bottom is None, result.top is None))
        elif hasattr(result, "pointwise_equal"):
            out.append(result.pointwise_equal)
        elif hasattr(result, "centrals"):
            out.append((len(result.centrals), len(result.atoms), result.agreement,
                        result.boolean_check.passed))
        else:
            out.append(result.n)
    return tuple(out)


def document_digest(outcome: DocOutcome) -> str:
    """Digest of every rendered report and error message of one document."""
    parts = []
    for entry in outcome.results:
        if isinstance(entry[0], str):
            parts.append(f"{entry[0]}: {entry[1]}")
        else:
            text, as_dict = entry[1]
            parts.append(f"{text}\n{json.dumps(as_dict, sort_keys=True)}")
    return sha("\n".join(parts))[:8]


def audit_tasks(nsr, docs: list, recorded: dict, span):
    """One task per document.  recorded maps document name to its seed-commit digest."""
    battery = audit_battery(nsr)
    source_verdicts = {}
    tasks = []
    for doc in docs:
        def check(task, outcome, doc=doc):
            if outcome.uncaught is not None:
                return [("exception", f"{doc.name}: {outcome.uncaught}")]
            if outcome.error is not None:
                return [("load", f"{doc.name}: {outcome.error}")]
            problems = []
            mine = verdict(outcome)
            if doc.kind == "source":
                source_verdicts[doc.source] = mine
            elif doc.kind == "relabelled" and mine != source_verdicts.get(doc.source):
                problems.append(("anchor", f"{doc.name}: verdict differs from {doc.source}"))
            digest = document_digest(outcome)
            want = recorded.get(doc.name)
            if want is not None and digest != want:
                problems.append(("digest", f"{doc.name}: report digest {digest} != {want}"))
            if task.digest is not None and digest != task.digest:
                problems.append(("digest", f"{doc.name}: reports differ from an earlier pass"))
            task.digest = task.digest or digest
            return problems
        tasks.append(Task(doc.name, "doc",
                          lambda doc=doc: run_document(nsr, battery, doc, span), check))
    return tasks
