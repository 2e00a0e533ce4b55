"""Self-tests of the benchmark: its checks can fail, and its tables agree.

    python3 -m pytest perfbench -q
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import HOME, Recorder  # noqa: E402

nsr = run.import_package()

SMALL = ["enumerate", "--size", "4", "--constraint", "involutive-integral"]


no_span = Recorder().span               # records nothing while not installed


def cli_task(anchor_count, recorded=None, main=None):
    main = main or nsr.cli.main
    return wl.Task("small", "enumerate", lambda: wl.call_cli(main, SMALL),
                   wl.cli_check(0, wl._models_anchor(anchor_count), recorded))


def run_once(tasks):
    loop = run.Loop(tasks)
    loop.one_pass()
    return loop


def kinds(loop):
    return {kind for _name, kind, _msg in loop.problems}


def test_right_anchor_passes():
    loop = run_once([cli_task(30)])
    assert loop.error_rate == 0.0 and not loop.problems


def test_wrong_anchor_raises_error_rate():
    loop = run_once([cli_task(31), cli_task(30)])
    assert loop.error_rate == 0.5
    assert kinds(loop) == {"anchor"}


def test_uncaught_exception_raises_error_rate(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("injected")
    monkeypatch.setattr(nsr.cli, "enumerate_models", broken)
    loop = run_once([cli_task(30)])
    assert loop.error_rate == 1.0
    assert kinds(loop) == {"exception"}


def test_changed_digest_raises_error_rate():
    loop = run_once([cli_task(30, recorded="0" * 64)])
    assert loop.error_rate == 1.0
    assert kinds(loop) == {"digest"}


def test_output_that_changes_between_passes_fails():
    outputs = iter(["models of size 4 under [x]: 0\n", "models of size 4 under [y]: 0\n"])
    task = wl.Task("flaky", "enumerate", lambda: wl.CliOutcome(0, next(outputs)),
                   wl.cli_check(0, wl._models_anchor(0)))
    loop = run.Loop([task])
    loop.one_pass()
    loop.one_pass()
    assert loop.failed == 1 and kinds(loop) == {"digest"}


def audit_loop(docs, recorded=None):
    return run_once(wl.audit_tasks(nsr, docs, recorded or {}, no_span))


def source_doc(name="MV3"):
    algebra = nsr.fixtures.fixture(name)
    return wl.Document(f"{name}/source", "source", name, json.dumps(algebra.to_document()))


def test_audit_digest_and_verdict_checks():
    docs = [source_doc()]
    loop = audit_loop(docs)
    assert loop.error_rate == 0.0
    good = docs[0].name
    loop = audit_loop([source_doc()], {good: "deadbeef00000000"})
    assert loop.error_rate == 1.0 and kinds(loop) == {"digest"}
    # a relabelled copy whose verdict differs from its source is a wrong anchor
    ex28 = nsr.fixtures.fixture("EX28").to_document()
    liar = wl.Document("MV3/relabel-0", "relabelled", "MV3", json.dumps(ex28))
    loop = audit_loop([source_doc(), liar])
    assert loop.failed == 1 and kinds(loop) == {"anchor"}


def test_audit_uncaught_exception_raises_error_rate(monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("injected")
    monkeypatch.setattr(nsr.core, "dual_algebra", broken)
    loop = audit_loop([source_doc()])
    assert loop.error_rate == 1.0 and kinds(loop) == {"exception"}


def test_malformed_slice_is_reported_outside_the_tasks():
    assert all(d.kind != "malformed" for d in wl.audit_corpus(nsr.fixtures, 0))
    docs = wl.malformed_corpus(nsr.fixtures, 0)
    assert len(docs) == wl.MALFORMED_PER_CLASS * len(wl.MALFORMED_CLASSES)
    assert [d.text for d in docs] == [d.text for d in wl.malformed_corpus(nsr.fixtures, 0)]
    problems = wl.malformed_problems(nsr, docs)
    assert {kind for _name, kind, _msg in problems} <= {wl.KNOWN_DEFECT}
    assert len(problems) == len(docs) - sum(map(rejected, docs))


def rejected(doc) -> bool:
    try:
        nsr.core.load_algebra(doc.text)
    except nsr.core.DocumentError:
        return True
    except Exception:
        return False
    return False


def test_corpus_and_structure_inputs_are_seeded(tmp_path):
    a = [d.text for d in wl.audit_corpus(nsr.fixtures, 3)]
    b = [d.text for d in wl.audit_corpus(nsr.fixtures, 3)]
    c = [d.text for d in wl.audit_corpus(nsr.fixtures, 4)]
    assert a == b and a != c and len(a) >= 1000
    p = wl.structure_documents(nsr.fixtures, 3, tmp_path / "a")
    q = wl.structure_documents(nsr.fixtures, 3, tmp_path / "b")
    assert all(p[k].read_text() == q[k].read_text() for k in p)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(1100))) == (99.0, 1089)
    assert run.tail(list(range(1000))) == (95.0, 950)
    assert run.tail(list(range(100)))[0] == 75.0
    assert run.tail(list(range(5)))[0] == 50.0


def test_load_factor_uses_the_probes_around_a_task():
    probe = run.Probe()
    probe.ends, probe.values = [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]
    assert probe.factor(1.5, 1.8) == 1.5
    assert probe.factor(2.5, 2.9) == 3.0
    probe.sample(force=True)
    assert len(probe.values) == 4 and probe.values[-1] > 0


def test_tracing_restores_bindings_and_records_spans():
    before = (nsr.search.check_axioms, nsr.center._METHOD_FNS["congruence"])
    rec = Recorder().install(nsr)
    with rec:
        assert nsr.search.check_axioms is not before[0]
        with rec.span("cli.main"):
            out = wl.call_cli(nsr.cli.main, SMALL)
    assert out.code == 0
    assert (nsr.search.check_axioms, nsr.center._METHOD_FNS["congruence"]) == before
    names = {s[0] for s in rec.spans}
    assert {"cli.main", "search.enumerate_models", "search.canonical_form"} <= names


def test_layer_table_matches_benchmark_json():
    layers = json.loads((HERE / "layers.json").read_text())
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    strip = [{k: m[k] for k in ("name", "unit", "better")} for m in layers["per_layer"]]
    assert strip == bench["per_layer"]
    assert {m["name"] for m in bench["end_to_end"]} == set(layers["end_to_end"])
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    homes = {n for names in HOME.values() for n in names}
    spans = {m["name"].rpartition(".")[0] for m in layers["per_layer"]
             if m["name"].endswith((".calls", ".s"))}
    assert spans <= homes


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_workload_builds(workload):
    tasks = run.build_tasks(nsr, workload, 0, {}, no_span)
    assert tasks and len({t.name for t in tasks}) == len(tasks)
