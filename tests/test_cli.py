import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nearsemiring as nsr
from nearsemiring import fixtures
from nearsemiring.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ex24_integral_reports_exact_violation(capsys):
    code, out, _ = run(capsys, "check", "fixtures:EX24", "--profile", "integral")
    assert code == 1
    assert "a+1=a" in out
    assert out.count("integrality") == 1


def test_check_apxb_near_semiring(capsys):
    code, out, _ = run(capsys, "check", "fixtures:APXB", "--profile", "near-semiring")
    assert code == 1
    assert "0·a=a" in out


def test_check_bool2_passes(capsys):
    code, out, _ = run(capsys, "check", "fixtures:BOOL2", "--profile", "semiring")
    assert code == 0
    assert "PASS" in out


def test_check_dot_reproduces_both_chains(capsys):
    code, out, _ = run(capsys, "check", "fixtures:EX24", "--profile", "integral", "--dot")
    assert code == 1
    sum_graph, mul_graph = out.split("digraph")[1:]
    assert '"0" -> "1"' in sum_graph and '"1" -> "a"' in sum_graph
    assert '"0" -> "a"' in mul_graph and '"a" -> "1"' in mul_graph


def test_check_json_form(capsys):
    code, out, _ = run(capsys, "check", "fixtures:EX24", "--profile", "integral", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["profile"] == "integral"
    assert payload["violations"][0]["equation"] == "a+1=a"
    assert payload["violations"][0]["witness"] == [1]


def test_roundtrip_mv3_via_basic(capsys):
    code, out, _ = run(capsys, "roundtrip", "fixtures:MV3", "--via", "basic")
    assert code == 0 and "pointwise-equal" in out


def test_roundtrip_mo2_via_oml(capsys):
    code, _, _ = run(capsys, "roundtrip", "fixtures:MO2", "--via", "oml")
    assert code == 0


def test_properties_suites(capsys):
    assert run(capsys, "properties", "fixtures:MV3", "--suite", "lukasiewicz")[0] == 0
    assert run(capsys, "properties", "fixtures:MO2", "--suite", "orthomodular")[0] == 0
    assert run(capsys, "properties", "fixtures:MO2", "--suite", "oml")[0] == 0
    assert run(capsys, "properties", "fixtures:EX28", "--suite", "core")[0] == 0
    assert run(capsys, "properties", "fixtures:MV3", "--suite", "witness-terms")[0] == 0
    assert run(capsys, "properties", "fixtures:BOOL4", "--suite", "central")[0] == 0


def test_properties_precondition_exit_one(capsys):
    code, _, err = run(capsys, "properties", "fixtures:EX28", "--suite", "lukasiewicz")
    assert code == 1
    assert "precondition" in err


def test_translate_and_load_back(capsys, tmp_path):
    code, out, _ = run(capsys, "translate", "fixtures:MV3", "--to", "basic")
    assert code == 0
    doc = json.loads(out)
    assert doc["oplus"] == fixtures.mv3_basic().oplus.tolist()
    path = tmp_path / "basic.json"
    path.write_text(out, encoding="utf-8")
    code, out2, _ = run(capsys, "translate", str(path), "--to", "lns")
    assert code == 0
    assert json.loads(out2)["mul"] == fixtures.mv3().mul.tolist()


def test_congruences_listing_and_dot(capsys):
    code, out, _ = run(capsys, "congruences", "fixtures:BOOL4")
    assert code == 0
    assert "congruences of BOOL4: 4" in out
    code, out, _ = run(capsys, "congruences", "fixtures:BOOL4", "--dot")
    assert code == 0
    assert out.startswith("digraph congruence_lattice")
    assert out.count("->") == 4          # diamond-shaped congruence lattice


def test_center_command(capsys):
    code, out, _ = run(capsys, "center", "fixtures:MV3xBOOL2", "--method", "all")
    assert code == 0
    assert "agree" in out
    code, out, _ = run(capsys, "center", "fixtures:MO2", "--method", "full")
    assert code == 0


def test_center_command_detects_centrals_once(capsys, monkeypatch):
    from nearsemiring import center, cli
    calls = []
    original = center.central_elements

    def spy(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(center, "central_elements", spy)
    monkeypatch.setattr(cli, "central_elements", spy)
    code, out, _ = run(capsys, "center", "fixtures:MO2xBOOL2", "--method", "all", "--json")
    assert code == 0
    assert calls == [("all",)]
    payload = json.loads(out)
    assert payload["methods"] == list(nsr.CENTRALITY_METHODS)
    assert payload["boolean_check"]["passed"]


def test_congruences_command_computes_the_lattice_once(capsys, monkeypatch):
    from nearsemiring import cli, congruences
    calls = []
    original = congruences.all_congruences

    def spy(algebra):
        calls.append(algebra.name)
        return original(algebra)

    monkeypatch.setattr(congruences, "all_congruences", spy)
    monkeypatch.setattr(cli, "all_congruences", spy)
    code, out, _ = run(capsys, "congruences", "fixtures:MO2xBOOL2", "--json")
    assert code == 0
    assert len(calls) == 1
    payload = json.loads(out)
    assert payload["count"] == len(payload["congruences"])
    assert payload["count"] == len(original(fixtures.fixture("MO2xBOOL2")))


def test_decompose_command(capsys):
    code, out, _ = run(capsys, "decompose", "fixtures:BOOL4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [f["algebra"]["size"] for f in payload["factors"]] == [2, 2]
    assert payload["indecomposable"] == [True, True]


def test_enumerate_stream_and_out_dir(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate", "--size", "3",
                       "--constraint", "involutive-integral")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("models of size 3")
    models = [nsr.load_algebra(line) for line in lines[1:]]
    assert len(models) == 2
    outdir = tmp_path / "models"
    code, _, _ = run(capsys, "enumerate", "--size", "3",
                     "--constraint", "involutive-integral", "--out", str(outdir))
    assert code == 0
    assert len(list(outdir.glob("*.json"))) == 2


def test_find_witness_and_exhaustive_none(capsys):
    code, out, _ = run(capsys, "find", "--max", "3",
                       "--satisfy", "involutive-integral", "--violate", "lukasiewicz")
    assert code == 0
    assert "witness of size" in out and "violates lukasiewicz" in out
    code, out, _ = run(capsys, "find", "--max", "3",
                       "--satisfy", "involutive-integral,central-2",
                       "--violate", "central-1")
    assert code == 1
    assert "exhaustive-none" in out


def test_enumerate_and_find_json_forms(capsys):
    code, out, _ = run(capsys, "enumerate", "--size", "3",
                       "--constraint", "involutive-integral", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exhaustive"] is True
    assert len(payload["models"]) == 2
    code, out, _ = run(capsys, "find", "--max", "3",
                       "--satisfy", "involutive-integral", "--violate", "lukasiewicz",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["models"] and payload["violations"][0][0] == "lukasiewicz"
    code, out, _ = run(capsys, "find", "--max", "2",
                       "--satisfy", "involutive-integral", "--violate", "lukasiewicz",
                       "--json")
    assert code == 1
    assert json.loads(out)["exhaustive"] is True


def test_fixtures_list_and_emit(capsys):
    code, out, _ = run(capsys, "fixtures", "list")
    assert code == 0
    assert len([l for l in out.splitlines() if l and not l.startswith("products")]) >= 8
    code, out, _ = run(capsys, "fixtures", "emit", "EX28")
    assert code == 0
    doc = json.loads(out)
    assert doc["add"] == fixtures.ex28().add.tolist()
    assert doc["inv"] == [2, 1, 0]
    assert "comment" in doc


def test_fixtures_emit_mo2_translates_to_valid_lattice(capsys):
    code, out, _ = run(capsys, "fixtures", "emit", "MO2")
    assert code == 0
    algebra = nsr.load_algebra(out[out.index("{"):])
    lattice = nsr.oml_from_ons(algebra)
    assert nsr.check_oml(lattice).passed


def test_unknown_fixture_and_bad_input_exit_two(capsys):
    assert run(capsys, "fixtures", "emit", "NOPE")[0] == 2
    assert run(capsys, "check", "/does/not/exist.json")[0] == 2


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_stdout_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "center", "fixtures:MV3xBOOL2", "--json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        _, out, _ = run(capsys, "enumerate", "--size", "3",
                        "--constraint", "involutive,lukasiewicz")
        runs.append(out)
    assert runs[0] == runs[1]


def test_exit_code_contract_over_fixture_matrix(capsys):
    # exit 0 exactly when every requested check passes
    cases = [
        (("check", "fixtures:MV3", "--profile", "involutive-integral"), 0),
        (("check", "fixtures:EX28", "--profile", "involutive"), 0),
        (("check", "fixtures:EX28", "--profile", "integral"), 1),
        (("check", "fixtures:APXA", "--profile", "near-semiring"), 1),
        (("roundtrip", "fixtures:BOOL2", "--via", "basic"), 0),
        (("properties", "fixtures:MO2", "--suite", "lukasiewicz"), 0),
        (("center", "fixtures:BOOL4"), 0),
    ]
    for argv, expected in cases:
        code, _, _ = run(capsys, *argv)
        assert code == expected, argv


@pytest.mark.parametrize("argv", [
    ("enumerate", "--size", "4", "--constraint", "involutive-integral"),
    ("enumerate", "--size", "3", "--constraint", "near-semiring", "--json"),
    ("find", "--max", "3", "--satisfy", "involutive-integral", "--violate", "lukasiewicz"),
    ("find", "--max", "3", "--satisfy", "involutive-integral,central-2", "--violate",
     "central-1", "--json"),
])
def test_stats_go_to_stderr_and_leave_stdout_alone(capsys, argv):
    code, out, err = run(capsys, *argv)
    stats_code, stats_out, stats_err = run(capsys, *argv, "--stats")
    assert (stats_code, stats_out.encode()) == (code, out.encode())
    assert stats_err.startswith(err)
    stats = json.loads(stats_err[len(err):])
    assert set(stats) == {"counts", "seconds", "pruned"} and stats["counts"]["roots"] >= 1
    # rows pruned by each clause the DFS checks: here only a required identity
    assert set(stats["pruned"]) == ({"central-2"} if "central-1" in argv else set())
    assert stats["counts"]["models"] == (1 - code if argv[0] == "find" else
                                         len(out.splitlines()) - 1 if "--json" not in argv
                                         else len(json.loads(out)["models"]))


# stdout digests and exit codes, and for --out the digest of the documents written, recorded
# before the models became one table stack written row by row
RECORDED = {
    "enumerate --size 1 --constraint near-semiring":
        (0, "0f831a0bb3f37cb744d11819a43800cb38d69cdf1667ef2f276fd54e0f76320b"),
    "enumerate --size 3 --constraint semiring,integral":
        (0, "ddddd4189c965c7a24de7aca63c39f4646b0e723f42758d24339d2cd2e882444"),
    "enumerate --size 4 --constraint idempotent-add,commutative-mul":
        (0, "14b28b2ff7f7f074c75766553fb6e56c7b7d1c07abb0eef4c746b9d0d0033c95"),
    "enumerate --size 4 --constraint involutive,lukasiewicz --violate mv-semiring":
        (0, "39cd9bf8aeab5c2e97375b1d13134d0f3dea1533ba241829d65cf4fe03f0d0f2"),
    "enumerate --size 4 --constraint involutive --workers 2":
        (0, "e16384ecb1af006a2ff98e34a940df98b5c4da5cd73e020e3776ca47e1866a34"),
    "enumerate --size 1 --constraint involutive-integral --json":
        (0, "8128671db78c10f044394c2c6dea82824034bdcc260970c5ca52882061e0aa18"),
    "enumerate --size 3 --constraint near-semiring --json":
        (0, "632a650c7b6996cb2178cde6188d26cff22a66eda00faf39baf1cc1c8c3d6992"),
    "enumerate --size 4 --constraint involutive-integral --json":
        (0, "c72354fa614b65e531914c2a2dc0151b41d5bdb8d95818dee61c53b4299bcef3"),
    "find --max 3 --satisfy involutive-integral --violate lukasiewicz --json":
        (0, "a7f29bab0a62455840be00634c216172ade5bcda026c57d1e8f7d2fc3cb06f24"),
    "find --max 2 --satisfy involutive-integral --violate lukasiewicz --json":
        (1, "1f1b568d3cbfc0d53ae4f173ce6883e78fc2df42edc44d253ffd598c4edf2b66"),
    "enumerate --size 1 --constraint near-semiring --out":
        (0, "07000729f7207689d808230560dcd95b4d970d8d94359bb395f7527c6a5d3823"),
    "enumerate --size 4 --constraint involutive-integral --out":
        (0, "137bde1bbdd9f7581db27753825de8c93a94c35cc0251f041135f7d3acb1b594"),
}


@pytest.mark.parametrize("command", sorted(RECORDED))
def test_search_output_matches_the_recorded_digests(capsys, tmp_path, command):
    argv = command.split()
    if argv[-1] == "--out":
        argv.append(str(tmp_path / "models"))
    code, out, _ = run(capsys, *argv)
    digest = hashlib.sha256()
    if argv[-2] == "--out":
        for path in sorted((tmp_path / "models").iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    else:
        digest.update(out.encode())
    assert (code, digest.hexdigest()) == RECORDED[command]


def test_a_reader_closing_the_pipe_early_ends_the_run_quietly():
    # about 2.7 MB of models, far more than a pipe holds: writing meets the closed pipe
    env = dict(os.environ, PYTHONPATH=str(Path(nsr.__file__).parents[1]))
    run = subprocess.Popen(
        [sys.executable, "-m", "nearsemiring.cli", "enumerate", "--size", "5",
         "--constraint", "involutive"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = run.stdout.readline()
    run.stdout.close()
    err = run.stderr.read()
    run.stderr.close()
    assert run.wait(timeout=60) == 1
    assert first == b"models of size 5 under [involutive]: 10317\n"
    assert err == b""
