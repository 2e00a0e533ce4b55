import json

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
