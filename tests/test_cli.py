import json
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import confviz
from confviz.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_to_stdout(capsys):
    code, out, err = run(["gen", "petersen"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 10 and len(obj["edges"]) == 15


def test_gen_with_params_and_out(tmp_path, capsys):
    path = str(tmp_path / "o4.json")
    code, out, _ = run(["gen", "kneser", "7", "3", "--out", path], capsys)
    assert code == 0
    assert "graph on 35 vertices" in out
    obj = json.load(open(path))
    assert obj["order"] == 35


def test_gen_token_form_matches_params(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(["gen", "kneser(7,3)", "-o", a], capsys)[0] == 0
    assert run(["gen", "kneser", "7", "3", "-o", b], capsys)[0] == 0
    assert open(a).read() == open(b).read()


def test_gen_rejects_bad_parameters(capsys):
    code, _, err = run(["gen", "kneser", "3", "2"], capsys)
    assert code == 2
    assert "error" in err


def test_gen_unknown_family(capsys):
    assert run(["gen", "moebius"], capsys)[0] == 2


def test_vconstruct_inadmissible_graph_fails(tmp_path, capsys):
    g = str(tmp_path / "c4.json")
    assert run(["gen", "cycle", "4", "-o", g], capsys)[0] == 0
    code, _, err = run(["vconstruct", g], capsys)
    assert code == 1
    assert "failed" in err


def petersen_pipeline(tmp_path, capsys):
    g = str(tmp_path / "g.json")
    c = str(tmp_path / "c.json")
    assert run(["gen", "petersen", "-o", g], capsys)[0] == 0
    assert run(["vconstruct", g, "-o", c], capsys)[0] == 0
    return g, c


def test_verify_kronecker_and_type(tmp_path, capsys):
    g, c = petersen_pipeline(tmp_path, capsys)
    code, out, _ = run(["verify", "kronecker", g], capsys)
    assert code == 0
    assert "verified" in out
    code, out, _ = run(["verify", "type", c], capsys)
    assert code == 0
    assert "(10_3)" in out
    code, out, _ = run(["verify", "selfpolar", c], capsys)
    assert code == 0


def test_verify_hypercube8_past_the_search_cap(tmp_path, capsys):
    g = str(tmp_path / "q8.json")
    c = str(tmp_path / "q8c.json")
    assert run(["gen", "hypercube", "8", "-o", g], capsys)[0] == 0
    code, out, _ = run(["verify", "kronecker", g], capsys)
    assert code == 0
    assert "isomorphism verified" in out
    assert run(["vconstruct", g, "-o", c], capsys)[0] == 0
    code, out, _ = run(["verify", "type", c], capsys)
    assert code == 0
    assert "(256_8)" in out


def test_verify_decompose(tmp_path, capsys):
    g = str(tmp_path / "q3.json")
    c = str(tmp_path / "q3c.json")
    assert run(["gen", "hypercube", "3", "-o", g], capsys)[0] == 0
    assert run(["vconstruct", g, "-o", c], capsys)[0] == 0
    out_path = str(tmp_path / "part.json")
    code, out, _ = run(["verify", "decompose", c, "-o", out_path], capsys)
    assert code == 0
    assert "component 0" in out and "component 1" in out
    for i in (0, 1):
        obj = json.load(open(str(tmp_path / f"part.{i}.json")))
        assert obj["points"] == 4 and len(obj["blocks"]) == 4


def test_verify_decompose_connected_fails(tmp_path, capsys):
    _, c = petersen_pipeline(tmp_path, capsys)
    assert run(["verify", "decompose", c], capsys)[0] == 1


def test_realize_solve_circles_check(tmp_path, capsys):
    g = str(tmp_path / "g.json")
    lay = str(tmp_path / "lay.json")
    pcc = str(tmp_path / "pcc.json")
    assert run(["gen", "petersen", "-o", g], capsys)[0] == 0
    code, out, _ = run(
        ["realize", g, "--solve", "--symmetry", "5", "--seed", "0", "-o", lay], capsys
    )
    assert code == 0
    assert run(["circles", lay, "-o", pcc], capsys)[0] == 0
    code, out, _ = run(["check", pcc], capsys)
    assert code == 0
    for line in ("proper: yes", "isometric: yes", "lineal: yes", "perfect: yes", "degenerate: no"):
        assert line in out


def test_realize_parametric_layout(tmp_path, capsys):
    lay = str(tmp_path / "pent.json")
    code, out, _ = run(["realize", "--layout", "polygon", "--n", "5", "-o", lay], capsys)
    assert code == 0
    obj = json.load(open(lay))
    assert len(obj["pos"]) == 5


def test_realize_layout_graph_mismatch(tmp_path, capsys):
    g = str(tmp_path / "p5.json")
    assert run(["gen", "path", "5", "-o", g], capsys)[0] == 0
    code, _, err = run(["realize", g, "--layout", "polygon"], capsys)
    assert code == 2
    assert "does not match" in err


def test_realize_needs_graph_or_layout(capsys):
    assert run(["realize"], capsys)[0] == 2


def test_spatial_paths(tmp_path, capsys):
    code, _, err = run(["spatial", "octahedron", "planes"], capsys)
    assert code == 1
    out_path = str(tmp_path / "planes.json")
    assert run(["spatial", "dodecahedron", "planes", "-o", out_path], capsys)[0] == 0
    proj = str(tmp_path / "proj.json")
    code, out, _ = run(["spatial", "cube", "project", "--seed", "0", "-o", proj], capsys)
    assert code == 0
    assert "pole" in out
    obj = json.load(open(proj))
    assert len(obj["circles"]) == 8


def test_n3realize_fano(tmp_path, capsys):
    path = str(tmp_path / "fano.json")
    code, out, _ = run(["n3realize", "fano", "--seed", "0", "-o", path], capsys)
    assert code == 0
    obj = json.load(open(path))
    assert len(obj["circles"]) == 7


def test_invert_paths(tmp_path, capsys):
    path = str(tmp_path / "inv.json")
    code, out, _ = run(["invert", "pappus", "--center", "0.4", "0.37", "-o", path], capsys)
    assert code == 0
    assert run(["invert", "pappus", "--center", "0.5", "0.0"], capsys)[0] == 2


def test_iso_exit_codes(tmp_path, capsys):
    g1 = str(tmp_path / "g1.json")
    g2 = str(tmp_path / "g2.json")
    g3 = str(tmp_path / "g3.json")
    assert run(["gen", "petersen", "-o", g1], capsys)[0] == 0
    assert run(["gen", "gen_petersen", "5", "2", "-o", g2], capsys)[0] == 0
    assert run(["gen", "gen_petersen", "5", "1", "-o", g3], capsys)[0] == 0
    assert run(["iso", g1, g2], capsys)[0] == 0
    assert run(["iso", g1, g3], capsys)[0] == 1


def test_render_deterministic_svg(tmp_path, capsys):
    lay = str(tmp_path / "lay.json")
    svg = str(tmp_path / "pic.svg")
    assert run(["realize", "--layout", "polygon", "--n", "6", "-o", lay], capsys)[0] == 0
    assert run(["render", lay, "-o", svg], capsys)[0] == 0
    first = open(svg, "rb").read()
    root = ET.fromstring(first)
    assert root.tag.endswith("svg")
    assert run(["render", lay, "-o", svg], capsys)[0] == 0
    assert open(svg, "rb").read() == first


def test_render_config_without_circles_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "empty.json"
    cfg.write_text('{"points": [[0.0, 0.0]], "circles": [], "incidence": [], "flags": {}, "tols": {}}')
    code, _, err = run(["render", str(cfg), "-o", str(tmp_path / "pic.svg")], capsys)
    assert code == 2
    assert "nothing to render" in err
    assert not (tmp_path / "pic.svg").exists()


def test_missing_file_is_usage_error(capsys):
    assert run(["vconstruct", "/nonexistent/g.json"], capsys)[0] == 2


def test_malformed_artifact_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"order": "ten", "edges": []}')
    code, _, err = run(["vconstruct", str(bad)], capsys)
    assert code == 2
    assert "malformed graph object" in err


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    g = str(tmp_path / "g.json")
    assert run(["gen", "petersen", "-o", g], capsys)[0] == 0
    a, b, c = (str(tmp_path / n) for n in ("a.json", "b.json", "c.json"))
    monkeypatch.setenv("CONFVIZ_SEED", "1")
    assert run(["realize", g, "--symmetry", "5", "-o", a], capsys)[0] == 0
    monkeypatch.setenv("CONFVIZ_SEED", "2")
    assert run(["realize", g, "--symmetry", "5", "-o", b], capsys)[0] == 0
    # explicit flag wins over the environment
    assert run(["realize", g, "--symmetry", "5", "--seed", "1", "-o", c], capsys)[0] == 0
    assert json.load(open(a))["meta"]["seed"] == 1
    assert json.load(open(b))["meta"]["seed"] == 2
    assert json.load(open(c))["meta"]["seed"] == 1
    assert open(a).read() == open(c).read()
    assert open(a).read() != open(b).read()


def test_module_entry_point(tmp_path):
    # the child imports the same confviz as this test, installed or not
    root = str(pathlib.Path(confviz.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "confviz", "gen", "hypercube", "5"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 32

    proc = subprocess.run(
        [sys.executable, "-m", "confviz", "gen", "kneser", "3", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.strip() != ""

    proc = subprocess.run(
        [sys.executable, "-m", "confviz", "frobnicate"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
