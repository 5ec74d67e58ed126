import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import confviz
from confviz import iso, jsonio
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


def test_gen_reports_the_girth_of_a_forest_and_of_disjoint_cycles(tmp_path, capsys):
    out = str(tmp_path / "out.json")
    assert run(["gen", "path", "5", "-o", out], capsys)[:2] == (0, "graph on 5 vertices, 4 edges, girth inf\n")
    triangles = str(tmp_path / "triangles.json")
    jsonio.save(triangles, {"order": 6, "edges": [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]})
    assert run(["gen", triangles, "-o", out], capsys)[:2] == (0, "graph on 6 vertices, 6 edges, girth 3\n")


def test_gen_rejects_bad_parameters(capsys):
    code, _, err = run(["gen", "kneser", "3", "2"], capsys)
    assert code == 2
    assert "error" in err


def test_gen_unknown_family(capsys):
    assert run(["gen", "moebius"], capsys)[0] == 2


@pytest.mark.parametrize("argv", [["gen", "kneser(7-3)"], ["gen", "kneser(-)"], ["iso", "kneser(7-3)", "petersen"]])
def test_malformed_family_token_is_usage_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: malformed family token {argv[1]!r}: parameters must be integers\n"


def test_vconstruct_inadmissible_graph_fails(tmp_path, capsys):
    g = str(tmp_path / "c4.json")
    assert run(["gen", "cycle", "4", "-o", g], capsys)[0] == 0
    code, _, err = run(["vconstruct", g], capsys)
    assert code == 1
    assert "failed" in err


@pytest.mark.parametrize("command", [["vconstruct"], ["verify", "kronecker"]])
def test_isolated_vertex_is_named(command, tmp_path, capsys):
    g = str(tmp_path / "g.json")
    pet = confviz.build_family("petersen")
    jsonio.save(g, {"order": pet.order + 2, "edges": [list(e) for e in pet.edges]})
    code, out, err = run([*command, g], capsys)
    assert (code, out) == (2, "")
    assert err == "error: vertex 10 is isolated: its neighbourhood would be an empty block\n"


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


@pytest.mark.parametrize("family, param", [("hypercube", d) for d in range(3, 11)] + [("odd", m) for m in range(3, 7)])
def test_verify_files_pair_point_v_with_block_v(family, param, tmp_path, monkeypatch, capsys):
    # block v of a vconstruct file is N(v), so point v <-> block v is checked
    # in O(E) and the search, capped at iso.MAX_VERTICES, never runs
    def refuse(*args, **kwargs):
        raise AssertionError("the involution search ran")

    monkeypatch.setattr(iso, "find_swap_involution", refuse)
    g, c = str(tmp_path / "g.json"), str(tmp_path / "c.json")
    assert run(["gen", family, str(param), "-o", g], capsys)[0] == 0
    assert run(["vconstruct", g, "-o", c], capsys)[0] == 0
    code, out, _ = run(["verify", "type", c], capsys)
    assert code == 0 and ", self-polar" in out
    if (family, param) == ("hypercube", 10):
        assert out == "(1024_10), not lineal, disconnected, self-polar\n"
    assert run(["verify", "selfpolar", c], capsys) == (0, "self-polar\n", "")


# Petersen's vconstruct file as it was written when blocks were stored sorted
SORTED_PETERSEN = (
    '{"points": 10, "blocks": [[0, 1, 4], [0, 2, 5], [0, 3, 6], [1, 2, 7], [1, 3, 8], [2, 3, 9], '
    '[4, 5, 7], [4, 6, 8], [5, 6, 9], [7, 8, 9]], "provenance": "v_construct(order=10, size=15, collapse=False)"}\n'
)


def test_verify_a_file_with_sorted_blocks_takes_the_search(tmp_path, monkeypatch, capsys):
    searches = []
    search = iso.find_swap_involution

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(iso, "find_swap_involution", counted)
    path = tmp_path / "c.json"
    path.write_text(SORTED_PETERSEN)
    assert run(["verify", "type", str(path)], capsys) == (0, "(10_3), lineal, connected, self-polar\n", "")
    assert run(["verify", "selfpolar", str(path)], capsys) == (0, "self-polar\n", "")
    assert len(searches) == 2


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
        ["realize", g, "--symmetry", "5", "--seed", "0", "-o", lay], capsys
    )
    assert code == 0
    assert run(["circles", lay, "-o", pcc], capsys)[0] == 0
    code, out, _ = run(["check", pcc], capsys)
    assert code == 0
    for line in ("proper: yes", "isometric: yes", "lineal: yes", "perfect: yes", "degenerate: no"):
        assert line in out
    # the flags check_flags returns, in its order
    flags = confviz.check_flags(jsonio.read(pcc, "pcc")).flags
    assert list(flags) == ["proper", "isometric", "lineal", "determining", "perfect", "degenerate"]
    assert out.splitlines() == [f"{name}: {'yes' if on else 'no'}" for name, on in flags.items()]


@pytest.mark.parametrize("tol, shown", [("-1", "-1.0"), ("nan", "nan"), ("inf", "inf"), ("-inf", "-inf")])
def test_circles_refuses_a_tolerance_that_is_not_finite_and_non_negative(tol, shown, tmp_path, capsys):
    lay = str(tmp_path / "pent.json")
    pcc = tmp_path / "pcc.json"
    assert run(["realize", "--layout", "polygon", "--n", "5", "-o", lay], capsys)[0] == 0
    code, out, err = run(["circles", lay, "--allow-degree-two", f"--tol={tol}", "-o", str(pcc)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: incidence tolerance must be a finite number >= 0, got {shown}\n"
    assert not pcc.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("incidence", float("nan")),
        ("separation", -1),
        ("cluster", float("inf")),
        ("incidence", "1e-9"),
        ("cluster", "abc"),
        ("separation", True),
    ],
)
def test_check_refuses_a_tolerance_that_is_not_finite_and_non_negative(key, value, tmp_path, capsys):
    pcc = tmp_path / "fano.json"
    assert run(["n3realize", "fano", "--seed", "0", "-o", str(pcc)], capsys)[0] == 0
    obj = json.loads(pcc.read_text())
    obj["tols"][key] = value
    pcc.write_text(json.dumps(obj))
    code, out, err = run(["check", str(pcc)], capsys)
    assert (code, out) == (2, "")
    # a tolerance is first a number, by the rule every coordinate follows
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    refusal = f"a finite number >= 0, got {float(value)!r}" if number else f"a number, not {type(value).__name__}"
    refusal = f"{key} tolerance must be {refusal}"
    if number and not math.isfinite(value):
        # a file cannot hold a NaN or an infinity, so tols that hold one are refused as they are read
        refusal = "malformed point-circle object: tols cannot be written to a file: non-finite number in artifact"
    assert err == f"error: {refusal}\n"


def test_check_refuses_a_tolerance_too_large_for_a_float(tmp_path, capsys):
    # 10**400 once escaped float() as OverflowError and exited 1
    pcc = tmp_path / "fano.json"
    assert run(["n3realize", "fano", "--seed", "0", "-o", str(pcc)], capsys)[0] == 0
    obj = json.loads(pcc.read_text())
    obj["tols"]["incidence"] = 10**400
    pcc.write_text(json.dumps(obj))
    assert run(["check", str(pcc)], capsys) == (2, "", "error: incidence tolerance is too large for a float\n")


def test_symmetric_realize_of_gp13_2_is_rotational(tmp_path, capsys):
    # the first two free order-13 orbit sets of GP(13,2) are ruled out by
    # their ring radii; the solve lands on a two-ring drawing
    g, lay = str(tmp_path / "g.json"), str(tmp_path / "lay.json")
    assert run(["gen", "gen_petersen", "13", "2", "-o", g], capsys)[0] == 0
    assert run(["realize", g, "--symmetry", "13", "--seed", "0", "-o", lay], capsys)[0] == 0
    layout = jsonio.read(lay, "layout")
    centred = layout.pos - layout.pos.mean(axis=0)
    radii = np.sort(np.hypot(centred[:, 0], centred[:, 1]))
    assert np.count_nonzero(np.diff(radii) > 1e-9) + 1 == 2
    assert confviz.unit_edge_residual(layout) <= confviz.TOL_INCIDENCE


def test_plain_realize_of_products(tmp_path, capsys):
    g, lay, pcc = (str(tmp_path / f"{name}.json") for name in ("g", "lay", "pcc"))
    assert run(["gen", "prism", "12", "-o", g], capsys)[0] == 0
    assert run(["realize", g, "-o", lay], capsys)[0] == 0
    assert json.load(open(lay))["meta"]["factors"] == [12, 2]
    assert run(["circles", lay, "-o", pcc], capsys)[0] == 0
    code, out, _ = run(["check", pcc], capsys)
    assert code == 0 and "degenerate: no" in out
    assert run(["gen", "hypercube", "6", "-o", g], capsys)[0] == 0
    assert run(["realize", g, "-o", lay], capsys)[0] == 0
    assert json.load(open(lay))["meta"]["method"] == "product"


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
    assert run(["realize"], capsys) == (2, "", "error: realize needs a graph or --layout\n")


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


def test_invert_names_a_non_finite_point(tmp_path, capsys):
    from confviz.pappus import derive_pappus_points

    points = [list(p) for p in derive_pappus_points()]
    points[3][1] = float("nan")
    path = tmp_path / "pl.json"
    path.write_text(json.dumps({"points": points, "lines": list(confviz.pappus_structure().blocks)}))
    code, _, err = run(["invert", str(path), "--center", "0.4", "0.37"], capsys)
    assert (code, err) == (2, "error: point 3 of the point-line input is not finite\n")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--center", "nan", "0.37"], "inversion center must be finite"),
        (["--center", "0.4", "0.37", "--radius", "inf"], "inversion radius must be finite and positive, not inf"),
        (["--center", "0.4", "0.37", "--radius", "nan"], "inversion radius must be finite and positive, not nan"),
    ],
)
def test_invert_names_a_non_finite_center_or_radius(flags, message, capsys):
    code, out, err = run(["invert", "pappus", *flags], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("art", [
    '{"graph": {"order": 0, "edges": []}, "pos": []}',
    '{"points": [], "circles": [{"c": [0.0, 0.0], "r": 1.0}], "incidence": []}',
])
def test_render_without_points_is_usage_error(art, tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(art)
    code, _, err = run(["render", str(path), "-o", str(tmp_path / "pic.svg")], capsys)
    assert (code, err) == (2, "error: nothing to render\n")
    assert not (tmp_path / "pic.svg").exists()


def test_missing_file_is_usage_error(capsys):
    assert run(["vconstruct", "/nonexistent/g.json"], capsys)[0] == 2


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    code, _, err = run(["gen", "petersen", "-o", str(missing / "g.json")], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {missing / 'g.json'}: ")
    lay = str(tmp_path / "lay.json")
    assert run(["realize", "--layout", "polygon", "--n", "5", "-o", lay], capsys)[0] == 0
    code, _, err = run(["render", lay, "-o", str(missing / "x.svg")], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {missing / 'x.svg'}: ")
    assert not missing.exists()


def _gen_and_render(tmp_path, capsys, out):
    """Run gen petersen and render of a pentagon layout into out; returns
    the regular-file bytes each command writes and its report line."""
    lay = str(tmp_path / "lay.json")
    assert run(["realize", "--layout", "polygon", "--n", "5", "-o", lay], capsys)[0] == 0
    cases = []
    for argv in (["gen", "petersen"], ["render", lay]):
        ref = str(tmp_path / "ref")
        code, report, _ = run([*argv, "-o", ref], capsys)
        assert code == 0
        cases.append((argv, pathlib.Path(ref).read_bytes(), report.replace(ref, out)))
    return cases


def test_output_to_dev_null(tmp_path, capsys):
    for argv, _, report in _gen_and_render(tmp_path, capsys, os.devnull):
        assert run([*argv, "-o", os.devnull], capsys) == (0, report, "")


def test_output_to_dev_stdout_through_a_pipe(tmp_path, capsys):
    for argv, data, report in _gen_and_render(tmp_path, capsys, "/dev/stdout"):
        proc = subprocess.run(
            [sys.executable, "-m", "confviz", *argv, "-o", "/dev/stdout"],
            capture_output=True,
            env=child_env(),
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == data + report.encode()


def test_output_to_a_fifo(tmp_path, capsys):
    fifo = str(tmp_path / "fifo")
    os.mkfifo(fifo)
    for argv, data, report in _gen_and_render(tmp_path, capsys, fifo):
        got = []
        reader = threading.Thread(target=lambda: got.append(pathlib.Path(fifo).read_bytes()), daemon=True)
        reader.start()
        try:
            code, out, _ = run([*argv, "-o", fifo], capsys)
        finally:
            reader.join(timeout=30)
        assert not reader.is_alive()
        assert (code, out, got) == (0, report, [data])


def test_unreadable_input_is_usage_error(tmp_path, capsys):
    code, _, err = run(["check", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot read {tmp_path}: ")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    code, _, err = run(["check", str(binary)], capsys)
    assert code == 2
    assert "is not valid JSON" in err


def test_json_nested_past_the_recursion_limit_is_usage_error(tmp_path, capsys):
    # json.load raises RecursionError on it, which once exited 1 as "failed: ..."
    path = tmp_path / "deep.json"
    path.write_text('{"points": 3, "blocks": [[0, 1, 2]], "provenance": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, _, err = run(["verify", "type", str(path)], capsys)
    assert code == 2
    assert err.startswith(f"error: {path} is not valid JSON: maximum recursion depth exceeded")


def test_decompose_parts_keep_a_dotted_directory(tmp_path, capsys):
    c = str(tmp_path / "qc.json")
    assert run(["vconstruct", "hypercube(3)", "-o", c], capsys)[0] == 0
    (tmp_path / "run.d").mkdir()
    assert run(["verify", "decompose", c, "-o", str(tmp_path / "run.d" / "parts")], capsys)[0] == 0
    assert sorted(p.name for p in (tmp_path / "run.d").iterdir()) == ["parts.0", "parts.1"]


@pytest.mark.parametrize(
    "incidence, message",
    [([[0, 0], [1, 1]], "circle 2 holds no point"), ([[0, 0], [0, 1], [1, 2]], "circles 0 and 1 hold the same points")],
)
def test_a_configuration_with_an_unreadable_circle_is_usage_error(incidence, message, tmp_path, capsys):
    cfg = confviz.PointCircleConfig([(0.0, 0.0), (1.0, 0.0)], [(0, 0, 1), (0, 0, 2), (5, 5, 1)], incidence)
    path = str(tmp_path / "cfg.json")
    jsonio.save(path, jsonio.pcc_to_obj(cfg))
    for argv in (["verify", "type", path], ["verify", "decompose", path]):
        assert run(argv, capsys) == (2, "", f"error: {message}\n")


def test_malformed_artifact_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"order": "ten", "edges": []}')
    code, _, err = run(["vconstruct", str(bad)], capsys)
    assert code == 2
    assert "malformed graph object" in err


def _bad_layout():
    lay = json.loads(jsonio.dumps(jsonio.layout_to_obj(confviz.layout_hypercube(3))))
    lay["pos"][0][0], lay["pos"][1][1] = "0.5", True
    return lay


def _bad_pcc():
    pcc = confviz.circles_from_layout(confviz.layout_polygon(5), 1e-9, allow_degree_two=True)
    obj = json.loads(jsonio.dumps(jsonio.pcc_to_obj(pcc)))
    obj["circles"][0]["r"], obj["incidence"][0][0] = "2.5", 0.9
    return obj


def _long_centre_pcc():
    """A circle centre of four numbers, which a reader of its first two
    would take as the circle (1, 0, 1)."""
    pcc = confviz.circles_from_layout(confviz.layout_polygon(5), 1e-9, allow_degree_two=True)
    obj = json.loads(jsonio.dumps(jsonio.pcc_to_obj(pcc)))
    obj["circles"][0] = {"c": [1.0, 0.0, 7, 8], "r": 1.0}
    return obj


@pytest.mark.parametrize(
    "command, obj, message",
    [
        ("vconstruct", {"order": 3, "edges": [[0, 1.5], [1, 2]]}, "malformed graph object: edge entry 1.5 must be an integer, not float"),
        ("verify type", {"points": 3, "blocks": [[0, 1.7], [1, 2]]}, "malformed incidence object: block entry 1.7 must be an integer, not float"),
        ("verify type", {"points": 3.9, "blocks": [[0, 1], [1, 2]]}, "malformed incidence object: point count must be an integer, not float"),
        ("circles", _bad_layout(), "malformed layout object: position entry '0.5' must be a number, not str"),
        ("check", _bad_pcc(), "malformed point-circle object: circle entry '2.5' must be a number, not str"),
        ("check", _long_centre_pcc(), "malformed point-circle object: circles must be (cx, cy, r) rows"),
    ],
)
def test_non_integer_index_or_non_number_coordinate_is_usage_error(command, obj, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run([*command.split(), str(path)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


KINDS = ("graph", "incidence", "layout", "pcc", "spherical", "pointplane", "pointline")

# each artifact-reading subcommand, the arguments around the artifact path,
# and the kinds it accepts
READERS = {
    "vconstruct": (["vconstruct"], [], {"graph", "layout"}),
    "verify kronecker": (["verify", "kronecker"], [], {"graph", "layout"}),
    "verify type": (["verify", "type"], [], {"incidence", "pcc"}),
    "realize": (["realize"], [], {"graph", "layout"}),
    "circles": (["circles"], [], {"layout"}),
    "check": (["check"], [], {"pcc"}),
    "n3realize": (["n3realize"], [], {"incidence", "pcc"}),
    "invert": (["invert"], ["--center", "0.4", "0.37"], {"pointline"}),
    "render": (["render"], ["-o", "pic.svg"], {"layout", "pcc"}),
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    lay = confviz.layout_polygon(5)
    sk = confviz.polytope_data("dodecahedron")
    objs = {
        "graph": jsonio.graph_to_obj(lay.graph),
        "incidence": jsonio.incidence_to_obj(confviz.fano_plane()),
        "layout": jsonio.layout_to_obj(lay),
        "pcc": jsonio.pcc_to_obj(confviz.circles_from_layout(lay, 1e-9, allow_degree_two=True)),
        "spherical": jsonio.spherical_to_obj(confviz.sphere_circles(sk)),
        "pointplane": jsonio.pointplane_to_obj(confviz.point_plane_vconstruct(sk)),
        "pointline": {"points": [[0, 0], [1, 0], [2, 0]], "lines": [[0, 1, 2]]},
    }
    root = tmp_path_factory.mktemp("kinds")
    paths = {}
    for kind, obj in objs.items():
        paths[kind] = str(root / f"{kind}.json")
        jsonio.save(paths[kind], obj)
        assert jsonio.detect_kind(obj) == kind
    return paths


@pytest.mark.parametrize(
    "command, kind",
    [(c, k) for c, (_, _, accepts) in READERS.items() for k in KINDS if k not in accepts],
)
def test_subcommand_rejects_other_kinds(command, kind, artifacts, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    head, tail, _ = READERS[command]
    code, _, err = run([*head, artifacts[kind], *tail], capsys)
    assert code == 2
    assert f"artifact, found {kind}" in err and "expected a" in err
    assert not (tmp_path / "pic.svg").exists()


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


@pytest.mark.parametrize(
    "argv",
    [
        ["spatial", "cube", "project", "--seed", "-1"],
        ["n3realize", "fano", "--seed", "-1"],
        ["realize", "petersen", "--seed", "-1"],
        ["realize", "petersen", "--symmetry", "5", "--seed", "-1"],
        ["realize", "--layout", "hypercube", "--n", "3", "--seed", "-1"],
    ],
)
def test_negative_seed_is_usage_error(argv, tmp_path, capsys):
    out = str(tmp_path / "out.json")
    assert run([*argv, "-o", out], capsys) == (2, "", "error: --seed must be non-negative\n")
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [["spatial", "cube", "project"], ["n3realize", "fano"], ["realize", "petersen"]])
def test_negative_seed_from_the_environment_is_usage_error(argv, capsys, monkeypatch):
    monkeypatch.setenv("CONFVIZ_SEED", "-3")
    assert run(argv, capsys) == (2, "", "error: CONFVIZ_SEED must be non-negative\n")


def child_env():
    # the child imports the same confviz as this test, installed or not
    root = str(pathlib.Path(confviz.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point(tmp_path):
    env = child_env()
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


def test_package_and_cli_import_leaves_numpy_unloaded():
    probe = (
        "import sys, confviz, confviz.cli; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'confviz.'))))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    loaded = ["cli", "errors", "graphs", "incidence", "jsonio"]
    assert proc.stdout.strip() == str([f"confviz.{m}" for m in loaded])


@pytest.mark.parametrize("module", ["realization", "layouts"])
def test_numeric_import_leaves_the_isomorphism_search_unloaded(module):
    probe = f"import sys, confviz.{module}; print('confviz.iso' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=child_env())
    assert (proc.returncode, proc.stdout.strip()) == (0, "False"), proc.stderr


# (argv, exit code, start of stdout) for each command that needs no numerics
NUMPY_FREE_COMMANDS = [
    ("gen petersen -o g.json", 0, "graph on 10 vertices, 15 edges, girth 5"),
    ("gen hypercube 3 -o q.json", 0, "graph on 8 vertices, 12 edges, girth 4"),
    ("product cycle(3) path(2)", 0, '{"order": 6,'),
    ("linegraph petersen", 0, '{"order": 15,'),
    ("vconstruct g.json -o c.json", 0, "incidence structure: 10 points, 10 blocks"),
    ("vconstruct q.json -o qc.json", 0, "incidence structure: 8 points, 8 blocks"),
    ("verify kronecker g.json", 0, "admissible; Levi graph on 20 vertices vs cover on 20"),
    ("verify type c.json", 0, "(10_3), lineal, connected, self-polar"),
    ("verify selfpolar c.json", 0, "self-polar"),
    ("verify decompose qc.json -o p.json", 0, "component 0: (4_3), not lineal"),
    ("verify decompose c.json", 1, "component 0: (10_3), lineal, connected"),
    ("iso kneser(5,2) g.json", 0, "isomorphic"),
    ("iso petersen q.json", 1, "not isomorphic"),
    ("gen pappus -o pp.json", 0, "graph on 18 vertices, 27 edges, girth 6"),
    ("verify type pappus", 0, "(9_3), lineal, connected, self-polar"),
    ("verify selfpolar pappus", 0, "self-polar"),
    ("verify decompose pappus", 1, "component 0: (9_3), lineal, connected"),
    ("iso pappus g.json", 1, "not isomorphic"),
]


@pytest.fixture(scope="module")
def walkthrough_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    g, q = confviz.build_family("petersen"), confviz.build_family("hypercube", 3)
    jsonio.save(str(root / "g.json"), jsonio.graph_to_obj(g))
    jsonio.save(str(root / "q.json"), jsonio.graph_to_obj(q))
    jsonio.save(str(root / "c.json"), jsonio.incidence_to_obj(confviz.v_construct(g)))
    jsonio.save(str(root / "qc.json"), jsonio.incidence_to_obj(confviz.v_construct(q)))
    return root


def _imported(argv: str, inputs, tmp_path) -> tuple[int, str, set]:
    """Exit code, stdout and the modules imported, from `-X importtime`, of
    `python -m confviz argv` run on a copy of inputs."""
    for f in inputs.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "confviz", *argv.split()],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=tmp_path,
    )
    imported = {
        line.split("|")[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")
    }
    return proc.returncode, proc.stdout, imported


@pytest.mark.parametrize("argv, code, head", NUMPY_FREE_COMMANDS)
def test_combinatorial_command_starts_without_numpy(argv, code, head, walkthrough_inputs, tmp_path):
    returncode, out, imported = _imported(argv, walkthrough_inputs, tmp_path)
    assert (returncode, out[: len(head)]) == (code, head)
    assert "confviz.cli" in imported
    assert not {m for m in imported if m.split(".")[0] == "numpy"}


@pytest.fixture(scope="module")
def numeric_inputs(walkthrough_inputs, tmp_path_factory):
    """The walk-through inputs with a hypercube(3) layout and its circles."""
    root = tmp_path_factory.mktemp("numeric")
    for f in walkthrough_inputs.iterdir():
        (root / f.name).write_bytes(f.read_bytes())
    lay = confviz.layout_hypercube(3)
    jsonio.save(str(root / "lay.json"), jsonio.layout_to_obj(lay))
    jsonio.save(str(root / "cfg.json"), jsonio.pcc_to_obj(confviz.circles_from_layout(lay)))
    return root


# each numeric command, and whether it loads the unit-distance layouts
NUMERIC_COMMANDS = [
    ("circles lay.json -o out.json", False),
    ("check cfg.json", False),
    ("n3realize fano -o out.json", False),
    ("invert pappus --center 0.4 0.37 -o out.json", False),
    ("spatial cube project -o out.json", False),
    ("render cfg.json -o picture.svg", False),
    ("realize g.json -o out.json", True),
    ("realize --layout hypercube q.json -o out.json", True),
]


@pytest.mark.parametrize("argv, loads", NUMERIC_COMMANDS)
def test_only_realize_loads_the_layouts(argv, loads, numeric_inputs, tmp_path):
    returncode, _, imported = _imported(argv, numeric_inputs, tmp_path)
    assert returncode == 0 and "confviz.realization" in imported
    assert ("confviz.layouts" in imported) == loads


# argparse words its help differently before 3.11 and from 3.13 on
@pytest.mark.skipif(sys.version_info[:2] not in ((3, 11), (3, 12)), reason="argparse help layout")
@pytest.mark.parametrize(
    "command, text",
    [
        (
            "circles",
            """usage: confviz circles [-h] [--tol TOL] [--allow-degree-two] [-o OUTPUT]
                       layout

positional arguments:
  layout

options:
  -h, --help            show this help message and exit
  --tol TOL
  --allow-degree-two
  -o OUTPUT, --out OUTPUT
                        write the artifact here instead of stdout
""",
        ),
        (
            "spatial",
            """usage: confviz spatial [-h] [--pole X Y Z] [--seed SEED] [-o OUTPUT]
                       {tetrahedron,cube,octahedron,dodecahedron,icosahedron,cuboctahedron}
                       {planes,sphere,project}

positional arguments:
  {tetrahedron,cube,octahedron,dodecahedron,icosahedron,cuboctahedron}
  {planes,sphere,project}

options:
  -h, --help            show this help message and exit
  --pole X Y Z
  --seed SEED
  -o OUTPUT, --out OUTPUT
                        write the artifact here instead of stdout
""",
        ),
    ],
)
def test_help_of_lazily_imported_commands(command, text, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == text
