"""The four workloads: ladders of items, their timed pipelines and checks.

Every call into a public confviz function inside a pipeline goes through the
tracer under a `<module>.<function>` stage name; those calls are the layers.
Checks run after the item's clock stops and recompute what they can with
plain numpy instead of trusting the library under test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import numpy as np

import confviz as cv
from confviz import jsonio, render
from confviz.errors import (
    AdmissibilityError,
    CapacityError,
    ConvergenceError,
    SamplingError,
)
from confviz.pappus import derive_pappus_points

from harness import Item, Tracer

# Seconds one pass over each ladder takes at the commit that introduced the
# benchmark (2-CPU container, Python 3.11, numpy 2.4). A run makes
# floor(--seconds / this) whole passes, at least one, so a run does the same
# work on every commit and a faster commit simply finishes sooner.
NOMINAL_PASS_S = {"combinatorics": 19.0, "flags": 23.0, "solver": 35.0, "cli_readme": 8.5}

# In-process items run more than once per pass and report the median of
# their repeats: cheap items (up to about 0.15 s) 6 times, dearer ones 5
# times, and the items of a second or more twice, so that the item times
# around the median and the tail rest on several repeats each.
# `combinatorics` runs every item 4 times, and the slow symmetric solves run
# 3 times, each with its own seed. The split is fixed per item, so the
# counts a traced run reports repeat exactly.
CHEAP, DEAR, SLOW = 6, 5, 2

# The kernel that scales each workload's times (see harness.KERNELS): the
# one that slows down between the host's fast and slow levels by about the
# same ratio as the workload's items.
# The symmetric solves, which set `solver`'s items_per_s, work on whole
# Jacobians and slow down less than its many small plain solves.
KERNEL = {"combinatorics": "graph", "flags": "numeric", "solver": "array",
          "cli_readme": "spawn"}

# Development used seed 1. This one is kept back, so that a later claim can
# be confirmed on a seed it was not tuned on.
CONFIRM_SEED = 7


def derive(seed: int, *parts) -> int:
    """Stable 31-bit sub-seed for one solver, sampler, angle or pole draw."""
    digest = hashlib.sha256(repr((seed, *parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def build(workload: str, seed: int, work_dir: Path) -> list[Item]:
    items = {
        "combinatorics": combinatorics,
        "flags": flags,
        "solver": solver,
        "cli_readme": cli_readme,
    }[workload](seed, work_dir)
    if workload != "cli_readme":  # the README commands depend on each other's files
        random.Random(derive(seed, "order")).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# stage helpers shared by the in-process workloads


def _write(t: Tracer, path: Path, to_obj, value) -> int:
    def write():
        jsonio.save(str(path), to_obj(value))
        return path.stat().st_size

    return t.call("jsonio.write", write, work=lambda n: n or 0)


def _read(t: Tracer, path: Path, from_obj):
    return t.call(
        "jsonio.read",
        lambda: from_obj(jsonio.load(str(path))),
        work=lambda _: path.stat().st_size,
    )


def _svg(t: Tracer, cfg) -> str:
    return t.call("render.svg", render.render_config, cfg, work=lambda s: len(s.encode()))


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


# ---------------------------------------------------------------------------
# independent checks


def nbhd_blocks(g) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(a)) for a in g.adjacency)


def is_bipartite(g) -> bool:
    side = [-1] * g.order
    for root in range(g.order):
        if side[root] >= 0:
            continue
        side[root], stack = 0, [root]
        while stack:
            v = stack.pop()
            for w in g.adjacency[v]:
                if side[w] < 0:
                    side[w] = 1 - side[v]
                    stack.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def witness_ok(g, c, witness) -> bool:
    """The witness maps Levi(c) onto the double cover of g edge for edge."""
    n = g.order
    cover = {(u, n + v) for u, v in g.edges} | {(v, n + u) for u, v in g.edges}
    cover |= {(b, a) for a, b in cover}
    levi = [(p, c.points + j) for j, blk in enumerate(c.blocks) for p in blk]
    img = witness.image
    return (
        sorted(img) == list(range(c.points + c.block_count))
        and len(levi) * 2 == len(cover)
        and all((img[a], img[b]) in cover for a, b in levi)
    )


def edge_residual(pos: np.ndarray, edges) -> float:
    e = np.asarray(edges)
    return float(np.max(np.abs(np.linalg.norm(pos[e[:, 0]] - pos[e[:, 1]], axis=1) - 1.0)))


def min_separation(pos: np.ndarray) -> float:
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    return float(np.min(d[np.triu_indices(len(pos), 1)]))


def incidence_residual(cfg) -> float:
    """Largest distance of an incident point from its circle, relative to
    the picture's extent."""
    worst = 0.0
    for p, k in cfg.incidence:
        c = cfg.circles[k]
        worst = max(worst, abs(float(np.hypot(*(cfg.points[p] - (c.cx, c.cy)))) - c.r))
    scale = max(1.0, float(np.max(np.abs(cfg.points))), max(c.r for c in cfg.circles))
    return worst / scale


def read_blocks(cfg) -> list[tuple[int, ...]]:
    return sorted(cv.incidence_of(cfg).blocks)


def flag_problems(flags: dict, expected: dict) -> list[str]:
    return [f"{k} is {flags.get(k)}, expected {v}" for k, v in expected.items() if flags.get(k) != v]


# ---------------------------------------------------------------------------
# combinatorics: graphs / incidence / iso work, no numerics


def combinatorics(seed: int, work_dir: Path) -> list[Item]:
    ladder = (
        [("hypercube", (d,)) for d in range(3, 9)]
        + [("odd", (m,)) for m in range(3, 7)]
        # every second n around the median item, every fourth n below and above
        + [("gen_petersen", (n, 2)) for n in [10, 14, 18, 22, *range(26, 43, 2), 46, 50]]
        # every n at the top, where the 11th-slowest item (the tail) falls
        + [("gen_cuboctahedron", (n,)) for n in [5, 9, 13, *range(17, 30, 2), *range(30, 41)]]
        + [("kneser", (7, 3)), ("petersen", ()), ("desargues", ()), ("dodecahedron", ()),
           ("pappus", ()), ("cycle", (4,))]
    )
    limits = {("hypercube", (8,)), ("odd", (6,))}  # 300-vertex cap of the generic search
    items = []
    for family, params in ladder:
        key = f"{family}{params}"
        path = work_dir / f"comb-{family}-{'-'.join(map(str, params))}.json"
        refusal = ("incidence.v_construct", AdmissibilityError) if family == "cycle" else None
        limit = ("incidence.verify_kronecker_theorem", CapacityError) if (family, params) in limits else None
        items.append(
            Item(key, _comb_run(family, params, path), _comb_check, refusal, limit, reps=4)
        )
    return items


def _comb_run(family, params, path):
    def run(t: Tracer):
        g = t.call("graphs.build_family", cv.build_family, family, *params, work=lambda g: g.order)
        rep = t.call(
            "incidence.verify_kronecker_theorem", cv.verify_kronecker_theorem, g,
            work=lambda r: r.levi_order if r else 2 * g.order,
        )
        c = t.call("incidence.v_construct", cv.v_construct, g, work=lambda _: g.order)
        levi_order = c.points + c.block_count
        cls = t.call(
            "incidence.classify", cv.classify, c, with_self_polar=True, work=lambda _: levi_order
        )
        parts = t.call("incidence.decompose", cv.decompose, c, work=lambda _: levi_order)
        _write(t, path, jsonio.incidence_to_obj, c)
        back = _read(t, path, jsonio.incidence_from_obj)
        reports = f"{rep.describe()}\n{cls.describe()}\n{len(parts)} parts\n".encode()
        return {"g": g, "rep": rep, "c": c, "cls": cls, "parts": parts, "back": back,
                "artifacts": [path, reports]}

    return run


def _comb_check(out) -> list[str]:
    g, rep, c, cls, parts = out["g"], out["rep"], out["c"], out["cls"], out["parts"]
    problems = []
    if not (rep.admissible and rep.verified and witness_ok(g, c, rep.witness)):
        problems.append("Kronecker witness missing or wrong")
    degrees = {len(a) for a in g.adjacency}
    if len(degrees) == 1 and cls.balanced_type != (g.order, degrees.pop()):
        problems.append(f"type {cls.balanced_type}")
    if cls.self_polar is not True:
        problems.append("a V-construction is self-polar (i <-> N(i))")
    if sorted(c.blocks) != nbhd_blocks(g):
        problems.append("blocks are not the neighbourhoods")
    want = 2 if is_bipartite(g) else 1  # every ladder graph is connected
    if len(parts) != want or sum(p.points for p in parts) != c.points:
        problems.append(f"decompose gave {len(parts)} parts, expected {want}")
    if out["back"] != c:
        problems.append("read-back differs")
    return problems


# ---------------------------------------------------------------------------
# flags: circles and the flag check, no solver


def flags(seed: int, work_dir: Path) -> list[Item]:
    items = []
    proper_determining = {"proper": True, "determining": True}
    for d in range(3, 7):
        angle_seed = derive(seed, "hypercube", d)
        items.append(_flag_layout_item(
            f"hypercube({d})", work_dir, "realization.layout_hypercube",
            lambda d=d, s=angle_seed: cv.layout_hypercube(d, seed=s), 2**d, proper_determining,
            reps=CHEAP if d < 5 else DEAR if d == 5 else SLOW))
    # dense up to 17 and sparse above: the tail item (the 11th slowest) then
    # falls among CO(13..17) and polygon(64), below hypercube(5) and the
    # realize_n3 limits, whose times change with the seed
    for n in [*range(5, 18), 20, 24, 40]:
        # at n = 6 the six inner-vertex circles all pass through the centre,
        # a meet point that is not a configuration point
        expected = {"proper": True, "determining": n != 6}
        items.append(_flag_layout_item(
            f"gen_cuboctahedron({n})", work_dir, "realization.layout_gen_cuboctahedron",
            lambda n=n: cv.layout_gen_cuboctahedron(n), 3 * n, expected,
            reps=CHEAP if n < 14 else DEAR if n <= 24 else SLOW))
    for n in (5, 8, 12, 16, 24, 32, 48, 64):
        items.append(_flag_layout_item(
            f"polygon({n})", work_dir, "realization.layout_polygon",
            lambda n=n: cv.layout_polygon(n), n, {"lineal": True},
            reps=CHEAP if n < 64 else DEAR))
    for name in cv.POLYTOPE_NAMES:
        items.append(_projection_item(name, derive(seed, "pole", name), work_dir))
    items.append(_invert_item(work_dir))
    n3 = [("fano", cv.fano_plane(), False), ("pappus", cv.pappus_structure(), False)]
    for family in ("petersen", "pappus", "dodecahedron"):
        g = cv.build_family(family)
        # 18 and 20 points exhaust the rejection sampler's budget on every
        # seed tried; at 16 points some seeds get through
        n3.append((f"v_construct({family})", cv.v_construct(g), g.order >= 16))
    for name, c, limited in n3:
        items.append(_n3_item(name, c, derive(seed, "n3", name), limited, work_dir))
    return items


def _flag_tail(t: Tracer, cfg, path: Path, expect):
    """check_flags -> write -> render; `expect()` gives the source blocks and
    the known flags, evaluated by the untimed check."""
    cfg = t.call("realization.check_flags", cv.check_flags, cfg,
                 work=lambda _: _pairs(len(cfg.circles)))
    _write(t, path, jsonio.pcc_to_obj, cfg)
    svg = _svg(t, cfg)
    return {"cfg": cfg, "expect": expect, "artifacts": [path, svg]}


def _flag_check(out) -> list[str]:
    cfg = out["cfg"]
    blocks, expected = out["expect"]()
    problems = flag_problems(cfg.flags, expected)
    if incidence_residual(cfg) > cv.TOL_INCIDENCE:
        problems.append("points off their circles")
    if read_blocks(cfg) != blocks:
        problems.append("incidence_of differs from the source structure")
    return problems


def _flag_layout_item(key, work_dir, stage, make, order, expected, reps) -> Item:
    """A parametric layout; `order` is its vertex count, so also its circle count."""
    path = work_dir / f"flags-{key}.json"

    def run(t: Tracer):
        lay = t.call(stage, make, work=lambda _: order)
        cfg = t.call("realization.circles_from_layout", cv.circles_from_layout, lay,
                     allow_degree_two=key.startswith("polygon"), work=lambda _: order)
        return _flag_tail(t, cfg, path, lambda: (nbhd_blocks(lay.graph), expected))

    return Item(key, run, _flag_check, reps=reps)


def _projection_item(name: str, pole_seed: int, work_dir: Path) -> Item:
    path = work_dir / f"flags-project-{name}.json"

    def run(t: Tracer):
        sk = t.call("spatial.polytope_data", cv.polytope_data, name, work=lambda s: s.graph.order)
        sc = t.call("spatial.sphere_circles", cv.sphere_circles, sk, work=lambda _: sk.graph.order)
        cfg, _ = t.call("spatial.stereographic_project", cv.stereographic_project, sc,
                        seed=pole_seed, work=lambda _: len(sc.circles))
        return _flag_tail(t, cfg, path, lambda: (nbhd_blocks(sk.graph), _sphere_flags(sk.graph)))

    # antipodal octahedron vertices share a neighbourhood plane: a documented refusal
    refusal = ("spatial.sphere_circles", AdmissibilityError) if name == "octahedron" else None
    return Item(f"project({name})", run, _flag_check, refusal, reps=CHEAP)


def _sphere_flags(g) -> dict:
    """Proper, determining and lineal survive a Moebius map, so a projection
    keeps the sphere's: lineal iff no two neighbourhoods share two vertices."""
    nb = [set(a) for a in g.adjacency]
    lineal = all(len(a & b) < 2 for a, b in combinations(nb, 2))
    return {"proper": True, "determining": True, "lineal": lineal}


def _invert_item(work_dir: Path) -> Item:
    points = np.array(derive_pappus_points())
    lines = cv.pappus_structure().blocks
    path = work_dir / "flags-invert-pappus.json"

    def run(t: Tracer):
        cfg = t.call("realization.invert_pointline", cv.invert_pointline, points, lines,
                     (0.4, 0.37), work=lambda _: len(lines))
        # circles through the inversion center: never proper, still lineal
        return _flag_tail(t, cfg, path, lambda: (sorted(lines), {"proper": False, "lineal": True}))

    return Item("invert(pappus)", run, _flag_check, reps=CHEAP)


def _n3_item(name: str, c, seed: int, limited: bool, work_dir: Path) -> Item:
    path = work_dir / f"flags-n3-{name}.json"

    def run(t: Tracer):
        cfg = t.call("realization.realize_n3", cv.realize_n3, c, seed=seed, work=lambda _: c.points)
        # generic points: two circumcircles share at most their one common block point
        return _flag_tail(t, cfg, path, lambda: (sorted(c.blocks), {"lineal": True}))

    limit = ("realization.realize_n3", SamplingError) if limited else None
    # a sampler that runs out takes as long as its seed makes it: once
    return Item(f"realize_n3({name})", run, _flag_check, limit=limit,
                reps=1 if limited else CHEAP)


# ---------------------------------------------------------------------------
# solver: unit-distance solves, no flag check


def solver(seed: int, work_dir: Path) -> list[Item]:
    cases = (
        [("petersen", (), 5), ("desargues", (), 10)]
        # GP(n,2) for odd n from 13 on and for n = 20 is left out: those solves
        # take 2-9 s, and their restart counts, so their times, swing up to
        # twofold with the seed
        + [("gen_petersen", (n, 2), n) for n in range(10, 19) if n < 13 or n % 2 == 0]
        + [("petersen", (), None)]
        # the plain solve collapses two vertices on every restart at these sizes
        + [("prism", (n,), None) for n in range(11, 19)]
        + [("gen_petersen", (n, 1), None) for n in range(11, 19)]
    )
    items = []
    for family, params, k in cases:
        key = f"{family}{params}" + (f" symmetry={k}" if k else " plain")
        path = work_dir / f"solve-{family}-{'-'.join(map(str, params))}-{k}.json"
        limit = None
        if k is None and family != "petersen":
            limit = ("realization.solve_unit_distance", ConvergenceError)
        # the symmetric solves from 28 vertices (GP(14,2)) on take a second or more
        reps = 3 if k is not None and cv.build_family(family, *params).order >= 28 else CHEAP
        # A plain solve keeps one seed: it converges on the odd seed, and a
        # repeat that ends otherwise than the first counts as an error.
        seeds = [derive(seed, "solve", key, r) for r in range(reps if k is not None else 1)]
        items.append(Item(key, _solve_run(family, params, k, seeds, path), _solve_check,
                          limit=limit, reps=reps))
    return items


def _solve_run(family, params, k, seeds, path):
    """Repeat r of a pass solves with seeds[r % len(seeds)]: the restart
    count, and so the time, of a symmetric solve depends on the seed, and
    the item's time is the median over its seeds. The first repeat's output
    is the one checked and digested."""
    cycle = itertools.cycle(seeds)

    def run(t: Tracer):
        g = t.call("graphs.build_family", cv.build_family, family, *params, work=lambda g: g.order)
        lay, residual = t.call("realization.solve_unit_distance", cv.solve_unit_distance, g,
                               seed=next(cycle), symmetry=k, work=lambda _: g.size)
        checked = t.call("realization.unit_edge_residual", cv.unit_edge_residual, lay,
                         work=lambda _: g.size)
        cfg = t.call("realization.circles_from_layout", cv.circles_from_layout, lay,
                     work=lambda _: g.order)
        _write(t, path, jsonio.layout_to_obj, lay)
        return {"g": g, "lay": lay, "residual": residual, "checked": checked, "cfg": cfg,
                "artifacts": [path]}

    return run


def _solve_check(out) -> list[str]:
    g, pos = out["g"], out["lay"].pos
    problems = []
    if edge_residual(pos, g.edges) > cv.TOL_INCIDENCE:
        problems.append("edges are not unit length")
    if min_separation(pos) <= cv.TOL_SEPARATION:
        problems.append("two vertices coincide")
    if not out["residual"] == out["checked"] <= cv.TOL_INCIDENCE:
        problems.append("reported residual disagrees")
    if read_blocks(out["cfg"]) != nbhd_blocks(g):
        problems.append("circles do not carry the neighbourhoods")
    return problems


# ---------------------------------------------------------------------------
# cli_readme: the README walk-through as `python -m confviz` processes


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cli_readme(seed: int, work_dir: Path) -> list[Item]:
    fano = sorted(cv.fano_plane().blocks)

    def shape(name, order, size):
        def check(d, stdout):
            g = _load(d / name)
            return [] if (g["order"], len(g["edges"])) == (order, size) else [f"{name} shape"]
        return check

    def structure(name, points):
        def check(d, stdout):
            c = _load(d / name)
            ok = c["points"] == points and len(c["blocks"]) == points
            return [] if ok else [f"{name} shape"]
        return check

    def says(text):
        return lambda d, stdout: [] if text in stdout else [f"stdout lacks {text!r}"]

    def answers(text):
        return lambda d, stdout: [] if stdout.strip() == text else [f"stdout is not {text!r}"]

    def decomposed(d, stdout):
        parts = [_load(d / f"p.{i}.json") for i in (0, 1)]
        return [] if [p["points"] for p in parts] == [4, 4] else ["parts"]

    def layout(d, stdout):
        lay = _load(d / "lay.json")
        pos, edges = np.array(lay["pos"]), lay["graph"]["edges"]
        ok = edge_residual(pos, edges) <= cv.TOL_INCIDENCE and min_separation(pos) > cv.TOL_SEPARATION
        return [] if ok else ["layout residual or separation"]

    def pcc(name, circles, expected, blocks=None):
        def check(d, stdout):
            cfg = jsonio.pcc_from_obj(_load(d / name))
            problems = flag_problems(cfg.flags, expected)
            if len(cfg.circles) != circles or incidence_residual(cfg) > cv.TOL_INCIDENCE:
                problems.append(f"{name} circles")
            if blocks is not None and read_blocks(cfg) != blocks:
                problems.append(f"{name} incidences")
            return problems
        return check

    def planes(d, stdout):
        return [] if len(_load(d / "planes.json")["planes"]) == 20 else ["plane count"]

    def svg(d, stdout):
        text = (d / "picture.svg").read_text(encoding="utf-8")
        return [] if "<svg" in text and text.rstrip().endswith("</svg>") else ["svg"]

    perfect = {k: True for k in ("proper", "isometric", "lineal", "determining", "perfect")}
    n3_seed, pole_seed = derive(seed, "n3", "fano"), derive(seed, "pole", "cube")
    # (argv, files written, check). Each must exit 0, which the README
    # documents as success or property holds.
    steps = [
        ("gen petersen -o g.json", ["g.json"], shape("g.json", 10, 15)),
        ("vconstruct g.json -o c.json", ["c.json"], structure("c.json", 10)),
        ("verify kronecker g.json", [], says("isomorphism verified")),
        ("verify type c.json", [], says("(10_3), lineal")),
        ("gen hypercube 3 -o q.json", ["q.json"], shape("q.json", 8, 12)),
        ("vconstruct q.json -o qc.json", ["qc.json"], structure("qc.json", 8)),
        ("verify decompose qc.json -o p.json", ["p.0.json", "p.1.json"], decomposed),
        ("realize g.json --symmetry 5 -o lay.json", ["lay.json"], layout),
        ("circles lay.json -o cfg.json", ["cfg.json"], pcc("cfg.json", 10, perfect)),
        ("check cfg.json", [], says("perfect: yes\ndegenerate: no")),
        (f"n3realize fano --seed {n3_seed} -o f.json", ["f.json"],
         pcc("f.json", 7, {"lineal": True}, fano)),
        ("invert pappus --center 0.4 0.37 -o inv.json", ["inv.json"],
         pcc("inv.json", 9, {"proper": False, "lineal": True})),
        ("spatial dodecahedron planes -o planes.json", ["planes.json"], planes),
        (f"spatial cube project --seed {pole_seed} -o proj.json", ["proj.json"],
         pcc("proj.json", 8, {"proper": True, "determining": True, "lineal": False})),
        ("render cfg.json -o picture.svg", ["picture.svg"], svg),
        ("iso kneser(5,2) g.json", [], answers("isomorphic")),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(cv.__file__).resolve().parent.parent)
    env["CONFVIZ_SEED"] = str(derive(seed, "realize", "petersen"))  # the documented fallback
    return [_cli_item(argv.split(), outputs, check, work_dir, env) for argv, outputs, check in steps]


def _importtime(stderr: str) -> tuple[float, int]:
    """Seconds spent in the top-level confviz imports, and how many modules
    they pulled in, from `-X importtime` lines (printed children first)."""
    seconds, modules, pending = 0.0, 0, 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line.split("|")
        pending += 1
        if not name.startswith("  ") and name.strip().startswith("confviz"):
            seconds += int(cumulative) * 1e-6
            modules += pending
        if not name.startswith("  "):
            pending = 0
    return seconds, modules


def _cli_item(argv: list[str], outputs: list[str], check, work_dir: Path, env: dict) -> Item:
    sub = argv[0]

    def run(t: Tracer):
        trace = ["-X", "importtime"] if t.enabled else []
        cmd = [sys.executable, *trace, "-m", "confviz", *argv]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=work_dir, env=env, capture_output=True, text=True, timeout=170)
        end = time.perf_counter()
        files = [work_dir / name for name in outputs]
        written = len(done.stdout.encode()) + sum(f.stat().st_size for f in files if f.exists())
        span = t.record(f"cli.{sub}", start, end, done.returncode == 0, written)
        if t.enabled:
            seconds, modules = _importtime(done.stderr)
            t.record("cli.import", start, start + seconds, True, modules, parent=span)
        status = f"{' '.join(argv)} -> exit {done.returncode}\n".encode()
        return {"done": done, "files": files,
                "artifacts": [status, done.stdout.encode(), *files]}

    def judge(out) -> list[str]:
        done = out["done"]
        if done.returncode != 0:
            return [f"exit {done.returncode}: {done.stderr.strip()[-200:]}"]
        missing = [f.name for f in out["files"] if not f.exists()]
        if missing:
            return [f"missing {missing}"]
        return check(work_dir, done.stdout)

    return Item(" ".join(argv), run, judge)
