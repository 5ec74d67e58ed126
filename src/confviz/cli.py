"""Command line front end.

Artifact JSON goes to the -o file; without -o it is printed to stdout so
commands can be piped. Human-readable reports go to stdout, diagnostics to
stderr. Exit codes: 0 success / property holds, 1 domain failure / property
fails, 2 usage or parameter problems. CONFVIZ_SEED supplies the default
seed when a command takes one and --seed is absent.

Commands import realization, spatial and render (and with them numpy) only
when they run, so the combinatorial commands start without numpy.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import TYPE_CHECKING

from . import graphs, incidence, jsonio
from .errors import ParameterError

if TYPE_CHECKING:
    from . import realization

_DOMAIN_ERRORS = (
    ValueError,
    ArithmeticError,
    RuntimeError,
)

_TOKEN_RE = re.compile(r"^([a-z_][a-z_0-9]*)(?:\(([-0-9,\s]*)\))?$")


def _parse_family_token(token: str):
    m = _TOKEN_RE.match(token.strip())
    if not m or m.group(1) not in graphs.family_names():
        return None
    pieces = (m.group(2) or "").split(",")
    try:
        return m.group(1), tuple(int(p) for p in pieces if p.strip())
    except ValueError:
        raise ParameterError(f"malformed family token {token!r}: parameters must be integers") from None


def _graph_from(token: str) -> graphs.Graph:
    parsed = _parse_family_token(token)
    if parsed is not None:
        return graphs.build_family(parsed[0], *parsed[1])
    g = jsonio.read(token, "graph", "layout")
    return g if isinstance(g, graphs.Graph) else g.graph


def _incidence_from(token: str) -> incidence.IncidenceStructure:
    if token.strip() == "fano":
        return incidence.fano_plane()
    if token.strip() == "pappus":
        return incidence.pappus_structure()
    c = jsonio.read(token, "incidence", "pcc")
    if isinstance(c, incidence.IncidenceStructure):
        return c
    from . import realization

    return realization.incidence_of(c)


def _emit_artifact(obj: dict, out: str | None, report: str):
    if out:
        jsonio.save(out, obj)
        print(report)
    else:
        sys.stdout.write(jsonio.dumps(obj) + "\n")


def _emit_graph(g: graphs.Graph, out: str | None, kind: str, tail: str = "") -> int:
    report = f"{kind} on {g.order} vertices, {g.size} edges{tail}"
    _emit_artifact(jsonio.graph_to_obj(g), out, report)
    return 0


def _emit_config(cfg: realization.PointCircleConfig, out: str | None, head: str) -> int:
    """Flag-check a point-circle configuration and emit it; head ends in its
    own separator before the residual."""
    from . import realization

    cfg = realization.check_flags(cfg)
    report = f"{head} max incidence residual {cfg.max_incidence_residual():.3e}"
    _emit_artifact(jsonio.pcc_to_obj(cfg), out, report)
    return 0


def _seed_of(args) -> int:
    """--seed, else CONFVIZ_SEED, else 0; a seed is an integer >= 0."""
    if getattr(args, "seed", None) is not None:
        seed, source = args.seed, "--seed"
    else:
        env = os.environ.get("CONFVIZ_SEED", "0")
        try:
            seed, source = int(env), "CONFVIZ_SEED"
        except ValueError:
            raise ParameterError(f"CONFVIZ_SEED must be an integer, got {env!r}") from None
    from .realization import _seed

    return _seed(seed, source)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    if args.params:
        g = graphs.build_family(args.family, *args.params)
    else:
        g = _graph_from(args.family)
    return _emit_graph(g, args.output, "graph", f", girth {graphs.structure_report(g).girth}")


def _cmd_product(args) -> int:
    g = graphs.cartesian_product(_graph_from(args.first), _graph_from(args.second))
    return _emit_graph(g, args.output, "product graph")


def _cmd_linegraph(args) -> int:
    return _emit_graph(graphs.line_graph(_graph_from(args.graph)), args.output, "line graph")


def _cmd_vconstruct(args) -> int:
    g = _graph_from(args.graph)
    c = incidence.v_construct(g, collapse=args.collapse)
    _emit_artifact(
        jsonio.incidence_to_obj(c),
        args.output,
        f"incidence structure: {c.points} points, {c.block_count} blocks",
    )
    return 0


def _cmd_verify(args) -> int:
    if args.property == "kronecker":
        rep = incidence.verify_kronecker_theorem(_graph_from(args.artifact))
        print(rep.describe())
        return 0 if (rep.admissible and rep.verified) else 1
    c = _incidence_from(args.artifact)
    if args.property == "selfpolar":
        witness = incidence.is_self_polar(c)
        print("self-polar" if witness else "not self-polar")
        return 0 if witness else 1
    if args.property == "type":
        cls = incidence.classify(c, with_self_polar=True)
        print(cls.describe())
        return 0 if cls.balanced_type is not None else 1
    # decompose
    parts = incidence.decompose(c)
    for i, part in enumerate(parts):
        print(f"component {i}: {incidence.classify(part).describe()}")
        if args.output:
            stem, ext = os.path.splitext(args.output)
            jsonio.save(f"{stem}.{i}{ext}", jsonio.incidence_to_obj(part))
    return 0 if len(parts) > 1 else 1


def _cmd_realize(args) -> int:
    if args.layout is None and args.graph is None:
        raise ParameterError("realize needs a graph or --layout")
    from . import realization

    seed = _seed_of(args)
    if args.layout is not None:
        g = _graph_from(args.graph) if args.graph else None
        n = args.n
        if n is None:
            if g is None:
                raise ParameterError("--layout needs a graph argument or --n")
            if args.layout == "polygon":
                n = g.order
            elif args.layout == "hypercube":
                n = g.order.bit_length() - 1
                if 2**n != g.order:
                    raise ParameterError("hypercube layout needs a graph on 2^d vertices")
            else:
                if g.order % 3:
                    raise ParameterError("gen_cuboctahedron layout needs a graph on 3n vertices")
                n = g.order // 3
        if args.layout == "polygon":
            lay = realization.layout_polygon(n)
        elif args.layout == "hypercube":
            lay = realization.layout_hypercube(n, seed=seed)
        else:
            lay = realization.layout_gen_cuboctahedron(n, args.r1, args.r2)
        if g is not None and (g.order, g.edges) != (lay.graph.order, lay.graph.edges):
            raise ParameterError(
                "graph does not match the parametric layout; build it with gen first"
            )
        residual = realization.unit_edge_residual(lay)
    else:
        g = _graph_from(args.graph)
        lay, residual = realization.solve_unit_distance(
            g, seed=seed, symmetry=args.symmetry
        )
    _emit_artifact(
        jsonio.layout_to_obj(lay),
        args.output,
        f"layout of {lay.graph.order} vertices, max unit-edge deviation {residual:.3e}",
    )
    return 0


def _cmd_circles(args) -> int:
    from . import realization

    lay = jsonio.read(args.layout, "layout")
    tol = realization.TOL_INCIDENCE if args.tol is None else args.tol
    cfg = realization.circles_from_layout(lay, tol=tol, allow_degree_two=args.allow_degree_two)
    return _emit_config(cfg, args.output, f"{len(cfg.circles)} circles,")


def _cmd_check(args) -> int:
    from . import realization

    cfg = realization.check_flags(jsonio.read(args.config, "pcc"))
    for name in ("proper", "isometric", "lineal", "determining", "perfect", "degenerate"):
        print(f"{name}: {'yes' if cfg.flags[name] else 'no'}")
    if args.output:
        jsonio.save(args.output, jsonio.pcc_to_obj(cfg))
    return 0


def _cmd_n3realize(args) -> int:
    from . import realization

    c = _incidence_from(args.structure)
    cfg = realization.realize_n3(c, seed=_seed_of(args))
    return _emit_config(cfg, args.output, f"{len(cfg.circles)} circumcircles,")


def _cmd_invert(args) -> int:
    from . import realization

    if args.pointline.strip() == "pappus":
        from .pappus import derive_pappus_points

        points = derive_pappus_points()
        lines = incidence.pappus_structure().blocks
    else:
        points, lines = jsonio.read(args.pointline, "pointline")
    cfg = realization.invert_pointline(points, lines, tuple(args.center), radius=args.radius)
    return _emit_config(cfg, args.output, f"inverted {len(lines)} lines into circles,")


def _cmd_spatial(args) -> int:
    from . import spatial

    p = spatial.polytope_data(args.polytope)
    if args.what == "planes":
        cfg = spatial.point_plane_vconstruct(p)
        _emit_artifact(
            jsonio.pointplane_to_obj(cfg),
            args.output,
            f"{len(cfg.planes)} neighbourhood planes, max residual {cfg.max_residual:.3e}",
        )
        return 0
    sc = spatial.sphere_circles(p)
    if args.what == "sphere":
        _emit_artifact(
            jsonio.spherical_to_obj(sc),
            args.output,
            f"{len(sc.circles)} sphere circles on radius {sc.radius:.6f}",
        )
        return 0
    cfg, used = spatial.stereographic_project(sc, pole=args.pole, seed=_seed_of(args))
    head = f"projected from pole ({used[0]:.6f}, {used[1]:.6f}, {used[2]:.6f});"
    return _emit_config(cfg, args.output, head)


def _cmd_render(args) -> int:
    from . import realization, render

    art = jsonio.read(args.artifact, "layout", "pcc")
    if isinstance(art, realization.Layout):
        text = render.render_layout(art, labels=args.labels)
    else:
        text = render.render_config(art, labels=args.labels)
    jsonio.write_text(args.output, text)
    print(f"wrote {args.output}")
    return 0


def _cmd_iso(args) -> int:
    from . import iso

    a = _graph_from(args.first)
    b = _graph_from(args.second)
    witness = iso.isomorphic(a, b)
    print("isomorphic" if witness else "not isomorphic")
    return 0 if witness else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="confviz",
        description="Neighbourhood-geometry toolkit: graphs, incidence structures, "
        "point-circle realizations, and spatial configurations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def out(p):
        p.add_argument(
            "-o", "--out", dest="output", help="write the artifact here instead of stdout"
        )

    p = sub.add_parser("gen", help="build a named graph family")
    p.add_argument("family", help="family name or token, e.g. petersen or kneser(7,3)")
    p.add_argument("params", nargs="*", type=int, help="family parameters, e.g. gen kneser 7 3")
    out(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("product", help="cartesian product of two graphs")
    p.add_argument("first")
    p.add_argument("second")
    out(p)
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("linegraph", help="line graph of a graph")
    p.add_argument("graph")
    out(p)
    p.set_defaults(fn=_cmd_linegraph)

    p = sub.add_parser("vconstruct", help="incidence structure of vertex neighbourhoods")
    p.add_argument("graph")
    p.add_argument("--collapse", action="store_true", help="merge duplicate neighbourhoods")
    out(p)
    p.set_defaults(fn=_cmd_vconstruct)

    p = sub.add_parser("verify", help="check a property; exit 0 iff it holds")
    p.add_argument("property", choices=["kronecker", "selfpolar", "type", "decompose"])
    p.add_argument("artifact")
    p.add_argument(
        "-o", "--out", dest="output", help="decompose: write components next to this path"
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("realize", help="unit-distance layout of a graph")
    p.add_argument("graph", nargs="?", help="graph artifact or family token (solver mode)")
    p.add_argument("--symmetry", type=int, help="impose a free cyclic symmetry of this order")
    p.add_argument(
        "--layout",
        choices=["polygon", "hypercube", "gen_cuboctahedron"],
        help="parametric generator instead of solving",
    )
    p.add_argument("--n", type=int, help="size parameter for --layout")
    p.add_argument("--r1", type=float, default=2.0, help="outer ring radius")
    p.add_argument("--r2", type=float, default=1.0, help="inner ring radius")
    p.add_argument("--seed", type=int)
    out(p)
    p.set_defaults(fn=_cmd_realize)

    p = sub.add_parser("circles", help="neighbourhood circles of a unit-distance layout")
    p.add_argument("layout")
    p.add_argument("--tol", type=float)
    p.add_argument("--allow-degree-two", action="store_true")
    out(p)
    p.set_defaults(fn=_cmd_circles)

    p = sub.add_parser("check", help="report configuration flags")
    p.add_argument("config")
    p.add_argument("-o", "--out", dest="output", help="also write the flagged artifact here")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("n3realize", help="triangle realization of a rank-3 structure")
    p.add_argument("structure", help="incidence artifact, or fano / pappus")
    p.add_argument("--seed", type=int)
    out(p)
    p.set_defaults(fn=_cmd_n3realize)

    p = sub.add_parser("invert", help="invert a point-line picture into circles")
    p.add_argument("pointline", help="point-line artifact, or pappus")
    p.add_argument("--center", type=float, nargs=2, required=True, metavar=("X", "Y"))
    p.add_argument("--radius", type=float, default=1.0)
    out(p)
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("spatial", help="polytope planes, sphere circles, projection")
    p.add_argument("polytope", choices=list(graphs.POLYTOPE_NAMES))
    p.add_argument("what", choices=["planes", "sphere", "project"])
    p.add_argument("--pole", type=float, nargs=3, metavar=("X", "Y", "Z"))
    p.add_argument("--seed", type=int)
    out(p)
    p.set_defaults(fn=_cmd_spatial)

    p = sub.add_parser("render", help="deterministic SVG of a layout or configuration")
    p.add_argument("artifact")
    p.add_argument("-o", "--out", dest="output", required=True)
    p.add_argument("--labels", action="store_true")
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("iso", help="test two graphs for isomorphism")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=_cmd_iso)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
