"""confviz benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload flags --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; confviz is imported from ./src, never from
an installed copy. With --trace 0 the last stdout line carries the
end-to-end metrics of an untraced run; with --trace 1 it carries the
per-layer metrics of a traced run, plus the tracing overhead measured
against an untraced run of the same items. See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()  # setup is timed from here, before numpy loads

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# numpy links a multithreaded OpenBLAS; one caller on one thread keeps the
# numbers about confviz rather than the scheduler. Set before numpy loads.
THREAD_PINS = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_PINS)

SETUP_REPEATS = 5
WORKLOADS = ("combinatorics", "flags", "solver", "cli_readme")

# Stages reported in the result line, in table order, with the unit of .work.
STAGES = {
    "graphs.build_family": "count",
    "incidence.verify_kronecker_theorem": "count",
    "incidence.v_construct": "count",
    "incidence.classify": "count",
    "incidence.decompose": "count",
    "realization.layout_hypercube": "count",
    "realization.layout_gen_cuboctahedron": "count",
    "realization.layout_polygon": "count",
    "realization.circles_from_layout": "count",
    "realization.check_flags": "count",
    "realization.invert_pointline": "count",
    "realization.realize_n3": "count",
    "realization.solve_unit_distance": "count",
    "realization.unit_edge_residual": "count",
    "spatial.polytope_data": "count",
    "spatial.sphere_circles": "count",
    "spatial.stereographic_project": "count",
    "render.svg": "B",
    "jsonio.write": "B",
    "jsonio.read": "B",
    **{f"cli.{sub}": "B" for sub in (
        "gen", "vconstruct", "verify", "realize", "circles", "check",
        "n3realize", "invert", "spatial", "render", "iso")},
    "cli.import": "count",
}
# Stages some ladder input makes raise today (refusals included).
FALLIBLE = (
    "incidence.verify_kronecker_theorem",
    "incidence.v_construct",
    "incidence.classify",
    "realization.realize_n3",
    "realization.solve_unit_distance",
    "spatial.sphere_circles",
)
OK_RATIO = ("realization.solve_unit_distance", "realization.realize_n3")


def load_confviz():
    """Put ./src first on the path and import the library and the workloads."""
    src = ROOT / "src"
    if not (src / "confviz" / "__init__.py").is_file():
        sys.exit(f"error: no confviz sources under {src}; run from a confviz checkout")
    sys.path.insert(0, str(src))
    import confviz

    if Path(confviz.__file__).resolve().parent != (src / "confviz").resolve():
        sys.exit(f"error: imported confviz from {confviz.__file__}, not from {src}")
    import workloads

    return workloads


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: import, build the inputs, print the seconds since start."""
    wl = load_confviz()
    wl.build(workload, seed, OUT_DIR / "probe")
    print(time.perf_counter() - _T0)


def setup_seconds(workload: str, seed: int, harness) -> tuple[float, float]:
    """Median setup time over fresh interpreters, at reference speed and
    raw. Set-up is mostly interpreter start and imports, so it is scaled by
    the spawn kernel, which runs before each of them."""
    raw, speed = [], harness.Speed(*harness.KERNELS["spawn"])
    for _ in range(SETUP_REPEATS):
        speed.sample()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        raw.append(float(done.stdout.split()[-1]))
    return statistics.median(raw) * speed.scale(), statistics.median(raw)


def summarize(outcomes) -> dict:
    verdicts = [o.verdict for o in outcomes]
    return {v: verdicts.count(v) for v in ("ok", "limit", "wrong", "error")}


def end_to_end(outcomes, setup_s: float, peak_rss_mb: float, harness) -> tuple[dict, str]:
    times = [o.seconds for o in outcomes]
    counts = summarize(outcomes)
    tail_s, pct = harness.tail(times)
    metrics = {
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_s.p50": (statistics.median(times), "s"),
        "item_s.tail": (tail_s, "s"),
        "ok_share": (counts["ok"] / len(times), "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    note = f"item_s.tail is p{pct:.1f} of {len(times)} items; fail_share {1 - counts['ok'] / len(times):.4f}"
    return metrics, note


def per_layer(spans, harness) -> tuple[dict, list[str]]:
    items = [sp for sp in spans if sp.name == "item"]
    busy_items = sum(sp.end - sp.start for sp in items)
    self_s = harness.self_times(spans)
    rows, metrics = [], {}
    for name in list(STAGES) + sorted({sp.name for sp in spans} - set(STAGES) - {"item"}):
        mine = [sp for sp in spans if sp.name == name]
        calls, fail = len(mine), sum(not sp.ok for sp in mine)
        busy = sum(sp.end - sp.start for sp in mine)
        work = sum(sp.work for sp in mine)
        if name in STAGES:
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.work"] = (work, STAGES[name])
            metrics[f"{name}.busy_share"] = (100.0 * busy / busy_items, "%")
            if name in FALLIBLE:
                metrics[f"{name}.fail"] = (fail, "count")
            if name in OK_RATIO:
                metrics[f"{name}.ok_ratio"] = ((calls - fail) / calls if calls else 0.0, "ratio")
        if calls:
            rows.append(f"  {name:<38} {calls:>6} {fail:>5} {work:>12} {busy:>10.4f} "
                        f"{self_s.get(name, 0.0):>10.4f} {100.0 * busy / busy_items:>7.2f}")
    rows.insert(0, f"  {'stage':<38} {'calls':>6} {'fail':>5} {'work':>12} {'busy_s':>10} "
                   f"{'self_s':>10} {'busy%':>7}")
    rows.append(f"  {'(harness inside items)':<38} {len(items):>6} {'':>5} {'':>12} "
                f"{busy_items:>10.4f} {self_s.get('item', 0.0):>10.4f}")
    metrics["items.busy_s"] = (busy_items, "s")
    return metrics, rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    wl = load_confviz()
    import harness
    import numpy

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir()
    try:
        items = wl.build(args.workload, args.seed, work_dir)
        passes = max(1, int(args.seconds // wl.NOMINAL_PASS_S[args.workload]))
        stamp = harness.env_stamp(ROOT, args.seed, numpy.__version__, THREAD_PINS)
        stamp["confirm_seed"] = wl.CONFIRM_SEED
        print("env " + json.dumps(stamp, sort_keys=True))
        t0 = time.perf_counter()
        tracer = harness.Tracer(bool(args.trace))
        speed = harness.Speed(*harness.KERNELS[wl.KERNEL[args.workload]])
        outcomes, digests = harness.run_passes(items, passes, tracer, speed)
        factor = speed.scale()
        wall = time.perf_counter() - t0
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_readme" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    counts = summarize(outcomes)
    failed = counts["wrong"] + counts["error"]
    steady = len(set(digests)) == 1
    busy = sum(sum(o.raw) + (o.traced_rep[1] - o.traced_rep[0] if o.traced_rep else 0.0)
               for o in outcomes)
    print(f"{args.workload}: {len(items)} items x {len(digests)} passes in {wall:.2f} s "
          f"({busy:.2f} s inside items); "
          f"ok {counts['ok']}, limit {counts['limit']}, wrong {counts['wrong']}, error {counts['error']}")
    print(f"digest sha256 {digests[0]}" + ("" if steady else f" (passes differ: {sorted(set(digests))})"))
    for o in outcomes[: len(items)]:
        if o.verdict != "ok":
            print(f"  {o.verdict:<5} {o.key}: {o.detail}")

    record = {"workload": args.workload, "env": stamp, "passes": len(digests), "speed": factor,
              "digest": digests[0], "counts": counts,
              "fail_share": 1 - counts["ok"] / len(outcomes),
              "item_s": [[o.key, o.verdict, o.raw, o.samples, o.traced, o.reps] for o in outcomes],
              "kernel": list(zip(speed.at, speed.samples))}
    if args.trace:
        plain, traced = {}, {}
        for o in outcomes:
            plain.setdefault(o.key, []).extend(o.samples)
            if o.traced is not None:
                traced[o.key] = o.traced
        both = {k for k in traced if plain[k]}  # items that also ran plain
        plain_s = sum(statistics.median(plain[k]) for k in both)
        traced_s = sum(traced[k] for k in both)
        metrics, rows = per_layer(tracer.spans, harness)
        metrics["trace.overhead_share"] = (100.0 * (traced_s / plain_s - 1.0) if both else 0.0, "%")
        print(f"{len(both)} items with plain repeats: traced {traced_s:.4f} s vs median plain "
              f"{plain_s:.4f} s, "
              f"tracing overhead {metrics['trace.overhead_share'][0]:+.2f} %")
        print("\n".join(rows))
        record["stages"] = {k: v[0] for k, v in metrics.items()}
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for sp in tracer.spans:
                fh.write(json.dumps(sp.__dict__) + "\n")
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        setup_s, raw_setup_s = setup_seconds(args.workload, args.seed, harness)
        metrics, note = end_to_end(outcomes, setup_s, peak_rss_mb, harness)
        print(note)
        raw_busy = sum(statistics.median(o.raw) for o in outcomes)
        print(f"speed factor {factor:.4f}; unscaled: items_per_s {len(outcomes) / raw_busy:.6g}, "
              f"setup_s {raw_setup_s:.6g}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<14} {value:.6g} {unit}")
    record["metrics"] = {k: v[0] for k, v in metrics.items()}
    with open(OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": failed == 0 and steady,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
