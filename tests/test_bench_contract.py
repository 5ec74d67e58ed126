"""The benchmark's untimed checks still accept what the library builds.

perfbench/ reads configurations through their public fields (for instance
cfg.circles[k].cx and c.r over cfg.circles), so a change to how confviz
holds a circle set must keep those reads working. This runs one repeat of a
few flags and solver items, at the benchmark's seed and at its confirming
seed, and asks each item's own check for problems. Every symmetric solver
item is among them, so a ring solve that stops converging fails here, and
so is every plain product item.
perfbench/ is only read, never changed.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import harness  # noqa: E402
import workloads  # noqa: E402

SEEDS = [3, workloads.CONFIRM_SEED]
ITEMS = [
    ("flags", "hypercube(3)"),
    ("flags", "hypercube(6)"),
    ("flags", "gen_cuboctahedron(6)"),
    ("flags", "gen_cuboctahedron(40)"),
    ("flags", "polygon(64)"),
    ("flags", "project(tetrahedron)"),
    ("flags", "project(cube)"),
    ("flags", "project(dodecahedron)"),
    ("flags", "project(icosahedron)"),
    ("flags", "project(cuboctahedron)"),
    ("flags", "realize_n3(fano)"),
    ("flags", "realize_n3(pappus)"),
    ("flags", "invert(pappus)"),
    ("solver", "petersen() symmetry=5"),
    ("solver", "desargues() symmetry=10"),
    *[("solver", f"gen_petersen({n}, 2) symmetry={n}") for n in (10, 11, 12, 14, 16, 18)],
    # every plain product solve, whose family graph carries its
    # factorization: the check's all-pairs separation test reads each drawing
    # the product fold accepted
    *[("solver", f"prism({n},) plain") for n in range(11, 19)],
    *[("solver", f"gen_petersen({n}, 1) plain") for n in range(11, 19)],
]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload, key", ITEMS)
def test_benchmark_check_accepts_the_output(workload, key, seed, tmp_path):
    items = {item.key: item for item in getattr(workloads, workload)(seed, tmp_path)}
    item = items[key]
    out = item.run(harness.Tracer(False))
    assert item.check(out) == []
