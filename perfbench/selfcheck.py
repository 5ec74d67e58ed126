"""Repeatability check: two traced runs with the same seed must agree exactly
on every stage's .calls, .work and .fail, on fail_share and on the output
digest. Times are not compared.

    python3 perfbench/selfcheck.py                    # all workloads, seed 1
    python3 perfbench/selfcheck.py --workload solver --seed 7
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
EXACT = (".calls", ".work", ".fail")


def traced_record(workload: str, seed: int, seconds: float) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600,
    )
    path = ROOT / ".perfbench_out" / f"record-{workload}-seed{seed}-trace1.json"
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    counts = {k: v for k, v in record["stages"].items() if k.endswith(EXACT)}
    return {"digest": record["digest"], "fail_share": record["fail_share"], **counts}


def main() -> int:
    ap = argparse.ArgumentParser(description="two same-seed traced runs must repeat exactly")
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args()
    bad = 0
    for workload in args.workload or WORKLOADS:
        first = traced_record(workload, args.seed, args.seconds)
        second = traced_record(workload, args.seed, args.seconds)
        diffs = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        bad += bool(diffs)
        print(f"{workload} seed {args.seed}: {len(first)} values, "
              + ("all repeat" if not diffs else "DIFFER: " + ", ".join(diffs)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
