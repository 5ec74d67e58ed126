"""Measurement plumbing shared by the workloads: stage tracer, item loop,
summary statistics, output digest and environment stamp."""

from __future__ import annotations

import bisect
import gc
import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

# Outcomes of one item. "limit" is a documented error on a ladder input known
# to hit it today; it counts against ok_share but is not a misbehaviour.
OK, LIMIT, WRONG, ERROR = "ok", "limit", "wrong", "error"


@dataclass
class Span:
    name: str
    start: float
    end: float
    item: int | None
    parent: int | None  # index of the enclosing span; items have None
    ok: bool
    work: int


class Tracer:
    """Times each call the benchmark makes into confviz.

    Disabled, a call goes straight through and only the current stage name is
    kept (to say where an item failed). Enabled, every call leaves one span in
    memory whose parent is the current item's span; `work` is then evaluated
    on the call's result (None if it raised) to give the stage's exact
    input-size count.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.item: int | None = None
        self.item_span: int | None = None
        self.stage = ""

    def begin_item(self, item: int) -> None:
        self.item, self.stage = item, ""
        if self.enabled:
            self.item_span = len(self.spans)
            self.spans.append(Span("item", time.perf_counter(), 0.0, item, None, True, 0))

    def end_item(self, end: float, ok: bool) -> None:
        if self.enabled:
            span = self.spans[self.item_span]
            span.end, span.ok = end, ok

    def call(self, name: str, fn: Callable, *args, work: Callable[[Any], int], **kwargs):
        self.stage = name
        if not self.enabled:
            return fn(*args, **kwargs)
        out, ok = None, False
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            end = time.perf_counter()
            self.record(name, start, end, ok, _work(work, out if ok else None))

    def record(self, name: str, start: float, end: float, ok: bool, work: int, parent=None) -> int | None:
        """Add a span; also used for spans measured by a child process."""
        self.stage = name
        if not self.enabled:
            return None
        parent = self.item_span if parent is None else parent
        self.spans.append(Span(name, start, end, self.item, parent, ok, int(work)))
        return len(self.spans) - 1


def _work(work: Callable[[Any], int], out) -> int:
    try:
        return int(work(out))
    except (AttributeError, TypeError):  # an output-based count of a call that raised
        return 0


@dataclass
class Item:
    """One unit of work: `run` is the timed pipeline, `check` the untimed
    output check returning a list of problems. `refusal` names the
    (stage, error) the input calls for; `limit` the (stage, error) the input
    is known to hit today. The pipeline runs `reps` times per pass."""

    key: str
    run: Callable[[Tracer], Any]
    check: Callable[[Any], list[str]]
    refusal: tuple[str, type] | None = None
    limit: tuple[str, type] | None = None
    reps: int = 1


# ---------------------------------------------------------------------------
# machine speed
#
# On a shared host the speed of the same code swings as other tenants come
# and go: it switches between a fast and a slow level that each last for
# seconds, and the mix drifts over minutes. A fixed kernel, timed before
# every repeat, measures that speed. Each repeat is scaled by the kernel's
# reference time over its median time within WINDOW_S of the repeat, which
# reports it at the host's reference speed. A short repeat is scaled by the
# host's speed around it; a long one, by its speed over its whole length.
# The kernels do not depend on confviz, so a change to confviz moves the
# scaled times exactly as it moves the raw ones.
#
# Kinds of work slow down by different ratios between the two levels:
# pure-Python graph work (and the `combinatorics` items) by about 1.65,
# numpy passes over whole arrays by about 1.5, many numpy calls on single
# points by about 1.9, and the `flags` items, which mix graph work and such
# calls, by about 1.8. So each workload has the kernel whose ratio is
# closest to that of the items that set its numbers (see KERNELS). Work in
# fresh processes (a CLI command, the set-up) is mostly interpreter start
# and imports; its kernel is a fresh interpreter that imports numpy.

WINDOW_S = 1.0
_CAL_N = 300
_CAL_ADJ = [tuple(sorted({(i * 7 + j * 13 + j * j) % _CAL_N for j in range(1, 7)} - {i}))
            for i in range(_CAL_N)]
_CAL_PTS = np.random.default_rng(0).uniform(size=(60, 2))


def graph_kernel(rounds: int = 6) -> int:
    """Tuple, set and dict work on a fixed 300-vertex graph."""
    total = 0
    for shift in range(1, 2 * rounds, 2):
        seen, order = set(), []
        for root in range(_CAL_N):
            if root in seen:
                continue
            stack = [root]
            seen.add(root)
            while stack:
                v = stack.pop()
                order.append(v)
                for w in _CAL_ADJ[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        sets = [frozenset(a) for a in _CAL_ADJ]
        index = {b: i for i, b in enumerate(sorted(_CAL_ADJ))}
        total += len(order) + len(index) + sum(len(sets[i] & sets[(i + shift) % _CAL_N])
                                               for i in range(_CAL_N))
    return total


def numeric_kernel() -> float:
    """Half graph work, half numpy calls on single points."""
    total = float(graph_kernel(3))
    for i in range(300):
        a, b = _CAL_PTS[i % 60], _CAL_PTS[(i * 7) % 60]
        d = b - a
        n = np.hypot(d[0], d[1])
        total += float(np.sqrt(abs(1.0 - n * n)) + np.dot(d, d))
    return total


def array_kernel() -> float:
    """Half graph work, half numpy passes over whole 60-point arrays."""
    total = float(graph_kernel(3))
    for _ in range(10):
        d = np.linalg.norm(_CAL_PTS[:, None, :] - _CAL_PTS[None, :, :], axis=2)
        total += float(d[np.triu_indices(len(_CAL_PTS), 1)].min())
    return total


def spawn_kernel() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


# kernel and its time at the reference speed
KERNELS = {
    "graph": (graph_kernel, 0.0025),
    "numeric": (numeric_kernel, 0.0022),
    "array": (array_kernel, 0.004),
    "spawn": (spawn_kernel, 0.2),
}


class Speed:
    """Times of one kernel taken through a run, each with the moment
    (perf_counter) it was taken; `reference_s` is its time at the
    reference speed."""

    def __init__(self, kernel: Callable[[], Any], reference_s: float):
        self.kernel, self.reference_s = kernel, reference_s
        self.at: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.at.append((start + end) / 2.0)
        self.samples.append(end - start)

    def factor(self, start: float, end: float) -> float:
        """Factor to reference speed for work done from `start` to `end`.
        The kernel runs right before and right after every repeat, so the
        window is never empty."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return self.reference_s / statistics.median(self.samples[lo:hi])

    def scale(self) -> float:
        """Factor to reference speed over all samples."""
        return self.reference_s / statistics.median(self.samples)


@dataclass
class Outcome:
    key: str
    verdict: str = OK
    detail: str = ""
    reps: list[tuple[float, float]] = field(default_factory=list)  # untraced (start, end)
    traced_rep: tuple[float, float] | None = None
    samples: list[float] = field(default_factory=list)  # untraced repeat times at reference speed
    traced: float | None = None
    ending: tuple[str, str] | None = None  # (stage, error) the first repeat raised

    @property
    def raw(self) -> list[float]:
        return [end - start for start, end in self.reps]

    @property
    def seconds(self) -> float:
        """Item time: the median of its untraced repeats at reference speed.
        On this kind of host the fastest repeat is an outlier as often as
        the slowest, so the minimum repeats worse than the median."""
        return statistics.median(self.samples) if self.samples else self.traced

    def rescale(self, speed: Speed) -> None:
        self.samples = [(end - start) * speed.factor(start, end) for start, end in self.reps]
        if self.traced_rep is not None:
            start, end = self.traced_rep
            self.traced = (end - start) * speed.factor(start, end)


def run_rep(item: Item, rep: int, outcome: Outcome, index: int, t: Tracer, speed: Speed,
            digest) -> None:
    """Time one repeat of the item's pipeline under tracer `t`. The first
    repeat's output is judged and digested untimed; later repeats must end
    the same way."""
    speed.sample()
    gc.collect()
    t.begin_item(index)
    start = time.perf_counter()
    try:
        out, exc = item.run(t), None
    except Exception as e:  # judged below against the item's expectations
        out, exc = None, e
    end = time.perf_counter()
    ending = (t.stage, type(exc).__name__) if exc is not None else None
    if rep == 0:
        outcome.ending = ending
        outcome.verdict, outcome.detail = _judge(item, out, exc, t.stage, digest)
    elif ending != outcome.ending:
        outcome.verdict, outcome.detail = ERROR, f"repeat {rep} ended {ending}, first {outcome.ending}"
    t.end_item(end, outcome.verdict == OK)
    if t.enabled:
        outcome.traced_rep = (start, end)
    else:
        outcome.reps.append((start, end))


def _judge(item: Item, out, exc, stage: str, digest) -> tuple[str, str]:
    if exc is not None:
        digest.update(f"{item.key}: {stage} raised {type(exc).__name__}\n".encode())
        raised = (stage, type(exc))
        if raised == item.refusal:
            return OK, ""
        if raised == item.limit:
            return LIMIT, f"{stage}: {type(exc).__name__}"
        return ERROR, f"{stage}: {type(exc).__name__}: {exc}"
    if item.refusal is not None:
        return WRONG, f"expected {item.refusal[1].__name__} refusal"
    for blob in out["artifacts"]:
        digest.update(_bytes_of(blob))
    problems = item.check(out)
    return (WRONG, "; ".join(problems)) if problems else (OK, "")


def _bytes_of(artifact) -> bytes:
    if isinstance(artifact, Path):
        return artifact.read_bytes() if artifact.exists() else b"<missing>"
    return artifact.encode() if isinstance(artifact, str) else artifact


def run_passes(items: list[Item], passes: int, tracer: Tracer,
               speed: Speed) -> tuple[list[Outcome], list[str]]:
    """Closed loop, one caller: each item starts when the previous one ends.

    Within a pass, the repeats of each item are spread evenly over the pass:
    repeat r of an item with R repeats runs in the r-th R-th of it, in ladder
    order. So an item's repeats land seconds apart, and cheap repeats are
    interleaved with dear ones instead of bunched at the end. With an enabled
    tracer only the last repeat in the last pass is traced. Returns one
    outcome per item and pass, and one SHA-256 per pass over all output
    bytes. `speed` samples its kernel before every repeat and after the last."""
    outcomes, digests, plain = [], [], Tracer(False)
    # What is alive now (modules, inputs) is never garbage; frozen, it is not
    # rescanned by the collection run_rep makes before each repeat.
    gc.freeze()
    n = len(items)
    schedule = sorted((rep / item.reps + i / (n * item.reps), i, rep)
                      for i, item in enumerate(items) for rep in range(item.reps))
    for p in range(passes):
        digest = hashlib.sha256()
        mine = [Outcome(item.key) for item in items]
        for _, i, rep in schedule:
            item = items[i]
            t = tracer if p == passes - 1 and rep == item.reps - 1 else plain
            run_rep(item, rep, mine[i], len(outcomes) + i, t, speed, digest)
        outcomes.extend(mine)
        digests.append(digest.hexdigest())
    speed.sample()  # brackets the last repeat
    for outcome in outcomes:
        outcome.rescale(speed)
    return outcomes, digests


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float], beyond: int = 10) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least `beyond` samples above
    it: returns (value, percentile). Needs more than `beyond` samples."""
    s = sorted(values)
    k = len(s) - beyond
    if k < 1:
        raise ValueError(f"tail needs more than {beyond} samples, got {len(s)}")
    return s[k - 1], 100.0 * k / len(s)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: its length minus that of its child spans.
    The "item" entry is the harness's own time inside items."""
    covered = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] += sp.end - sp.start
    out: dict[str, float] = {}
    for sp, child in zip(spans, covered):
        out[sp.name] = out.get(sp.name, 0.0) + (sp.end - sp.start - child)
    return out


# ---------------------------------------------------------------------------
# provenance


def src_digest(root: Path) -> str:
    """SHA-256 over the package sources, an id for the code even where the
    checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = root / "src" / "confviz"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def commit_of(root: Path) -> str:
    if not (root / ".git").exists():
        return "n/a (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "n/a (git unavailable)"
    return done.stdout.strip() or "n/a"


def env_stamp(root: Path, seed: int, numpy_version: str, pins: dict[str, str]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit_of(root),
        "src_sha256": src_digest(root),
        "threads": pins,
    }
