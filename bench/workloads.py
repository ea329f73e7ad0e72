"""The benchmark's three workloads: inputs made from the seed, one operation each.

Every workload is a closed loop with one client: one operation at a
time, in one process (``pgm-cli`` also runs one CLI child at a time).
A round is the fixed list of operations ``Workload.ops_for_round``
gives; the seed changes the values of the inputs, never their sizes, so
every round of every run does the same amount of work up to the values.

``run`` times one operation and returns what it produced; ``judge``
checks a produced output with :mod:`checks`, which shares no code with
``isotree``.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
from isotree import io as iio
from isotree import mono, oracle, pipeline
from isotree import tree as itree

OK, FAILED, INCORRECT = "ok", "failed", "incorrect"
CHILD_TIMEOUT_S = 150


class Op:
    """One operation of a round: its input and what checking it needs."""

    def __init__(self, label: str, graph: checks.Graph, payload, fault: str | None = None):
        self.label = label
        self.graph = graph
        self.sites = graph.n
        self.payload = payload
        self.fault = fault


def attempt(fn, *args):
    """Result of a program call, or the name of the exception it raised.

    An operation keeps making its calls after one of them fails, so a
    fix to one fault does not change how much work the operation does.
    """
    try:
        return fn(*args)
    except Exception as exc:  # the program's failure is data here
        return type(exc).__name__


def build(tr, sg):
    """``build_iso_tree``; stage by stage, with counts, when tracing."""
    if not tr.on:
        return pipeline.build_iso_tree(sg)
    tr.count("count.sites", len(sg.graph))
    tr.count("count.pairs", len(sg.graph.pairs))
    rp = tr.call("pipeline.perturb_rank", pipeline.perturb_rank, sg)
    jt = tr.call("pipeline.sublevel_merge_tree", pipeline.sublevel_merge_tree, sg, rp)
    st = tr.call("pipeline.superlevel_merge_tree", pipeline.superlevel_merge_tree, sg, rp)
    ct = tr.call("pipeline.merge_to_augmented_ct", pipeline.merge_to_augmented_ct, jt, st)
    ranked = tr.call("pipeline.ct_to_iso_tree", pipeline.ct_to_iso_tree, sg, rp, ct)
    tree = tr.call("pipeline.reduce_by_f", pipeline.reduce_by_f, sg, ranked)
    tr.count("count.contour_edges", len(ct.edges))
    lower = dict.fromkeys(ct.sites, 0)
    upper = dict.fromkeys(ct.sites, 0)
    for lo, hi in ct.edges:
        upper[lo] += 1
        lower[hi] += 1
    tr.count("count.minima", sum(1 for p in ct.sites if lower[p] == 0))
    tr.count("count.maxima", sum(1 for p in ct.sites if upper[p] == 0))
    tr.count("count.saddles", sum(1 for p in ct.sites if lower[p] > 1 or upper[p] > 1))
    tr.count("count.cut_site_refs", sum(len(e.cut.low) for e in ranked.edges))
    tr.count("count.zones", len(tree.zones))
    tr.count("count.tree_edges", len(tree.edges))
    tr.count("count.contracted_edges", len(ranked.edges) - len(tree.edges))
    return tree


def compare_with_build(tr, sg, staged) -> None:
    """Traced runs: the staged result must equal ``build_iso_tree``'s."""
    if not tr.on:
        return
    ref = attempt(tr.call, "pipeline.build_iso_tree", pipeline.build_iso_tree, sg)
    tr.count("count.stage_checks", 1)
    if not (ref == staged):
        tr.count("count.stage_mismatches", 1)


def peak_mb(fn, *args):
    """Result of ``fn`` and the peak of Python allocations made during it."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def probe_memory(sg) -> dict[str, float]:
    """Peak allocations of the two stages that hold the cut data."""
    rp = pipeline.perturb_rank(sg)
    ct = pipeline.merge_to_augmented_ct(
        pipeline.sublevel_merge_tree(sg, rp), pipeline.superlevel_merge_tree(sg, rp)
    )
    ranked, ct_mb = peak_mb(pipeline.ct_to_iso_tree, sg, rp, ct)
    tree = pipeline.reduce_by_f(sg, ranked)
    del ranked, ct
    _, json_mb = peak_mb(iio.tree_to_json, tree)
    return {"pipeline.ct_to_iso_tree.peak_mb": ct_mb, "io.tree_to_json.peak_mb": json_mb}


def spawn(argv: list[str], env: dict, stderr=None):
    """Run a child to its end: (exit code, its resource usage).

    ``wait4`` blocks until the child exits, so the time around this call
    is not rounded up to a polling interval; a timer kills a child that
    hangs.
    """
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=stderr)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def graph_doc(graph: checks.Graph, values, pairs=None) -> str:
    """The JSON graph document of ``graph``, with ``values`` as written;
    the adjacency is ``pairs`` or, by default, the graph's own."""
    ids = graph.ids
    if pairs is None:
        pairs = ((ids[i], ids[j]) for i, j in graph.pairs())
    return json.dumps(
        {
            "sites": [{"id": i, "value": v} for i, v in zip(ids, values)],
            "adjacency": [[p, q] for p, q in pairs],
        }
    )


def grid_op(w: int, h: int, values, fault: str | None = None) -> Op:
    """A tri-grid input, or a path when ``h`` is 1, as a JSON document.

    Ids are zero-padded so that their order is the row-major order.
    Float values are checked as the exact decimals the document holds.
    """
    if h == 1:
        ids = [f"p{i:0{len(str(w - 1))}d}" for i in range(w)]
        label = f"path {w}"
    else:
        d = len(str(max(w, h) - 1))
        ids = [f"r{r:0{d}d}c{c:0{d}d}" for r in range(h) for c in range(w)]
        label = f"grid {w}x{h}"
    exact = [Fraction(repr(v)) if isinstance(v, float) else v for v in values]
    graph = checks.Graph.tri_grid(ids, w, h, exact)
    return Op(label, graph, graph_doc(graph, values), fault)


def judge_records(wl, records):
    """(verdict, reason) per record.  Repeated inputs are judged once and
    later outputs must be identical to the judged one."""
    first: dict[int, tuple] = {}
    out = []
    for r, k, op, outcome in records:
        if wl.fresh_rounds or r == 0:
            verdict = wl.judge(r, k, op, outcome)
            first[k] = (outcome, verdict)
        elif outcome == first[k][0]:
            verdict = first[k][1]
        else:
            verdict = (INCORRECT, "output differs from round 0 on the same input")
        out.append(verdict)
    return out


class Workload:
    name = ""
    tail_pct = 75  # highest percentile with at least ten operations beyond it
    in_process = True
    # False: every round repeats the inputs of round 0, and a later output
    # is checked by being identical to round 0's.  True: every round
    # draws new inputs of the same sizes, and every output is checked.
    fresh_rounds = False

    def __init__(self, seed: int, work: Path, tracer):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.work = work
        self.tr = tracer
        self.ops: list[Op] = []
        self.child_rss_kb = 0
        self.env = dict(os.environ, PYTHONPATH=str(Path(iio.__file__).parents[1]))

    def setup_argv(self) -> list[str]:
        """A fresh interpreter until ``isotree`` is ready."""
        return [sys.executable, "-c", "import isotree"]

    def ops_for_round(self, r: int) -> list[Op]:
        return self.ops

    def largest(self) -> Op:
        return max((op for op in self.ops if op.fault is None), key=lambda op: op.sites)


# ---------------------------------------------------------------------------
# pgm-cli: `isotree build --format pgm` in a child process
# ---------------------------------------------------------------------------

# (width, height, magic, maxval): P5 8-bit, P5 16-bit and P2, square and
# not.  Equal sizes come in groups so that the median of a run's 42
# operations falls inside the 40x40 group and its 75th percentile inside
# the 48x48 group, not on the edge between two sizes.
PGM_ROUND = [
    (32, 32, "P5", 255),
    (32, 40, "P2", 255),
    (40, 32, "P5", 65535),
    (36, 36, "P2", 1023),
    (32, 36, "P5", 255),
    (40, 40, "P5", 255),
    (40, 40, "P2", 255),
    (40, 40, "P5", 65535),
    (40, 40, "P2", 1023),
    (48, 48, "P5", 65535),
    (48, 48, "P2", 1023),
    (48, 48, "P5", 255),
    (64, 48, "P5", 255),
    (64, 64, "P5", 255),
]
PGM_LEVELS = 24
PGM_NOISE = 0.02
PGM_JITTER = 0.03


def smooth_field(rng: random.Random, w: int, h: int, maxval: int) -> list[int]:
    """Hills and valleys on a jittered 3x3 lattice, quantized to
    PGM_LEVELS plateaus, then a few pixels nudged by one grey level.

    The lattice keeps the number of extrema, and so the size of the
    contour tree, about the same from seed to seed.
    """
    bumps = []
    for i in range(3):
        for j in range(3):
            x = (j + 0.5 + rng.uniform(-PGM_JITTER, PGM_JITTER)) * w / 3
            y = (i + 0.5 + rng.uniform(-PGM_JITTER, PGM_JITTER)) * h / 3
            s = 0.19 * min(w, h) * rng.uniform(1 - PGM_JITTER, 1 + PGM_JITTER)
            a = (-1) ** (i + j) * rng.uniform(1 - PGM_JITTER, 1)
            bumps.append((x, y, 2 * s * s, a))
    raw = [
        sum(a * math.exp(-((c - x) ** 2 + (r - y) ** 2) / v) for x, y, v, a in bumps)
        for r in range(h)
        for c in range(w)
    ]
    lo, hi = min(raw), max(raw)
    step = maxval // (PGM_LEVELS - 1)
    pixels = []
    for v in raw:
        q = round((v - lo) / (hi - lo) * (PGM_LEVELS - 1)) * step
        if rng.random() < PGM_NOISE:
            q = min(maxval, max(0, q + rng.choice((-1, 1))))
        pixels.append(q)
    return pixels


def pgm_bytes(w: int, h: int, magic: str, maxval: int, pixels: list[int]) -> bytes:
    head = f"{magic}\n# benchmark input\n{w} {h}\n{maxval}\n"
    if magic == "P2":
        rows = (" ".join(map(str, pixels[r * w : (r + 1) * w])) for r in range(h))
        return (head + "\n".join(rows) + "\n").encode()
    if maxval < 256:
        return head.encode() + bytes(pixels)
    return head.encode() + b"".join(v.to_bytes(2, "big") for v in pixels)


class PgmCli(Workload):
    name = "pgm-cli"
    in_process = False
    fresh_rounds = True

    def __init__(self, seed, work, tracer):
        super().__init__(seed, work, tracer)
        (work / "one.pgm").write_bytes(pgm_bytes(1, 1, "P5", 255, [0]))
        self.ops = self.ops_for_round(0)

    def ops_for_round(self, r: int) -> list[Op]:
        if r == 0 and self.ops:
            return self.ops
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        ops = []
        for k, (w, h, magic, maxval) in enumerate(PGM_ROUND):
            pixels = smooth_field(rng, w, h, maxval)
            path = self.work / f"in-{r}-{k}.pgm"
            path.write_bytes(pgm_bytes(w, h, magic, maxval, pixels))
            ids = [f"r{row}c{col}" for row in range(h) for col in range(w)]
            graph = checks.Graph.tri_grid(ids, w, h, pixels)
            ops.append(Op(f"{w}x{h} {magic}/{maxval}", graph, path))
        return ops

    def cli(self, src: Path, out: Path) -> list[str]:
        return [sys.executable, "-m", "isotree", "build", "--input", str(src),
                "--format", "pgm", "--output", str(out)]

    def setup_argv(self):
        return self.cli(self.work / "one.pgm", self.work / "one.json")

    def run(self, r: int, k: int, op: Op):
        out = self.work / f"out-{r}-{k}.json"
        tr = self.tr
        start = perf_counter()
        with tr.span("bench.op"):
            code = tr.call("cli.build", self._child, self.cli(op.payload, out), r, k)
        seconds = perf_counter() - start
        data = out.read_bytes() if code == 0 else b""
        if tr.on:
            self._trace_in_process(op, data)
        return seconds, code, len(data)

    def _child(self, argv, r: int, k: int) -> int:
        with open(self.work / f"stderr-{r}-{k}.txt", "wb") as err:
            code, usage = spawn(argv, self.env, err)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return code

    def _trace_in_process(self, op: Op, cli_output: bytes) -> None:
        """The CLI's path, one module call at a time, in this process."""
        tr = self.tr
        w, h, pixels = tr.call("io.parse_pgm", iio.parse_pgm, op.payload.read_bytes())
        sg = tr.call("mono.gen_tri_grid", mono.gen_tri_grid, w, h, pixels)
        staged = attempt(build, tr, sg)
        if not isinstance(staged, str):
            text = tr.call("io.tree_to_json", iio.tree_to_json, staged)
            tr.count("cli_doc.checks", 1)
            if (text + "\n").encode() != cli_output:
                tr.count("cli_doc.mismatches", 1)
        compare_with_build(tr, sg, staged)

    def judge(self, r: int, k: int, op: Op, code) -> tuple[str, str]:
        if code != 0:
            err = (self.work / f"stderr-{r}-{k}.txt").read_text(errors="replace").strip()
            return failure(op, f"exit {code}: {err[-200:]}")
        return _level_check(op, (self.work / f"out-{r}-{k}.json").read_bytes())

    def sg_of(self, op: Op):
        return iio.load_pgm_tri_grid(op.payload.read_bytes())


def failure(op: Op, why: str) -> tuple[str, str]:
    """A call that raised or exited non-zero: failed on an input kept for
    a named fault, and a wrong result on any other input, where every
    call must succeed."""
    if op.fault:
        return FAILED, why
    return INCORRECT, f"unexpected failure: {why}"


def _level_check(op: Op, text) -> tuple[str, str]:
    try:
        checks.check_level_tree(op.graph, text)
    except checks.CheckError as exc:
        return INCORRECT, str(exc)
    return OK, ""


# ---------------------------------------------------------------------------
# json-roundtrip: load, build, write, read back, reconstruct, compare
# ---------------------------------------------------------------------------

# (width, height); height 1 is a path.  As in PGM_ROUND, the 24x24
# grids hold the median of a run's 57 operations and the 32x32 grids its
# 75th percentile.
JSON_ROUND = [
    (16, 16), (250, 1), (20, 20), (400, 1), (16, 24), (24, 16),
    (24, 24), (24, 24), (24, 24), (24, 24), (24, 24), (24, 24),
    (700, 1),
    (32, 32), (32, 32), (32, 32), (32, 32),
    (1200, 1), (48, 48),
]


class JsonRoundtrip(Workload):
    name = "json-roundtrip"

    def __init__(self, seed, work, tracer):
        super().__init__(seed, work, tracer)
        for w, h in JSON_ROUND:
            n = w * h
            # Values from a range ten times the site count: nearly all distinct.
            self.ops.append(grid_op(w, h, [self.rng.randrange(10 * n) for _ in range(n)]))

    def run(self, r: int, k: int, op: Op):
        start = perf_counter()
        with self.tr.span("bench.op"):
            result = attempt(self._roundtrip, op.payload)
        seconds = perf_counter() - start
        if isinstance(result, str):
            return seconds, (result, None), 0
        sg, tree, text, same = result
        compare_with_build(self.tr, sg, tree)
        if r == 0:
            (self.work / f"out-{k}.json").write_text(text)
        return seconds, (same, sha(text)), len(text)

    def _roundtrip(self, doc: str):
        tr = self.tr
        sg = tr.call("io.load_graph_json", iio.load_graph_json, doc)
        tree = build(tr, sg)
        text = tr.call("io.tree_to_json", iio.tree_to_json, tree)
        back = tr.call("io.parse_tree_json", iio.parse_tree_json, text)
        rec = tr.call("tree.reconstruct_rt", itree.reconstruct_rt, sg.graph, back)
        return sg, tree, text, rec.values == sg.values

    def judge(self, r: int, k: int, op: Op, outcome) -> tuple[str, str]:
        same, _ = outcome
        if isinstance(same, str):
            return failure(op, f"raised {same}")
        if not same:
            return INCORRECT, "reconstructed values differ from the input"
        return _level_check(op, (self.work / f"out-{k}.json").read_bytes())

    def sg_of(self, op: Op):
        return iio.load_graph_json(op.payload)


# ---------------------------------------------------------------------------
# small-exact: exhaustive layers on graphs of at most 14 sites
# ---------------------------------------------------------------------------

# (width, height); height 1 is a path.  Up to 10 sites, 12 sites, 14
# sites: the median of a round falls among the 12-site inputs and the
# 95th percentile among the 14-site grids.
SMALL_SHAPES = [
    (5, 1), (2, 3), (8, 1), (2, 5),
    (3, 4), (4, 3), (2, 6), (6, 2), (3, 4),
    (14, 1), (2, 7), (7, 2),
]
SMALL_CYCLES = 20  # each cycle is one input of every shape above
SMALL_HIGH = 3  # integer values 0..3, so ties are common

# Inputs that fail today, the same in every run (they do not use the seed).
# 2-decimal values: float gap arithmetic raises NotATreeError.
DECIMAL_GRIDS = 6  # 3x4 grids drawn from random.Random("decimal-fault")
DECIMAL_PATH = [5.16, -9.19, -0.28, 9.36, 1.7, 0.09, -7.2, 2.37]
# Cycles are not mono-connected; `build` must reject them, but it returns
# edges that are not level cuts (C4, C6, the first C8) or raises
# InternalInconsistencyError (C5, C7, the second C8).
NON_MONO_CYCLES = [
    [6, 9, 0, 9],
    [0, 5, 3, 5, 3],
    [5, 3, 2, 8, 7, 8],
    [2, 9, 8, 2, 7, 9, 8],
    [6, 2, 1, 3, 9, 5, 0, 3],
    [0, 2, 7, 7, 2, 8, 3, 2],
]


class SmallExact(Workload):
    name = "small-exact"
    tail_pct = 95

    def __init__(self, seed, work, tracer):
        super().__init__(seed, work, tracer)
        rng = self.rng
        for _ in range(SMALL_CYCLES):
            for w, h in SMALL_SHAPES:
                self.ops.append(grid_op(w, h, [rng.randint(0, SMALL_HIGH) for _ in range(w * h)]))
        fixed = random.Random("decimal-fault")
        for _ in range(DECIMAL_GRIDS):
            values = [round(fixed.uniform(-10, 10), 2) for _ in range(12)]
            self.ops.append(grid_op(3, 4, values, "decimal"))
        self.ops.append(grid_op(len(DECIMAL_PATH), 1, DECIMAL_PATH, "decimal"))
        for values in NON_MONO_CYCLES:
            n = len(values)
            ids = [f"c{i}" for i in range(n)]
            pairs = [(ids[i], ids[(i + 1) % n]) for i in range(n)]
            graph = checks.Graph.from_pairs(ids, pairs, values)
            self.ops.append(Op(f"cycle C{n}", graph, graph_doc(graph, values, pairs), "non-mono"))
        self.kept: dict[int, str] = {}

    def run(self, r: int, k: int, op: Op):
        tr = self.tr
        start = perf_counter()
        with tr.span("bench.op"):
            sg = tr.call("io.load_graph_json", iio.load_graph_json, op.payload)
            witness = tr.call("mono.is_mono_connected", mono.is_mono_connected, sg.graph)
            tree = attempt(build, tr, sg)
            slow = attempt(tr.call, "oracle.brute_force_iso_tree", oracle.brute_force_iso_tree, sg)
            text = same = rt_same = None
            if not isinstance(tree, str):
                text = tr.call("io.tree_to_json", iio.tree_to_json, tree)
                same = tr.call("tree.IsoTree.eq", operator.eq, tree, slow)
                rt = attempt(tr.call, "tree.reconstruct_rt", itree.reconstruct_rt, sg.graph, tree)
                rt_same = rt if isinstance(rt, str) else rt.values == sg.values
        seconds = perf_counter() - start
        tr.count("count.bipartitions_scanned", 1 << (op.sites - 1))
        compare_with_build(tr, sg, tree)
        if r == 0:
            self.kept[k] = text
        outcome = (
            witness.verdict,
            tree if isinstance(tree, str) else None,
            None if text is None else sha(text),
            slow if isinstance(slow, str) else None,
            same,
            rt_same,
        )
        return seconds, outcome, 0 if text is None else len(text)

    def judge(self, r: int, k: int, op: Op, outcome) -> tuple[str, str]:
        verdict, build_error, _, oracle_error, same, rt_same = outcome
        mono_truth, lows = checks.brute_force(op.graph)
        if op.fault == "non-mono":
            if mono_truth or verdict is not False:
                return INCORRECT, "mono-connectivity verdict disagrees with the brute force"
            if build_error == oracle_error == "PreconditionError":
                return OK, ""
            return FAILED, f"build_iso_tree gave {build_error or 'a tree'}, not a rejection"
        if not mono_truth or verdict is not True:
            return INCORRECT, "mono-connectivity verdict disagrees with the brute force"
        if build_error or oracle_error:
            return failure(op, f"raised {build_error or oracle_error}")
        if same is not True:
            problem = "pipeline and oracle trees differ"
        elif rt_same is not True:
            problem = f"reconstruct_rt gave {rt_same}"
        else:
            try:
                checks.check_exact_tree(op.graph, self.kept[k], lows)
                return OK, ""
            except checks.CheckError as exc:
                problem = str(exc)
        return INCORRECT, problem

    def sg_of(self, op: Op):
        return iio.load_graph_json(op.payload)


WORKLOADS = {w.name: w for w in (PgmCli, JsonRoundtrip, SmallExact)}
