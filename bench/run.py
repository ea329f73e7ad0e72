"""Benchmark for isotree: one run of one workload, one JSON line of metrics.

    python3 bench/run.py --workload pgm-cli --seed 1 --seconds 25 --trace 0

Run from a checkout: the program is imported from ``src/`` next to this
directory, and the CLI children get the same ``src/`` on PYTHONPATH.
With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run.
See ``bench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
from bisect import bisect_right
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Set-up launches are spread over the run, one at least this often, so
# that their median covers the same machine conditions as the operations.
SETUP_EVERY_S = 1.0
SETUP_MIN_LAUNCHES = 15
# With at least 40 operations, the 75th percentile has ten beyond it.
MIN_OPS = 40
# Every time is reported in reference seconds: the measured time scaled
# by how fast the machine ran a fixed reference at that moment.  A
# shared virtual machine can change speed by a third or more within
# seconds, and every kind of work slows together; the scaling cancels
# that drift, while a change to the program, which leaves the reference
# untouched, still moves the figures in full.  Operations are scaled by
# ``ref_loop`` timed just before and after them, set-up launches by a
# bare ``python3 -c pass`` launched just before each.  The constants are
# the two references on a 2-vCPU x86-64 VM at its fast stretches, so a
# reference second is about a second there.
REF_LOOP_N = 300_000
REF_LOOP_S = 0.020
REF_LAUNCH_S = 0.038
SPEED_EVERY_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "ksites_per_s": "ksites/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}
SPANS = [
    "cli.build",
    "io.parse_pgm",
    "mono.gen_tri_grid",
    "io.load_graph_json",
    "pipeline.perturb_rank",
    "pipeline.sublevel_merge_tree",
    "pipeline.superlevel_merge_tree",
    "pipeline.merge_to_augmented_ct",
    "pipeline.ct_to_iso_tree",
    "pipeline.reduce_by_f",
    "pipeline.build_iso_tree",
    "io.tree_to_json",
    "io.parse_tree_json",
    "tree.reconstruct_rt",
    "tree.IsoTree.eq",
    "mono.is_mono_connected",
    "oracle.brute_force_iso_tree",
    "bench.op",
]
COUNTS = [
    "count.sites",
    "count.pairs",
    "count.contour_edges",
    "count.minima",
    "count.maxima",
    "count.saddles",
    "count.cut_site_refs",
    "count.zones",
    "count.tree_edges",
    "count.contracted_edges",
    "count.output_bytes",
    "count.bipartitions_scanned",
    "count.stage_checks",
    "count.stage_mismatches",
]
PEAKS = ["pipeline.ct_to_iso_tree.peak_mb", "io.tree_to_json.peak_mb"]


def ref_loop() -> float:
    """Seconds this machine takes for a fixed pure-Python loop."""
    start = perf_counter()
    acc = 0
    for i in range(REF_LOOP_N):
        acc += i * i % 7
    return perf_counter() - start


class Speed:
    """The machine's speed through the run, from ``ref_loop`` timed at
    least every SPEED_EVERY_S between operations."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.loop_s: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.loop_s.append(ref_loop())
        self.at.append(perf_counter())

    def maybe(self) -> None:
        if perf_counter() - self.at[-1] >= SPEED_EVERY_S:
            self.sample()

    def scale(self, t: float) -> float:
        """Factor from seconds measured at time ``t`` to reference seconds:
        the loop's reference time over its mean time in the samples just
        before and just after ``t``."""
        i = bisect_right(self.at, t)
        return REF_LOOP_S / statistics.fmean(self.loop_s[max(i - 1, 0) : i + 1])


class SetupSampler:
    """Times fresh launches of the program until ``isotree`` is ready,
    each right after a bare interpreter launch that serves as its
    reference.

    The first launch writes the bytecode caches and is not counted.
    """

    def __init__(self, argv: list[str] | None, env: dict, spawn):
        self.argv, self.env, self.spawn = argv, env, spawn
        self.bare = [sys.executable, "-c", "pass"]
        self.raw: list[float] = []
        self.ratios: list[float] = []
        self.last = perf_counter()
        if argv:
            self._launch(self.argv)

    def _launch(self, argv: list[str]) -> float:
        start = perf_counter()
        code, _ = self.spawn(argv, self.env)
        self.last = perf_counter()
        if code != 0:
            raise RuntimeError(f"set-up launch {argv} exited {code}")
        return self.last - start

    def _sample(self) -> None:
        bare = self._launch(self.bare)
        self.raw.append(self._launch(self.argv))
        self.ratios.append(self.raw[-1] / bare)

    def maybe(self) -> None:
        if self.argv and perf_counter() - self.last >= SETUP_EVERY_S:
            self._sample()

    def median(self) -> float:
        """Median launch time in reference seconds."""
        while len(self.ratios) < SETUP_MIN_LAUNCHES:
            self._sample()
        return statistics.median(self.ratios) * REF_LAUNCH_S


class Tally:
    """Operation start times, measured times and sites, for one kind of round."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.raw: list[float] = []
        self.sites = 0

    def times(self, speed: Speed) -> list[float]:
        """Operation times in reference seconds."""
        return [secs * speed.scale(t) for t, secs in zip(self.starts, self.raw)]

    def ksites_per_s(self, speed: Speed) -> float:
        return self.sites / sum(self.times(speed)) / 1000


def run_rounds(wl, seconds: float, trace: bool, setup: SetupSampler, speed: Speed):
    """Whole rounds until the time is up; traced runs alternate plain and
    traced rounds so that both are measured under the same conditions.

    Returns the number of rounds, the two tallies, the bytes of tree
    documents written, and one ``(round, index, op, outcome)`` per
    operation.
    """
    plain, traced = Tally(), Tally()
    records = []
    out_bytes = 0
    rounds = 0
    start = perf_counter()
    while True:
        wl.tr.on = trace and rounds % 2 == 1
        tally = traced if wl.tr.on else plain
        for k, op in enumerate(wl.ops_for_round(rounds)):
            setup.maybe()
            speed.maybe()
            if wl.in_process:
                # Start every operation from a collected heap, so that the
                # garbage of the one before does not land in its time.
                gc.collect()
            tally.starts.append(perf_counter())
            secs, outcome, nbytes = wl.run(rounds, k, op)
            tally.raw.append(secs)
            tally.sites += op.sites
            out_bytes += nbytes
            records.append((rounds, k, op, outcome))
            wl.tr.count("count.output_bytes", nbytes)
        rounds += 1
        elapsed = perf_counter() - start
        per_round = elapsed / rounds
        if trace:
            if rounds % 2 == 0 and elapsed + 2 * per_round > seconds:
                break
        elif len(plain.raw) >= MIN_OPS and elapsed + per_round > seconds:
            break
    wl.tr.on = False
    speed.sample()
    return rounds, plain, traced, out_bytes, records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "isotree" / "__init__.py").is_file():
        print(f"error: no isotree sources in {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    if not Path(workloads.iio.__file__).resolve().is_relative_to(SRC):
        print(f"error: isotree was imported from outside {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    (ROOT / "bench" / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / "bench" / ".work"))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work, Tracer())
        setup = SetupSampler(None if args.trace else wl.setup_argv(), wl.env, workloads.spawn)
        speed = Speed()
        rounds, plain, traced, out_bytes, records = run_rounds(
            wl, args.seconds, bool(args.trace), setup, speed
        )
        if wl.in_process:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = wl.child_rss_kb
        setup_s = None if args.trace else setup.median()
        verdicts = workloads.judge_records(wl, records)
        peaks = workloads.probe_memory(wl.sg_of(wl.largest())) if args.trace else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = 0
    incorrect = []
    for (r, _, op, _), (verdict, why) in zip(records, verdicts):
        if verdict == workloads.FAILED:
            failed += 1
            if r == 0 or wl.fresh_rounds:
                print(f"failed  round {r} {op.label} [{op.fault}]: {why}")
        elif verdict == workloads.INCORRECT:
            incorrect.append(op.label)
            print(f"WRONG   round {r} {op.label}: {why}")
    print(f"{args.workload}: {rounds} rounds of {len(wl.ops)} operations, seed {args.seed}")

    if args.trace:
        n_ops = len(traced.raw)
        self_s = wl.tr.self_times(speed.scale)
        metrics = {f"{name}.s": (self_s.get(name, 0.0) / n_ops, "s") for name in SPANS}
        traced_rounds = rounds // 2
        for name in COUNTS:
            metrics[name] = (wl.tr.counts[name] // traced_rounds, "count")
        for name in PEAKS:
            metrics[name] = (peaks[name], "MB")
        overhead = (plain.ksites_per_s(speed) / traced.ksites_per_s(speed) - 1) * 100
        metrics["trace.overhead_pct"] = (overhead, "%")
        checked, mismatched = wl.tr.counts["count.stage_checks"], wl.tr.counts["count.stage_mismatches"]
        print(f"stage-by-stage pipeline equals build_iso_tree: {checked - mismatched} of {checked}")
        if mismatched:
            incorrect.append("stage-by-stage pipeline")
        docs, doc_mismatched = wl.tr.counts["cli_doc.checks"], wl.tr.counts["cli_doc.mismatches"]
        if docs:
            print(f"CLI documents equal in-process tree_to_json bytes: {docs - doc_mismatched} of {docs}")
        if doc_mismatched:
            incorrect.append("CLI document")
    else:
        times = plain.times(speed)
        values = {
            "setup_s": setup_s,
            "ksites_per_s": plain.ksites_per_s(speed),
            "op_s.p50": statistics.median(times),
            "op_s.tail": statistics.quantiles(times, n=100, method="inclusive")[wl.tail_pct - 1],
            "peak_rss_mb": peak_kb / 1024,
            "output_mb": out_bytes / rounds / 1e6,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        print(f"op_s.tail is the {wl.tail_pct}th percentile of {len(times)} operations")
        print(f"measured, unscaled: op_s.p50 {statistics.median(plain.raw):.4g} s, "
              f"setup_s {statistics.median(setup.raw):.4g} s")
    loops = speed.loop_s
    print(f"reference loop: median {statistics.median(loops) * 1000:.4g} ms, "
          f"{min(loops) * 1000:.4g} to {max(loops) * 1000:.4g} ms over {len(loops)} samples "
          f"(reference {REF_LOOP_S * 1000:g} ms)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    result = {
        "correct": not incorrect,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
