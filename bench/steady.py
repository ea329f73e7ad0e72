"""Steadiness check: two sets of runs of the same code, compared per metric.

    python3 bench/steady.py [--runs 10] [--workload NAME ...] [--first-seed 1]

Reads the command, run length, workloads and bounds from BENCHMARK.json
at the root of the checkout, and runs each workload ``--runs`` times per
set, one seed per run: set A takes seeds ``first-seed`` onwards and set
B the seeds after them.  For every workload and end-to-end metric it
prints each set's median and quartiles, the spread (quartile distance
over median) of each set and of both together, and whether

* the spread of each set is within the metric's bound, and
* the two medians differ by no more than the bound, in either
  direction: both sets run the same code.

It also checks that the share of failed operations is the same in every
run.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def one_run(spec: dict, workload: str, seed: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in names:
        sets = []
        for s in range(2):
            results = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                res = one_run(spec, workload, seed)
                print(f"{workload} set {'AB'[s]} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)
                results.append(res)
            sets.append(results)
        shares = {(r["failed"], r["attempted"]) for rs in sets for r in rs}
        share_set = {f / a for f, a in shares}
        same_share = len(share_set) == 1
        ok &= same_share and all(r["correct"] for rs in sets for r in rs)
        print(f"\n{workload}: failed share {'same' if same_share else 'DIFFERS'} "
              f"in every run: {sorted(share_set)}")
        print(f"  {'metric':14s} {'A q1/med/q3':>30s} {'B q1/med/q3':>30s} "
              f"{'spreadA':>8s} {'spreadB':>8s} {'spread':>7s} {'B-A':>7s} {'bound':>6s}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets[0]]
            b = [r["metrics"][name]["value"] for r in sets[1]]
            qa, qb = quartiles(a), quartiles(b)
            spread_a = (qa[2] - qa[0]) / qa[1]
            spread_b = (qb[2] - qb[0]) / qb[1]
            qall = quartiles(a + b)
            spread_all = (qall[2] - qall[0]) / qall[1]
            change = qb[1] / qa[1] - 1
            steady = max(spread_a, spread_b) <= bound
            agree = abs(change) <= bound
            ok &= steady and agree
            print(f"  {name:14s} {'/'.join(f'{x:.4g}' for x in qa):>30s} "
                  f"{'/'.join(f'{x:.4g}' for x in qb):>30s} {spread_a:8.3f} {spread_b:8.3f} "
                  f"{spread_all:7.3f} {change:+7.3f} {bound:6.2f}  "
                  f"{'ok' if steady and agree else 'NOT STEADY' if not steady else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
