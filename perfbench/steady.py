#!/usr/bin/env python3
"""Steadiness check for perfbench.

Runs each workload of BENCHMARK.json several times, each with another seed,
and prints per end-to-end metric the median, the quartiles and the
interquartile spread as a share of the median, beside the metric's bound.
Run it from the root of a checkout:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads serve-gateway --first-seed 101

Quartiles are statistics.quantiles(values, n=4). With --compare FILE the
medians are also set against an earlier --out FILE of the same shape.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: outputs not correct")
    return result, time.time() - start


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--out", default="", help="write the summary as JSON")
    ap.add_argument("--compare", default="", help="an earlier --out to set medians against")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    summary = {}
    for w in names:
        values = {m: [] for m in bounds}
        shares = set()
        for i in range(args.runs):
            seed = args.first_seed + i
            res, wall = run_once(bench["command"], w, seed, bench["run_seconds"])
            shares.add((res["failed"], res["attempted"]))
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print(f"{w} seed={seed} wall={wall:.0f}s attempted={res['attempted']} failed={res['failed']}",
                  flush=True)
        fail_shares = sorted({f / a for f, a in shares})
        print(f"\n{w}: failed share per run: {fail_shares}")
        print(f"{'metric':20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  ok")
        summary[w] = {}
        for m, spec in bounds.items():
            v = values[m]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            gated = m != "setup_s"
            ok = "yes" if spread <= spec["bound"] / 3 else ("bound" if spread <= spec["bound"] else "NO")
            if not gated:
                ok = "-"
            line = f"{m:20} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {spec['bound']:6.2f}  {ok}"
            if w in earlier and m in earlier[w]:
                prev = earlier[w][m]["median"]
                worse = (med - prev) / prev if spec["better"] == "lower" else (prev - med) / prev
                line += f"  vs earlier {prev:.4f}: {worse:+.3f} worse" + (" NO" if worse > spec["bound"] else "")
            print(line)
            summary[w][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": v}
        summary[w]["failed_share"] = fail_shares
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
