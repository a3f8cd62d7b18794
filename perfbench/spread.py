#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, as its acceptance rule measures it.

For every workload in BENCHMARK.json, runs the benchmark command once per
seed and reports, per end-to-end metric, the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median next
to the metric's bound.  A spread below a third of the bound is the target.

    python3 perfbench/spread.py                    # seeds 1-10, all workloads
    python3 perfbench/spread.py --seeds 11-20 --workloads water_sim,serve_mixed
    python3 perfbench/spread.py --trace 1 --seeds 1-2   # per-layer values
    python3 perfbench/spread.py --out spread.json  # also keep every value
                                                   # and each run's meta

Run from the root of the repository.  Also checks that the benchmark prints
exactly the metric names and units BENCHMARK.json lists.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    meta = next((json.loads(l[5:]) for l in lines if l.startswith("meta ")),
                {})
    return json.loads(lines[-1]), meta, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    group = bench["per_layer"] if args.trace else bench["end_to_end"]
    expected = {m["name"]: m["unit"] for m in group}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)

    record = {}
    ok = True
    for w in workloads:
        values = {name: [] for name in expected}
        walls, metas = [], []
        for seed in seeds:
            result, meta, wall = run_once(bench, w, seed, args.trace)
            walls.append(wall)
            metas.append(meta)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                print(f"{w} seed {seed}: metric names/units differ from "
                      f"BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
                ok = False
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
                ok = False
            for name in expected:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {w} seed {seed}: wall {wall:.1f} s  " +
                  "  ".join(f"{n}={result['metrics'][n]['value']:.4g}"
                            for n in list(expected)[:6]), flush=True)
        record[w] = {"seeds": seeds, "wall_s": walls, "values": values,
                     "meta": metas}
        print(f"== {w}: {len(seeds)} runs, wall median "
              f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        for m in group:
            v = values[m["name"]]
            med = statistics.median(v)
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            line = (f"  {m['name']:<28} median {med:12.5g} {m['unit']:<8} "
                    f"Q1 {q1:10.5g}  Q3 {q3:10.5g}  spread {spread:7.3f}")
            if "bound" in m:
                target = m["bound"] / 3
                verdict = "ok" if spread < target else "OVER"
                line += f"  bound {m['bound']:.2f} (target < {target:.3f}) {verdict}"
                if verdict == "OVER":
                    ok = False
                if any(x == 0 for x in v):
                    line += "  ZERO VALUE"
                    ok = False
            print(line)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
