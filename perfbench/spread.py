#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median and spread (interquartile range over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) against the
bound ``BENCHMARK.json`` fixes for it.

Run from the repository root:

    python3 perfbench/spread.py --workloads ml_16k,serve_mix --seeds 5

The runs go round the workloads seed by seed, so a spell in which a
shared host slows everything lands on one or two seeds of every workload
rather than on most seeds of one. Each run's ``host:`` line (the CPU
share the hypervisor stole) is kept with it.

Spreads above a third of a bound are flagged ``noisy``; above the bound
itself, ``FAIL`` (``setup_s`` is exempt from the spread rule). Pass
``--out FILE`` to keep every run's JSON line for a later comparison.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    host = next((l.strip() for l in lines if l.strip().startswith("host:")), "")
    return json.loads(lines[-1]), wall, host


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out", help="append every run's result here (JSON lines)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    out = open(args.out, "a") if args.out else None
    values = {w: {} for w in workloads}
    walls = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            result, wall, host = run_once(bench["command"], w, seed,
                                          bench["run_seconds"], args.trace)
            walls[w].append(wall)
            if out:
                out.write(json.dumps({"workload": w, "seed": seed,
                                      "wall_s": wall, "host": host,
                                      **result}) + "\n")
                out.flush()
            if not result["correct"]:
                raise SystemExit(f"{w} seed {seed}: outputs failed their checks")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
    worst = "ok"
    for w in workloads:
        ws = walls[w]
        print(f"== {w}: {len(ws)} runs, wall {min(ws):.1f}-{max(ws):.1f} s")
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    flag, worst = "FAIL", "FAIL"
                elif spread > bound / 3:
                    flag = "noisy"
                    worst = "noisy" if worst == "ok" else worst
            b = f"{bound:.3f}" if bound is not None else "  -  "
            print(f"  {name:<28} median {med:>14.6g}  spread {spread:7.4f}  bound {b}  {flag}")
    print(f"overall: {worst}")


if __name__ == "__main__":
    main()
