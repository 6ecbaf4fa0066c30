#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs the benchmark command of BENCHMARK.json once per (workload, seed),
then prints, for every end-to-end metric of every workload, the median,
quartiles, min/max and the spread (q3 - q1) / median next to the
metric's bound. Run from the repository root:

    python3 perfbench/steady.py                      # all workloads, seeds 1..10
    python3 perfbench/steady.py --workloads chip_c1 --seeds 1-5
    python3 perfbench/steady.py --save a.json        # keep the raw values
    python3 perfbench/steady.py --compare a.json     # second set vs a saved first set

A spread below a third of the bound reads "steady"; up to the bound,
"within"; beyond it, "NOISY". With --compare, each median is also
checked against the saved set's median: a shift in the worse direction
larger than the bound reads "SHIFT". Quartiles use Python's
statistics.quantiles(values, n=4).
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
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    env = next((json.loads(l)["env"] for l in lines if l.startswith('{"env"')), {})
    return result, env, took


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, help="defaults to run_seconds")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--save", help="write raw results to this JSON file")
    ap.add_argument("--compare", help="raw results of an earlier set")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end" if args.trace == 0 else "per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)

    raw = {}
    for workload in workloads:
        raw[workload] = []
        for seed in seeds:
            result, env, took = run_once(bench["command"], workload, seed, seconds, args.trace)
            raw[workload].append({"seed": seed, "took_s": took, "env": env, "result": result})
            print(f"{workload} seed {seed}: {took:.1f}s attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']}", file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(raw, f, indent=1)

    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    env = next(iter(raw.values()))[0]["env"] if raw else {}
    print(f"# nproc {env.get('nproc')}, cpu {env.get('cpu')}, commit {env.get('commit')}, "
          f"{env.get('rustc')}; seeds {args.seeds}; {seconds}s runs")
    header = f"{'workload':16} {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} " \
             f"{'min':>12} {'max':>12} {'spread':>7} {'bound':>6}  verdict"
    if earlier:
        header += "      shift"
    print(header)
    for workload, runs in raw.items():
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        wrong = sum(not r["result"]["correct"] for r in runs)
        for name, meta in metrics.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = spread(values) if len(values) > 1 else (values[0],) * 3
            rel = (q3 - q1) / med if med else float("inf")
            bound = meta.get("bound")
            verdict = "-"
            if bound is not None:
                verdict = "steady" if rel < bound / 3 else "within" if rel <= bound else "NOISY"
            line = (f"{workload:16} {name:16} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                    f"{min(values):12.6g} {max(values):12.6g} {rel:7.2%} "
                    f"{bound if bound is not None else '-':>6}  {verdict:7}")
            if earlier and workload in earlier:
                before = statistics.median(
                    r["result"]["metrics"][name]["value"] for r in earlier[workload])
                shift = (med - before) / before if before else 0.0
                worse = shift if meta["better"] == "lower" else -shift
                flag = "SHIFT" if bound is not None and worse > bound else "ok"
                line += f" {shift:+7.2%} {flag}"
            print(line)
        print(f"{workload:16} {'operations':16} attempted {attempted}, failed {failed}, "
              f"runs with a wrong output {wrong}")


if __name__ == "__main__":
    main()
