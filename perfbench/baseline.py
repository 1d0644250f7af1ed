#!/usr/bin/env python3
"""Runs the benchmark over many seeds and summarises the spread of each metric.

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 1-10] [--trace-seed 1] [--write]

Run from the repository root. For each workload it runs perfbench/run.py once
per seed with --trace 0 for BENCHMARK.json's run_seconds, and prints, per
end-to-end metric, the median, the quartiles (statistics.quantiles, n=4)
and the spread: the distance between the quartiles as a share of the
median, next to the metric's bound. With --write it also makes one traced
run per workload at --trace-seed and writes everything to
perfbench/BASELINE.json. Exits nonzero if any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    took = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    print(" ".join(l for l in lines if l.startswith("# host speed")), flush=True)
    provenance = next((json.loads(l[len("# provenance "):]) for l in lines
                       if l.startswith("# provenance ")), None)
    if proc.returncode != 0 or not lines:
        sys.exit(f"baseline.py: {workload} seed {seed} trace {trace} failed "
                 f"(exit {proc.returncode})")
    return json.loads(lines[-1]), provenance, took


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int, default=1)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)

    baseline = {"workloads": {}}
    for name in names:
        values = {}
        provenance = None
        for seed in seeds:
            result, provenance, took = run_once(name, seed, seconds, 0)
            print(f"{name} seed {seed}: {took:.1f} s " +
                  " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                  flush=True)
            for k, m in result["metrics"].items():
                values.setdefault(k, {"unit": m["unit"], "runs": []})["runs"].append(m["value"])
        summary = {}
        for k, v in values.items():
            q1, med, q3 = statistics.quantiles(v["runs"], n=4)
            spread = (q3 - q1) / med
            summary[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "unit": v["unit"], "runs": v["runs"]}
            print(f"  {k}: median {med:.6g} {v['unit']}, spread {spread:.3f} "
                  f"(bound {bounds.get(k)})", flush=True)
        entry = {"sweep_workers": provenance["sweep_workers"], "runs": len(seeds),
                 "seeds": seeds, "end_to_end": summary}
        if args.write:
            traced, _, took = run_once(name, args.trace_seed, seconds, 1)
            print(f"{name} traced seed {args.trace_seed}: {took:.1f} s", flush=True)
            entry["per_layer"] = traced["metrics"]
        baseline["workloads"][name] = entry
        baseline["build_type"] = provenance["build_type"]
        baseline["compile"] = provenance["compile"]
        baseline["host"] = {"cpus": provenance["host_cpus"],
                            "affinity_cpus": provenance["host_affinity_cpus"]}

    if args.write:
        baseline["note"] = (f"{len(seeds)} untraced runs per workload at run_seconds {seconds}, one "
                            f"per seed; median, quartiles and spread ((q3 - q1) / median) of "
                            f"the runs' values. Per-layer: one traced run per workload at "
                            f"seed {args.trace_seed}.")
        (BENCH_DIR / "BASELINE.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
