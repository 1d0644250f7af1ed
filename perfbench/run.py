#!/usr/bin/env python3
"""Benchmark of the ASF/TM simulator: builds perfbench/ and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--held-out]

Run from the repository root (or any checkout of it). The first run
configures and builds the simulator and the asfbench program into
$CARGO_TARGET_DIR (default .bench_build) under the checkout. Each run prints
a provenance header, one line per metric, and, as the last line, a JSON
object with the keys correct, attempted, failed and metrics. The exit code
is 0 only when every job validated, every result repeated across passes,
every traced self-check held, and (unless --held-out) every reference-seed
digest matched perfbench/reference_digests.json. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("fig5-slice-serial", "stamp-fig4-sweep", "intset-contended")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds asfbench; returns (binary, build dir)."""
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "asfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir / "asfbench", build_dir


def source_digest():
    """SHA-256 over the simulator and benchmark sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py", ".json"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_revision():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def compile_flags(build_dir):
    """The exact compiler command line of asfbench.cc."""
    try:
        commands = json.loads((build_dir / "compile_commands.json").read_text())
    except (OSError, ValueError):
        return None
    for entry in commands:
        if entry.get("file", "").endswith("perfbench/asfbench.cc"):
            args = shlex.split(entry["command"])
            flag_prefixes = ("-O", "-g", "-f", "-m", "-W", "-std", "-D")
            keep = [a for a in args[1:] if a.startswith(flag_prefixes)]
            return {"compiler": args[0], "flags": " ".join(keep)}
    return None


def provenance(args, result, build_dir):
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "build_type": BUILD_TYPE,
        "compile": compile_flags(build_dir),
        "host_cpus": os.cpu_count(),
        "host_affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "sweep_workers": result["workers"],
        "seed": args.seed,
        "sim_seed": result["sim_seed"],
        "held_out": args.held_out,
        "trace": args.trace,
        "passes": result["passes"],
    }


def reference_failures(result):
    """Reference-seed jobs whose result differs from reference_digests.json."""
    ref = result.get("reference")
    if ref is None:
        return []
    expected = json.loads((BENCH_DIR / "reference_digests.json").read_text())[result["workload"]]
    if expected["seed"] != ref["seed"] or len(expected["jobs"]) != len(ref["jobs"]):
        return [f"reference grid of {result['workload']} changed shape"] * len(ref["jobs"])
    return [f"{want['label']}: digest {got['digest']} != reference {want['digest']}"
            for want, got in zip(expected["jobs"], ref["jobs"]) if got != want]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--held-out", action="store_true",
                        help="run at a seed no development run uses; skips the reference digests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "harness" / "sweep.h").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")

    try:
        binary, build_dir = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.held_out:
        cmd.append("--held-out")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"asfbench did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"asfbench exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    mismatches = reference_failures(result)
    failures = result["failures"] + mismatches
    failed = result["failed"] + len(mismatches)
    attempted = result["attempted"]

    print("# provenance " + json.dumps(provenance(args, result, build_dir), sort_keys=True))
    print(f"# {args.workload}: {result['passes']} passes, {time.monotonic() - start:.1f} s")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    walls = result["pass_wall_s"]
    if walls:
        print(f"# pass wall time over {len(walls)} passes: min {min(walls):.4g} s, "
              f"max {max(walls):.4g} s")
    if "host_slowdown" in result:
        print(f"# host speed: probe {result['host_slowdown']:.4g}x its reference reading; "
              f"median pass wall time as measured {result['host_wall_s']:.4g} s")
    ratio = failed / attempted if attempted else 1.0
    print(f"failed_jobs_ratio = {ratio:.6g} ({failed}/{attempted})")
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)

    correct = failed == 0 and attempted >= 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
