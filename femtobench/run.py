#!/usr/bin/env python3
"""femtobench runner: builds the benchmark, runs one workload in a process
of its own, checks the names of what it reports and prints the result.

  python3 femtobench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 femtobench/run.py --smoke
  python3 femtobench/run.py --make-reference

Run from anywhere inside a checkout of the whole repository.  The build
goes to $CARGO_TARGET_DIR/femtobench (default .bench_build/femtobench).

With --workload, the last line of standard output is one JSON object,
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}},
holding the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) that BENCHMARK.json declares; the exit code is 1 when a check
of the program's output failed.  --trace 0 runs also merge their metrics,
as "<workload>.<metric>", into BENCH_e2e.json at the root of the checkout.

--smoke runs every workload at a tiny size, traced, at FEMTO_THREADS=1 and
4, and fails unless each reports exactly the declared names and units and
no check failed.  --make-reference rewrites femtobench/reference/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "femtobench"
REFERENCE_DIR = BENCH_DIR / "reference"
REFERENCE_SEEDS = (1, 2, 3)
# Every workload runs at nproc = 4 pool threads.
THREADS = 4
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures on first use, then builds incrementally; returns the
    binary.  Fails when the checkout lacks the library sources."""
    # An absolute $CARGO_TARGET_DIR replaces ROOT in the join.
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") \
        / "femtobench"
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"],
                   stdout=sys.stderr, check=True)
    return build_dir / "femtobench"


def run_binary(binary, workload, seed, seconds, traced, smoke, threads):
    out_dir = binary.parent / "out"
    scratch = binary.parent / "scratch"
    out_dir.mkdir(exist_ok=True)
    scratch.mkdir(exist_ok=True)
    out = out_dir / f"{workload}.json"
    if out.exists():
        out.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out),
           "--scratch", str(scratch), "--reference-dir", str(REFERENCE_DIR)]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, FEMTO_THREADS=str(threads), FEMTO_LOG="warn")
    # The library's own tracer stays off: its overhead is not measured here.
    env.pop("FEMTO_TRACE", None)
    subprocess.run(cmd, env=env, stdout=sys.stderr, check=True,
                   timeout=RUN_TIMEOUT_S)
    with open(out) as f:
        return json.load(f)


def name_problems(metrics, declared):
    """Differences between reported and declared names, units and values."""
    problems = []
    for name, unit in declared.items():
        if name not in metrics:
            problems.append(f"{name}: declared but not reported")
        elif metrics[name]["unit"] != unit:
            problems.append(f"{name}: unit {metrics[name]['unit']!r}, "
                            f"declared {unit!r}")
        elif not isinstance(metrics[name]["value"], (int, float)):
            problems.append(f"{name}: value {metrics[name]['value']!r}")
    for name in metrics:
        if name not in declared:
            problems.append(f"{name}: reported but not declared")
    return problems


def declared(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def write_bench_e2e(workload, metrics):
    path = ROOT / "BENCH_e2e.json"
    rows = {}
    if path.exists():
        with open(path) as f:
            rows = json.load(f)
    for name, m in metrics.items():
        rows[f"{workload}.{name}"] = m["value"]
    with open(path, "w") as f:
        json.dump(dict(sorted(rows.items())), f, indent=2)
        f.write("\n")


def run_workload(args, spec):
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"run.py: unknown workload {args.workload!r}")
        return 2
    binary = build()
    res = run_binary(binary, args.workload, args.seed, args.seconds,
                     args.trace == 1, False, THREADS)
    key, metrics = (("per_layer", res["layers"]) if args.trace
                    else ("end_to_end", res["e2e"]))
    problems = name_problems(metrics, declared(spec, key))
    if problems:
        log("run.py: the benchmark's report does not match BENCHMARK.json:")
        for p in problems:
            log("  " + p)
        return 2
    log(f"{args.workload} seed {args.seed}, FEMTO_THREADS={THREADS}, "
        f"{len(res['units']['wall_s'])} units, "
        f"reference {res['reference_source']}, "
        f"failed {res['failed']}/{res['attempted']}")
    for name, m in metrics.items():
        log(f"  {args.workload}.{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        write_bench_e2e(args.workload, metrics)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


def smoke(spec):
    binary = build()
    e2e, layers = declared(spec, "end_to_end"), declared(spec, "per_layer")
    failures = 0
    t0 = time.monotonic()
    for threads in (1, 4):
        for w in spec["workloads"]:
            t = time.monotonic()
            res = run_binary(binary, w["name"], 1, 1, True, True, threads)
            problems = (name_problems(res["e2e"], e2e) +
                        name_problems(res["layers"], layers))
            if res["failed"] or not res["correct"]:
                problems.append(f"{res['failed']} of {res['attempted']} "
                                "operations failed")
            status = "ok" if not problems else "FAIL"
            log(f"smoke {w['name']} FEMTO_THREADS={threads}: {status} "
                f"({time.monotonic() - t:.2f} s)")
            for p in problems:
                log("  " + p)
            failures += bool(problems)
    log(f"smoke: {failures} failures, {time.monotonic() - t0:.1f} s")
    return 1 if failures else 0


def make_reference(spec):
    binary = build()
    REFERENCE_DIR.mkdir(exist_ok=True)
    env = dict(os.environ, FEMTO_THREADS=str(THREADS), FEMTO_LOG="warn")
    for w in spec["workloads"]:
        for seed in REFERENCE_SEEDS:
            subprocess.run([str(binary), "--workload", w["name"],
                            "--seed", str(seed), "--make-reference",
                            "--reference-dir", str(REFERENCE_DIR)],
                           env=env, stdout=sys.stderr, check=True)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--make-reference", action="store_true")
    args = p.parse_args()
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    if args.make_reference:
        return make_reference(spec)
    if not args.workload:
        p.error("--workload, --smoke or --make-reference is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return run_workload(args, spec)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        sys.exit(2)
