#!/usr/bin/env python3
"""Wall-time comparison of the pure-Python and compiled matching kernels.

Runs the same compiled-rule workloads once per kernel, each in a fresh
subprocess so the import-time kernel selection (TANGLECA_KERNEL) applies
cleanly, and reports ticks, per-kernel seconds, and the speedup.

Usage:
    python3 benchmarks/kernel_bench.py [--repeat N] [--union-size N]
                                       [--overhead-size N]
"""
import argparse
import json
import os
import subprocess
import sys
import time


def workload(union_size, overhead_size):
    from tangleca.bench import overhead_case, union_case

    return [
        ("union-%d" % union_size, union_case(union_size)),
        ("overhead-%d" % overhead_size, overhead_case(overhead_size)),
    ]


def run_worker(args):
    from tangleca import bench, kernel

    if kernel.KERNEL_NAME != args.worker:
        raise SystemExit("expected kernel %r, got %r"
                         % (args.worker, kernel.KERNEL_NAME))
    results = {}
    for name, (source, state) in workload(args.union_size,
                                          args.overhead_size):
        best = None
        ticks = None
        for _ in range(args.repeat):
            start = time.perf_counter()
            stats = bench.run_ticks(source, state)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
            ticks = stats.total
        results[name] = {"ticks": ticks, "seconds": best}
    print(json.dumps({"kernel": kernel.KERNEL_NAME, "results": results}))


def run_kernel(kernel_name, args):
    env = dict(os.environ, TANGLECA_KERNEL=kernel_name)
    cmd = [sys.executable, os.path.abspath(__file__),
           "--worker", kernel_name,
           "--repeat", str(args.repeat),
           "--union-size", str(args.union_size),
           "--overhead-size", str(args.overhead_size)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("worker for kernel %r failed" % kernel_name)
    return json.loads(proc.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3,
                    help="runs per case; the minimum time is reported")
    ap.add_argument("--union-size", type=int, default=48)
    ap.add_argument("--overhead-size", type=int, default=16)
    ap.add_argument("--worker", choices=("python", "cython"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        run_worker(args)
        return 0

    reports = {}
    for kernel_name in ("python", "cython"):
        try:
            reports[kernel_name] = run_kernel(kernel_name, args)
        except SystemExit as exc:
            print("skipping %s kernel: %s" % (kernel_name, exc))
    if "python" not in reports:
        raise SystemExit("pure-Python kernel must always be runnable")

    print("%-14s %10s %12s %12s %9s"
          % ("case", "ticks", "python (s)", "cython (s)", "speedup"))
    for name, _ in workload(args.union_size, args.overhead_size):
        py = reports["python"]["results"][name]
        row = [name, py["ticks"], py["seconds"]]
        if "cython" in reports:
            cy = reports["cython"]["results"][name]
            if cy["ticks"] != py["ticks"]:
                raise SystemExit("kernels disagree on ticks for " + name)
            row += [cy["seconds"], py["seconds"] / cy["seconds"]]
            print("%-14s %10d %12.4f %12.4f %8.2fx" % tuple(row))
        else:
            print("%-14s %10d %12.4f %12s %9s"
                  % (row[0], row[1], row[2], "-", "-"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
