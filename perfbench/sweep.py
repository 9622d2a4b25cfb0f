#!/usr/bin/env python3
"""Run the benchmark over several seeds and keep every run's output as
a result set that :mod:`compare` reads.

Usage (from the root of a checkout)::

    python3 perfbench/sweep.py --out .perfbench/results/A \\
        --seeds 1-10 [--workload safe_clients ...] [--trace 0]

Each run's standard output lands in ``<out>/<workload>-seed<n>-trace<t>.out``;
a run that exits non-zero is reported and its output kept. The run
length comes from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    bad = 0
    for name in args.workload or names:
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            path = os.path.join(args.out, f"{name}-seed{seed}-trace{args.trace}.out")
            with open(path, "w") as fh:
                fh.write(proc.stdout)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
            print(f"{name} seed {seed}: {status} {last[0][:200]}", flush=True)
            if proc.returncode != 0:
                bad += 1
                sys.stderr.write(proc.stderr[-4000:])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
