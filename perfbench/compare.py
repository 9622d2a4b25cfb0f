#!/usr/bin/env python3
"""Summarise one result set, or compare two, against the bounds in
``BENCHMARK.json``.

Usage (from the root of a checkout)::

    python3 perfbench/compare.py OLD_DIR [NEW_DIR]

A result set is a directory of run outputs as :mod:`sweep` writes
them. For every workload and end-to-end metric it prints the median and
quartiles of each set and the spread (quartile distance over median).
It flags a spread wider than the metric's bound (except for
``setup_s``), and with two sets a metric whose new median is worse than
the old one by more than the bound.
The deterministic counters of traced runs are compared exactly, run
against run of the same workload and seed. Any wrong verdict or failed
operation is flagged too. The exit code is 1 when anything is flagged.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> list[dict]:
    """Every run in ``directory``: its record and its result."""
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        try:
            record = next(json.loads(line[len("record: "):]) for line in lines
                          if line.startswith("record: "))
            result = json.loads(lines[-1])
        except (StopIteration, ValueError):
            print(f"FLAG {path}: no result")
            continue
        runs.append({"path": path, "record": record, "result": result})
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sets = [load(d) for d in argv]
    flags = 0
    for runs in sets:
        for run in runs:
            res = run["result"]
            if not res["correct"] or res["failed"]:
                print(f"FLAG {run['path']}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}")
                flags += 1

    for w in bench["workloads"]:
        name = w["name"]
        print(f"== {name}")
        for m in bench["end_to_end"]:
            row, medians = [], []
            for runs in sets:
                values = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                          if r["record"]["workload"] == name and not r["record"]["trace"]
                          and m["name"] in r["result"]["metrics"]]
                if not values:
                    row.append("      (no runs)")
                    medians.append(None)
                    continue
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else 0.0
                # Set-up time is gated on its median only.
                mark = " WIDE" if spread > m["bound"] and m["name"] != "setup_s" else ""
                flags += bool(mark)
                row.append(f"n={len(values):2d} median {q2:10.4f} "
                           f"[{q1:.4f}, {q3:.4f}] spread {spread:6.1%}{mark}")
                medians.append(q2)
            line = f"  {m['name']:12s} {m['unit']:>3s} (bound {m['bound']:.0%}): " + \
                " | ".join(row)
            if len(sets) == 2 and None not in medians:
                old, new = medians
                worse = (new - old) / old if m["better"] == "lower" else (old - new) / old
                line += f" | change {worse:+.1%} worse"
                if worse > m["bound"]:
                    line += " REGRESSION"
                    flags += 1
            print(line)

    if len(sets) == 2:
        old = {(r["record"]["workload"], r["record"]["seed"]): r["record"]
               for r in sets[0] if r["record"]["trace"]}
        for r in sets[1]:
            rec = r["record"]
            key = (rec["workload"], rec["seed"])
            if not rec["trace"] or key not in old:
                continue
            a, b = old[key].get("deterministic", {}), rec.get("deterministic", {})
            for counter in sorted(set(a) | set(b)):
                if a.get(counter) != b.get(counter):
                    print(f"FLAG counter {counter} on {key[0]} seed {key[1]}: "
                          f"{a.get(counter)} -> {b.get(counter)}")
                    flags += 1
    print(f"{flags} flagged")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
