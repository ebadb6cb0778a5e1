"""Benchmark two checkouts in alternating pairs and summarise each metric.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent PARENT --change CHANGE \\
        --workload sarmin-ref --pairs 10 --seconds 10 --seed 901 --out BENCH.json

PARENT and CHANGE are checkouts of the repository (``git clone`` or
``git archive`` of two commits). Pair i runs ``bench/run.py --workload W
--seed SEED+i --seconds SECONDS --trace 0`` once in each, each with its own
benchmark code, one at a time; the even pairs run the parent first and the
odd pairs the change first, so that neither side always meets the machine
warmer. ``--workload`` may repeat, and ``--pairs`` may then take one count
per workload.

For every end-to-end metric of the change's ``BENCHMARK.json``, the summary
gives each side's median and quartiles over its runs, the pairs the change
won (ties count for neither side: a pair whose two values differ by less
than ``TIE_RTOL`` of the parent's is a tie, so rounding is no win), and three
verdicts:

* ``gain``: the change won at least nine tenths of the pairs, and its median
  is better than the parent's by more than the parent's interquartile range;
* ``worse_than_bound``: the change's median is worse than the parent's by
  more than the metric's bound (a relative change);
* ``unresolved``: the parent's own interquartile range is wider than the
  bound, so a change within it can be neither shown nor ruled out, unless
  every change run reads better than every parent run.

Every run, with its correctness verdict and failure count, is written too.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
TIE_RTOL = 1e-9


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its last printed line, parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True,
                         timeout=30 * seconds + 600)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    row = {name: m["value"] for name, m in doc["metrics"].items()}
    row.update(correct=doc["correct"], attempted=doc["attempted"], failed=doc["failed"])
    return row


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list, spec: dict) -> dict:
    """The medians, quartiles, wins and verdicts of one metric over the pairs."""
    name, sign = spec["name"], (1.0 if spec["better"] == "higher" else -1.0)
    vals = {side: [r[side][name] for r in runs] for side in SIDES}
    stats = {side: quartiles(vals[side]) for side in SIDES}
    diffs = [(sign * (c - p), TIE_RTOL * abs(p)) for p, c in zip(vals["parent"], vals["change"])]
    wins, losses = sum(d > tie for d, tie in diffs), sum(d < -tie for d, tie in diffs)
    p_med, c_med = stats["parent"]["median"], stats["change"]["median"]
    iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    scale = abs(p_med) if p_med else 1.0
    every_run_better = (min(sign * v for v in vals["change"])
                        > max(sign * v for v in vals["parent"]))
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        **stats, "change_wins": wins, "parent_wins": losses,
        "change_over_parent": c_med / p_med if p_med else None,
        "gain": wins >= 0.9 * len(runs) and sign * (c_med - p_med) > iqr,
        "worse_than_bound": sign * (p_med - c_med) > spec["bound"] * scale,
        "unresolved": iqr > spec["bound"] * scale and not every_run_better,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, nargs="+", default=[10])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=901, help="pair i runs seed SEED+i")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    pairs = args.pairs * len(args.workload) if len(args.pairs) == 1 else args.pairs
    if len(pairs) != len(args.workload) or min(pairs) < 2:
        ap.error("--pairs takes one count of at least 2, or one per workload")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    specs = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    doc = {"seconds": args.seconds,
           "machine": {"python": platform.python_version(), "cpus": len(os.sched_getaffinity(0)),
                       "platform": platform.platform()},
           "workloads": {}}
    for workload, n in zip(args.workload, pairs):
        runs = []
        for i in range(n):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {"seed": args.seed + i, "order": list(order)}
            for side in order:
                run[side] = run_once(checkouts[side], workload, args.seed + i, args.seconds)
            runs.append(run)
            print(f"{workload} pair {i + 1}/{n}: " + ", ".join(
                f"{side} ops_per_s {run[side]['ops_per_s']:.3f}" for side in SIDES),
                file=sys.stderr)
        doc["workloads"][workload] = {
            "pairs": n,
            "metrics": {s["name"]: summarise(runs, s) for s in specs},
            "runs": runs,
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
