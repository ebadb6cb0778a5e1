"""Time every task of a benchmark workload here and at another commit, task by task.

Usage, from anywhere inside a checkout:

    python3 tools/task_pairs.py REV --workload balance-trial --rounds 3

This checkout (its working tree, uncommitted changes included) and a ``git
worktree`` of REV, set up and removed as ``tools/same_outputs.py`` does, each
run in one long-lived process of their own. That process imports its tree's
``src/`` and ``bench/`` as ``bench/run.py`` does, builds the workload once on
the master seed 909, with BLAS on one thread and ``FAS_THREADS`` unset (so a
sweep runs in that process too), and then runs the tasks it is sent, timing
each in the process's CPU seconds. Each round sends every task of the
workload to both trees, one after the other; the tree that goes first
alternates from task to task and from round to round, so that neither always
meets the machine warmer.

The summary gives the ratio of the two trees' total CPU seconds (this
checkout over REV), the median of the per-task ratios with their quartiles,
and the number of task runs that each side ran faster. The exit status is 0
whatever the outcome: this is a report, not a gate.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_pairs  # noqa: E402
import same_outputs  # noqa: E402

BLAS_VARS = tuple(v for v in same_outputs.THREAD_VARS if v != "FAS_THREADS")


def serve(tree: Path, name: str):
    """The child: build ``name`` in ``tree``, print its task count, then run
    each task index read from stdin and print the CPU seconds it took."""
    sys.path.insert(0, str(tree / "bench"))
    import run  # the tree's bench/run.py; ``build`` imports the tree's src/
    wl = run.build(name, same_outputs.MASTER_SEED)
    print(len(wl.tasks), flush=True)
    for line in sys.stdin:
        task = wl.tasks[int(line)]
        t = time.process_time()
        wl.run(task)
        print(time.process_time() - t, flush=True)


class Tree:
    """One tree's serving process; ``tasks`` reads its task count."""

    def __init__(self, tree: Path, name: str):
        env = {**os.environ, **dict.fromkeys(BLAS_VARS, "1")}
        env.pop("FAS_THREADS", None)
        self.log = tempfile.TemporaryFile(mode="w+")
        self.proc = subprocess.Popen([sys.executable, __file__, "--serve", str(tree), name],
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)

    def tasks(self) -> int:
        return int(self._read())

    def _read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            self.log.seek(0)
            last = (self.log.read().strip().splitlines() or ["exited without output"])[-1]
            raise RuntimeError(last)
        return line

    def time(self, i: int) -> float:
        self.proc.stdin.write(f"{i}\n")
        self.proc.stdin.flush()
        return float(self._read())

    def close(self):
        self.proc.kill()  # idle between tasks, or failed
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.log.close()


def summarise(pairs: list) -> dict:
    """The totals, per-task ratios and wins of ``pairs``, one (here, there)
    pair of CPU seconds per task run (two or more); an equal pair is a win
    for neither."""
    here, there = sum(h for h, _ in pairs), sum(t for _, t in pairs)
    q = bench_pairs.quartiles([h / t for h, t in pairs])
    return {"runs": len(pairs), "here_s": here, "there_s": there, "total_ratio": here / there,
            "ratio_median": q["median"], "ratio_q1": q["q1"], "ratio_q3": q["q3"],
            "here_faster": sum(h < t for h, t in pairs),
            "there_faster": sum(t < h for h, t in pairs)}


def report(s: dict, rev: str) -> str:
    return "\n".join((
        f"CPU seconds of {s['runs']} task runs: here {s['here_s']:.3f}, at {rev} "
        f"{s['there_s']:.3f}; ratio {s['total_ratio']:.4f}",
        f"per-task ratio, here over {rev}: median {s['ratio_median']:.4f}, "
        f"quartiles {s['ratio_q1']:.4f} .. {s['ratio_q3']:.4f}",
        f"faster here: {s['here_faster']}, faster at {rev}: {s['there_faster']}"))


def compare(root: Path, other: Path, name: str, rounds: int) -> list:
    """(here, there) CPU seconds of every task run of ``rounds`` rounds."""
    trees = []
    try:
        for tree in (root, other):
            trees.append(Tree(tree, name))
        here, there = (tree.tasks() for tree in trees)
        if here != there:
            raise RuntimeError(f"{here} tasks here, {there} there")
        pairs = []
        for r in range(rounds):
            for i in range(here):
                order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
                seconds = {side: trees[side].time(i) for side in order}
                pairs.append((seconds[0], seconds[1]))
        return pairs
    finally:
        for tree in trees:
            tree.close()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", nargs="?", help="the commit to compare this checkout with")
    ap.add_argument("--workload", help="a workload of bench/workloads.py")
    ap.add_argument("--rounds", type=int, default=3)
    # the child mode: --serve TREE WORKLOAD, one tree's tasks timed on request
    ap.add_argument("--serve", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.serve:
        serve(Path(args.serve[0]), args.serve[1])
        return 0
    if not args.rev or not args.workload or args.rounds < 1:
        ap.error("REV, --workload and a positive --rounds are required")
    root, sha = same_outputs.resolve(args.rev)
    print(f"{args.workload}: task CPU seconds of this checkout against {sha[:12]}, "
          f"rounds: {args.rounds}")
    try:
        with same_outputs.worktree(root, sha) as other:
            pairs = compare(root, other, args.workload, args.rounds)
    except Exception as exc:  # a report, not a gate
        print(f"not compared: {type(exc).__name__}: {exc}")
        return 0
    print(report(summarise(pairs), sha[:12]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
