"""Report whether the benchmark's outputs are the same, bit for bit, at another commit.

Usage, from anywhere inside a checkout:

    python3 tools/same_outputs.py REV

Every task of every workload that ``BENCHMARK.json`` lists runs once,
serially, in this checkout (its working tree, uncommitted changes included)
and in a ``git worktree`` of REV, which is removed afterwards. Each tree runs
in a process of its own, which imports that tree's ``src/`` and ``bench/`` as
``bench/run.py`` does, with BLAS on one thread and ``FAS_THREADS=1``, and
builds the workloads on the master seed 909, as ``bench/run.py`` does by
default. The sha256 of each task's ``fingerprint()`` is compared across the
trees; the tasks that differ are printed. The exit status is 0 whatever the
outcome: this is a report, not a gate.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MASTER_SEED = 909
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "FAS_THREADS")


def digests(tree: Path, names: list) -> dict:
    """{workload: {task label: sha256 of its fingerprint}} in ``tree``, or
    {workload: {"error": message}} where a workload could not be run."""
    sys.path.insert(0, str(tree / "bench"))
    import run  # the tree's bench/run.py; ``build`` imports the tree's src/
    out = {}
    for name in names:
        try:
            wl = run.build(name, MASTER_SEED)
            out[name] = {wl.label(task): hashlib.sha256(
                repr(wl.fingerprint(task, wl.run(task))).encode()).hexdigest()
                for task in wl.tasks}
        except Exception as exc:  # an older tree may lack a workload
            out[name] = {"error": f"{type(exc).__name__}: {exc}"}
    return out


def digests_in_process(tree: Path, names: list) -> dict:
    """``digests`` in a fresh process: one tree's modules never meet the other's."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    out = subprocess.run([sys.executable, __file__, "--digests", str(tree), *names],
                         env=env, capture_output=True, text=True, timeout=3600)
    if out.returncode != 0:
        last = (out.stderr.strip().splitlines() or [f"exit status {out.returncode}"])[-1]
        return {name: {"error": last} for name in names}
    return json.loads(out.stdout.strip().splitlines()[-1])


def differing(ours: dict, theirs: dict) -> list:
    """The task labels whose digests differ, or that only one side has."""
    return sorted(k for k in ours.keys() | theirs.keys() if ours.get(k) != theirs.get(k))


def resolve(rev: str):
    """The root of the checkout this runs in, and the full sha of ``rev``."""
    root = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                               capture_output=True, text=True).stdout.strip())
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=root,
                         check=True, capture_output=True, text=True).stdout.strip()
    return root, sha


@contextlib.contextmanager
def worktree(root: Path, sha: str):
    """A detached ``git worktree`` of ``sha`` in a temporary directory, removed
    on exit."""
    with tempfile.TemporaryDirectory() as scratch:
        other = Path(scratch) / "tree"
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(other), sha],
                       cwd=root, check=True)
        try:
            yield other
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(other)], cwd=root,
                           check=False)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", nargs="?", help="the commit to compare this checkout with")
    # the child mode: --digests TREE WORKLOAD..., one tree's digests as JSON
    ap.add_argument("--digests", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.digests:
        print(json.dumps(digests(Path(args.digests[0]), args.digests[1:])))
        return 0
    if not args.rev:
        ap.error("REV is required")
    root, sha = resolve(args.rev)
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    ours = digests_in_process(root, names)
    with worktree(root, sha) as other:
        theirs = digests_in_process(other, names)
    print(f"benchmark outputs of this checkout against {sha[:12]}")
    total = changed = 0
    for name in names:
        if "error" in ours[name] or "error" in theirs[name]:
            print(f"{name}: not compared; here {ours[name].get('error', 'ran')}, "
                  f"at {sha[:12]} {theirs[name].get('error', 'ran')}")
            continue
        diff = differing(ours[name], theirs[name])
        total, changed = total + len(ours[name]), changed + len(diff)
        print(f"{name}: {len(ours[name])} tasks, {len(diff)} differ")
        for label in diff:
            print(f"  differs: {label}")
    print(f"all: {total} tasks compared, {changed} differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
