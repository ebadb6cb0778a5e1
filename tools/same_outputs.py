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
trees; the tasks that differ are printed.

Each tree also runs, in a process of its own and serially, the five
acceptance plans of its ``bench/workloads.py`` (``AcceptanceMix``)
at the acceptance suite's trial counts: 20 trials a balance plan and 40 a
sar-min plan, 1,320 rows in all. Each plan's row count and the sha256 of its
rows as JSON and of its CSV are compared; those that differ are printed.

Each tree also runs, in a process of its own, the command-line reports of
``CLI_COMMANDS`` through its ``fluidsar.cli.main``: ``solve sar-min``,
``solve sinr-balance``, the four baselines, and the APS and FPA baselines at
the sar-min objective, on a small M = K = 2 channel, and the ``trace`` of
``tests/test_cli.py``: 9 commands. The sha256 of each command's exit status
and output, a JSON report taken without its clock readings (``CLOCK_KEYS``,
at every depth), is compared; those that differ are printed.

The exit status is 0 whatever the outcome: this is a report, not a gate.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MASTER_SEED = 909
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "FAS_THREADS")
# the acceptance suite's trials per plan, by objective (tests/test_acceptance.py)
SWEEP_TRIALS = {"balance": 20, "sar-min": 40}
# the command-line reports compared: M = K = 2 solves on channel seed 3 with
# the synthetic model, every scheme at the balance objective and FAS, APS and
# FPA at the sar-min one, and tests/test_cli.py's trace (its noise -105 dBm)
_SMALL = ["--channel", "3", "--m", "2", "--k", "2", "--paths", "3", "--sar", "synth:2"]
_NOISE_W = 10.0 ** (-13.5)
CLI_COMMANDS = {
    "solve sar-min": ["solve", "sar-min", *_SMALL, "--beta0", "1e13"],
    "solve sinr-balance": ["solve", "sinr-balance", *_SMALL, "--eps1", "1e12"],
    **{f"baseline {scheme}": ["baseline", scheme, *_SMALL, "--eps1", "1e12"]
       for scheme in ("no-sar", "backoff", "aps", "fpa")},
    **{f"baseline {scheme} sar-min": ["baseline", scheme, *_SMALL, "--objective", "sar-min",
                                      "--beta0", "1e13"] for scheme in ("aps", "fpa")},
    "trace": ["trace", "--seed", "5", "--m", "2", "--k", "2", "--paths", "3",
              "--beta0", f"{0.5 / _NOISE_W},{2.0 / _NOISE_W}", "--mu0", "1e-2", "--a", "0.5"],
}
# the report keys that hold clock readings, which no two runs share
CLOCK_KEYS = ("wall_time_s", "block_seconds")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(tree: Path, *names: str) -> dict:
    """{workload: {task label: sha256 of its fingerprint}} in ``tree``, or
    {workload: {"error": message}} where a workload could not be run."""
    sys.path.insert(0, str(tree / "bench"))
    import run  # the tree's bench/run.py; ``build`` imports the tree's src/
    out = {}
    for name in names:
        try:
            wl = run.build(name, MASTER_SEED)
            out[name] = {wl.label(task): sha256(repr(wl.fingerprint(task, wl.run(task))))
                         for task in wl.tasks}
        except Exception as exc:  # an older tree may lack a workload
            out[name] = {"error": f"{type(exc).__name__}: {exc}"}
    return out


def sweep_plans(tree: Path) -> dict:
    """{plan name: ExperimentPlan}: the acceptance plans of ``tree``'s
    ``bench/workloads.py`` at ``SWEEP_TRIALS``."""
    sys.path.insert(0, str(tree / "bench"))
    import run  # the tree's bench/run.py; ``build`` imports the tree's src/
    plans = run.build("acceptance-mix", MASTER_SEED).plans
    return {name: dataclasses.replace(plan, trials=SWEEP_TRIALS[plan.objective])
            for name, plan in plans.items()}


def sweep_digests(tree: Path) -> dict:
    """{"<plan> rows": count, "<plan> rows JSON": sha256, "<plan> CSV": sha256}
    of every ``sweep_plans`` plan, run serially in ``tree``."""
    plans = sweep_plans(tree)
    from fluidsar.harness import run_sweep  # the tree's, once sweep_plans ran
    out = {}
    for name, plan in plans.items():
        record = run_sweep(plan)
        out[f"{name} rows"] = len(record.rows)
        out[f"{name} rows JSON"] = sha256(json.dumps(record.rows, sort_keys=True))
        out[f"{name} CSV"] = sha256(record.to_csv())
    return out


def strip_clocks(doc):
    """``doc``, a parsed JSON document, without the ``CLOCK_KEYS`` at any depth."""
    if isinstance(doc, dict):
        return {key: strip_clocks(value) for key, value in doc.items()
                if key not in CLOCK_KEYS}
    if isinstance(doc, list):
        return [strip_clocks(value) for value in doc]
    return doc


def cli_digests(tree: Path) -> dict:
    """{command label: sha256 of its exit status and output} of every
    ``CLI_COMMANDS`` command, run through ``tree``'s ``fluidsar.cli.main``; a
    JSON report is hashed as ``strip_clocks`` leaves it."""
    sys.path.insert(0, str(tree / "src"))
    from fluidsar.cli import main  # the tree's
    out = {}
    for label, argv in CLI_COMMANDS.items():
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            try:
                status = main(argv)
            except (Exception, SystemExit) as exc:  # an older tree may lack a command
                status = f"{type(exc).__name__}: {exc}"
        text = stdout.getvalue()
        if text.startswith("{"):
            text = json.dumps(strip_clocks(json.loads(text)))
        out[label] = sha256(f"{status}\n{text}")
    return out


# the child modes: ``--child MODE TREE [WORKLOAD...]`` prints MODE's JSON for TREE
CHILD_MODES = {"digests": digests, "sweeps": sweep_digests, "cli": cli_digests}


def in_process(tree: Path, mode: str, *args) -> dict:
    """The child mode ``mode`` (a ``CHILD_MODES`` key) for ``tree`` in a
    fresh process, so that one tree's modules never meet the other's: its
    JSON, or {"error": the last line of its error output}."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    out = subprocess.run([sys.executable, __file__, "--child", mode, str(tree), *args],
                         env=env, capture_output=True, text=True, timeout=3600)
    if out.returncode != 0:
        return {"error": (out.stderr.strip().splitlines()
                          or [f"exit status {out.returncode}"])[-1]}
    return json.loads(out.stdout.strip().splitlines()[-1])


def digests_in_process(tree: Path, names: list) -> dict:
    """``digests`` in a fresh process; a failed process fails every workload."""
    out = in_process(tree, "digests", *names)
    return {name: out for name in names} if "error" in out else out


def report(name: str, ours: dict, theirs: dict, short: str, unit: str) -> tuple:
    """Print how ``ours`` and ``theirs`` ({label: digest}, or {"error":
    message}) compare; returns (labels compared, labels that differ)."""
    if "error" in ours or "error" in theirs:
        print(f"{name}: not compared; here {ours.get('error', 'ran')}, "
              f"at {short} {theirs.get('error', 'ran')}")
        return 0, 0
    diff = differing(ours, theirs)
    print(f"{name}: {len(ours)} {unit}, {len(diff)} differ")
    for label in diff:
        print(f"  differs: {label}")
    return len(ours), len(diff)


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
    ap.add_argument("--child", nargs="+", help=argparse.SUPPRESS)  # see CHILD_MODES
    args = ap.parse_args(argv)
    if args.child:
        mode, tree, *rest = args.child
        print(json.dumps(CHILD_MODES[mode](Path(tree), *rest)))
        return 0
    if not args.rev:
        ap.error("REV is required")
    root, sha = resolve(args.rev)
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    ours = digests_in_process(root, names)
    ours_sweeps, ours_cli = in_process(root, "sweeps"), in_process(root, "cli")
    with worktree(root, sha) as other:
        theirs = digests_in_process(other, names)
        theirs_sweeps, theirs_cli = in_process(other, "sweeps"), in_process(other, "cli")
    short = sha[:12]
    print(f"benchmark outputs of this checkout against {short}")
    total = changed = 0
    for name in names:
        n, d = report(name, ours[name], theirs[name], short, "tasks")
        total, changed = total + n, changed + d
    print(f"all: {total} tasks compared, {changed} differ")
    rows = sum(n for label, n in ours_sweeps.items() if label.endswith(" rows"))
    print(f"acceptance sweeps here: {rows} rows")
    report("acceptance sweeps", ours_sweeps, theirs_sweeps, short,
           "row counts, rows JSON and CSV digests")
    report("CLI outputs", ours_cli, theirs_cli, short, "commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
