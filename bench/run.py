"""fluidsar benchmark: end-to-end and per-layer figures for three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sarmin-ref --seed 1 --seconds 20 --trace 0

Each run builds its inputs, runs whole rounds of the workload's operations
in a closed loop until ``--seconds`` have passed, checks every output against
``oracle.py`` and prints one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run repeats its rounds serially, each task untraced and then
under the span recorder of ``tracer.py``, and reports the per-layer ones. Details (per-operation times, failures, check errors) go to
``.bench_results/``, and the spans of a traced run to a file beside them.

The program is imported from ``src/`` of the checkout and nowhere else; the
run stops with an error if it is missing. BLAS runs on one thread in every
process, and no run uses more worker processes than ``min(2, nproc)``.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import multiprocessing
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_REPEATS = 9
CLIENT_START_S = 120


def load_program():
    """Put the checkout's ``src/`` first on the path and import fluidsar from it."""
    if not (SRC / "fluidsar" / "__init__.py").is_file():
        raise SystemExit(f"bench: no fluidsar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import fluidsar
    if Path(fluidsar.__file__).resolve().parent != (SRC / "fluidsar").resolve():
        raise SystemExit(f"bench: fluidsar imported from {fluidsar.__file__}, not {SRC}")


def build(name: str, master_seed: int):
    """The workload's inputs: channels, SAR models, configurations and plans."""
    load_program()
    import workloads
    return workloads.WORKLOADS[name](master_seed)


def timed_setup(name: str, master_seed: int) -> float:
    """Set-up time of a fresh process: imports, then ``build``."""
    code = ("import time; t = time.perf_counter(); import sys; "
            f"sys.path.insert(0, {str(BENCH)!r}); import run; "
            f"run.build({name!r}, {master_seed}); print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def pool_size() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


_CLIENT = None  # the workload a client process built for itself


def _exit_with_parent(parent: int):
    """A client whose parent died without stopping it exits too."""
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _client_start(name, master_seed, ready):
    global _CLIENT
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # not the parent's handler, inherited by fork
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    _CLIENT = build(name, master_seed)
    ready.wait(timeout=CLIENT_START_S)


def _client_run(i):
    t = time.perf_counter()
    outputs = _CLIENT.run(_CLIENT.tasks[i])
    return i, outputs, time.perf_counter() - t


def run_clients(wl, rng, clients: int, seconds: float):
    """Whole rounds on ``clients`` forked processes that each built their own inputs,
    a closed loop: a client takes the next task of the round's seeded shuffled
    order as soon as its last one is done. Rounds repeat until ``seconds`` of
    wall time have passed. Returns the rounds, as ``{task_index: (outputs, s)}``
    with each task's own seconds, and the seconds each client was busy: the
    summed task seconds over the clients. Unlike the wall time, that does not
    count a client idling at the end of a round while the other finishes, which
    depends on the shuffled order and so on the seed."""
    # fork, not spawn: spawned processes and their locks start multiprocessing's
    # resource tracker, a process that outlives the run
    ctx = multiprocessing.get_context("fork")
    ready = ctx.Barrier(clients + 1)
    pool = ctx.Pool(clients, initializer=_client_start, initargs=(wl.name, wl.master_seed, ready))
    try:
        ready.wait(timeout=CLIENT_START_S)  # every client has built its inputs
        done, wall = [], 0.0
        while wall < seconds:
            t = time.perf_counter()
            order = rng.permutation(len(wl.tasks)).tolist()
            done.append({i: (outputs, s) for i, outputs, s in
                         pool.imap_unordered(_client_run, order)})
            wall += time.perf_counter() - t
    finally:
        pool.terminate()
        pool.join()
    return done, sum(s for results in done for _, s in results.values()) / clients


def run_rounds(wl, rng, workers: int, seconds: float | None = None,
               rounds: int | None = None, tracer=None):
    """Whole rounds in this process, each in a seeded shuffled order, until
    ``seconds`` of untraced time have passed or ``rounds`` are done; sweeps
    run on ``workers`` processes of the program's own pool.

    With a tracer every task runs twice in a row, untraced and then traced,
    so that both timings meet the same machine state. Returns, per mode
    (``untraced``, ``traced``), the rounds as ``{task_index: (outputs, s)}``
    and the summed seconds of their tasks.
    """
    os.environ["FAS_THREADS"] = str(workers)
    modes = ("untraced",) if tracer is None else ("untraced", "traced")
    done = {m: [] for m in modes}
    wall = dict.fromkeys(modes, 0.0)
    while True:
        for m in modes:
            done[m].append({})
        for i in rng.permutation(len(wl.tasks)).tolist():
            for m in modes:
                if m == "traced":
                    tracer.op = (len(done[m]) - 1) * len(wl.tasks) + i
                    tracer.install()
                try:
                    t = time.perf_counter()
                    outputs = wl.run(wl.tasks[i])
                    seconds_i = time.perf_counter() - t
                finally:
                    if m == "traced":
                        tracer.restore()
                done[m][-1][i] = (outputs, seconds_i)
                wall[m] += seconds_i
        if (rounds is not None and len(done["untraced"]) >= rounds) or \
                (rounds is None and wall["untraced"] >= seconds):
            return done, wall


def evaluate(wl, round_sets):
    """Checks every output and counts operations. Every round must reproduce
    the first round's outputs bit for bit, whatever the order or the worker
    count; the FAS means come from the first round in task order."""
    import workloads
    checks = workloads.Checks()
    attempted, failures, op_times = 0, [], []
    reference = {}
    for rounds in round_sets:
        for results in rounds:
            for i, (outputs, seconds) in sorted(results.items()):
                task = wl.tasks[i]
                verdicts = wl.verdicts(task, outputs, checks)
                attempted += len(verdicts)
                failures += [f"{wl.label(task)}: {v}" for v in verdicts if v is not None]
                op_times += [seconds / len(outputs)] * len(outputs)
                fp = wl.fingerprint(task, outputs)
                if reference.setdefault(i, fp) != fp:
                    checks.fail(wl.label(task), "output differs from the first round's")
    first = round_sets[0][0]
    sars, betas = [], []
    for i in sorted(first):
        s, b = wl.fas_values(wl.tasks[i], first[i][0])
        sars += s
        betas += b
    return dict(attempted=attempted, failures=failures, errors=checks.errors,
                op_times=op_times, sars=sars, betas=betas)


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def mean(values):
    return math.fsum(values) / len(values) if values else float("nan")


def end_to_end(wl, rng, seconds, master_seed):
    setups = [timed_setup(wl.name, master_seed) for _ in range(SETUP_REPEATS)]
    workers = pool_size()
    if wl.harness_pool:
        done, wall = run_rounds(wl, rng, workers, seconds=seconds)
        rounds, wall = done["untraced"], wall["untraced"]
        # bundles run inside run_sweep's pool and cannot be timed one by one
        # from outside: take each round's wall time per bundle
        op_p50 = statistics.median(
            sum(s for _, s in results.values()) / sum(len(o) for o, _ in results.values())
            for results in rounds)
    else:
        rounds, wall = run_clients(wl, rng, workers, seconds)  # busy seconds per client
        op_p50 = statistics.median(s for results in rounds for _, s in results.values())
    ev = evaluate(wl, [rounds])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ev["attempted"] / wall, "1/s"),
        "op_p50_s": (op_p50, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "fas_sar_mean_wkg": (mean(ev["sars"]), "W/kg"),
        "fas_beta_mean": (mean(ev["betas"]), "beta.sigma2"),
    }
    details = dict(setups_s=setups, wall_s=wall, rounds=len(rounds), workers=workers)
    return ev, metrics, details, None


def per_layer(wl, rng, seconds):
    import tracer as tracing
    tr = tracing.Tracer()
    sets, rounds, wall_pool = [], None, None
    if wl.harness_pool:
        done, wall = run_rounds(wl, rng, pool_size(), seconds=seconds)
        sets.append(done["untraced"])
        rounds, wall_pool = len(done["untraced"]), wall["untraced"]
    done, wall = run_rounds(wl, rng, 1, seconds=seconds, rounds=rounds, tracer=tr)
    sets += [done["untraced"], done["traced"]]
    wall_serial, wall_traced = wall["untraced"], wall["traced"]
    ev = evaluate(wl, sets)
    s = tr.summary()
    calls, self_s, wall_s = s["calls"], s["self_s"], s["wall_s"]
    metrics = {}
    for name in ("channel.channel_matrix", "channel.sinr_all", "exposure.sar_value",
                 "solver.solve_sar_min", "solver.solve_precoder", "solver.solve_auxiliary"):
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    metrics["solver.inner_loop.calls"] = (calls.get("solver.inner_loop", 0), "count")
    for scheme in ("fas", "aps", "fpa", "nosar"):
        metrics[f"solver.inner_loop.self_s.{scheme}"] = (
            s["inner_loop_self_s"].get(scheme, 0.0), "s")
    metrics["solver.outer_iterations"] = (sum(o for o, _ in tr.reports), "count")
    metrics["solver.inner_sweeps"] = (sum(i for _, i in tr.reports), "count")
    metrics["balance.solve_sinr_balance.calls"] = (calls.get("balance.solve_sinr_balance", 0),
                                                   "count")
    metrics["balance.solve_sinr_balance.self_s"] = (
        self_s.get("balance.solve_sinr_balance", 0.0), "s")
    probes = [row for ladder in tr.ladders for row in ladder]
    metrics["balance.probes"] = (len(probes), "count")
    for phase in ("bracket", "bisect", "descend"):
        metrics[f"balance.probes.{phase}"] = (sum(row[0] == phase for row in probes), "count")
    metrics["balance.feasible_probe_ratio"] = (
        sum(bool(row[3]) for row in probes) / len(probes) if probes else 0.0, "ratio")
    baseline_self = 0.0
    for name in ("solve_aps", "solve_fpa", "solve_without_sar", "adaptive_backoff"):
        key = f"baselines.{name}"
        metrics[f"{key}.wall_s"] = (wall_s.get(key, 0.0), "s")
        metrics[f"{key}.calls"] = (calls.get(key, 0), "count")
        baseline_self += self_s.get(key, 0.0)
    metrics["baselines.self_s"] = (baseline_self, "s")
    metrics["harness.run_sweep.self_s"] = (self_s.get("harness.run_sweep", 0.0), "s")
    bundles = sum(len(outputs) for results in done["traced"]
                  for outputs, _ in results.values()) if wl.harness_pool else 0
    metrics["harness.bundles"] = (bundles, "count")
    metrics["harness.speedup"] = (wall_traced / wall_pool if wl.harness_pool else 0.0, "ratio")
    metrics["trace.overhead"] = (wall_traced / wall_serial, "ratio")
    metrics["trace.accounted_share"] = (sum(self_s.values()) / wall_traced, "ratio")
    details = dict(rounds=len(done["traced"]), workers=pool_size() if wl.harness_pool else 1,
                   wall_untraced_pool_s=wall_pool,
                   wall_untraced_serial_s=wall_serial, wall_traced_s=wall_traced,
                   spans=len(tr.spans), layers=s)
    return ev, metrics, details, tr.spans


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="shuffles the order of each round")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--master-seed", type=int, default=909,
                    help="channel family, derive_seed(master, trial); 909 as in the "
                         "acceptance sweeps")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    # on SIGTERM unwind normally, so that client processes are stopped and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_program()
    import numpy as np
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.master_seed)
    rng = np.random.default_rng(args.seed)
    if args.trace:
        ev, metrics, details, spans = per_layer(wl, rng, args.seconds)
    else:
        ev, metrics, details, spans = end_to_end(wl, rng, args.seconds, args.master_seed)

    correct = not ev["errors"]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "master_seed": args.master_seed,
        "seconds": args.seconds, "correct": correct, "attempted": ev["attempted"],
        "failures": ev["failures"], "check_errors": ev["errors"], "metrics": metrics,
        "op_times_s": ev["op_times"], "details": details,
        "machine": {"python": sys.version.split()[0], "numpy": np.__version__,
                    "cpus": len(os.sched_getaffinity(0)), "platform": sys.platform},
    }, indent=1, default=float))
    if spans is not None:
        t0 = spans[0][1] if spans else 0.0
        with open(RESULTS / f"{stem}-spans.json", "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": [(n, round(a - t0, 9), round(b - t0, 9), p, o)
                                 for n, a, b, p, o in spans]}, fh, separators=(",", ":"))
    for msg in ev["errors"][:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    for msg in ev["failures"][:20]:
        print(f"failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": ev["attempted"],
                      "failed": len(ev["failures"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
