"""Seeded Monte Carlo sweeps over budgets, targets, region sizes and schemes.

Per-trial seeds derive deterministically from (master seed, point index,
trial index), all schemes at one (point, trial) share the same channel, and
the reduction order is fixed, so aggregates do not depend on how many workers
execute the trials.

A sweep runs as tasks, one per (point, trial, scheme), submitted longest
scheme first (static LPT scheduling, Graham 1969) and put back in row order.
No-SAR and backoff share one power-only design, and so one task. Along an axis
that this design does not read (``q0``, ``beta0``, ``scheme``), one task per
trial solves it once and gives every point's no-SAR and backoff rows.

A pooled sweep (``FAS_THREADS`` above 1) runs on one process pool per process
and worker count, forked at the first pooled sweep and kept for the next: it
is replaced when the worker count or the process changes or the pool broke,
and shut down at exit. Its workers run the modules as they were when it was
forked, so a patch made later reaches serial sweeps only; each worker exits
once its parent is gone.
"""
from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .balance import BalanceConfig, solve_sinr_balance
from .baselines import (BaselineConfig, adaptive_backoff, central_grid_layout, solve_aps,
                        solve_fpa, solve_without_sar)
from .channel import (DEFAULT_NOISE_W, ConfigurationError, Region, _JsonDoc, aps_grid,
                      sample_channel, uniform_line_layout)
from .exposure import SarModel, paper_sar_matrix, synthesize_sar_matrix
from .solver import SinrTargets, SolverConfig, solve_sar_min

__all__ = [
    "ExperimentPlan",
    "RunRecord",
    "run_sweep",
    "derive_seed",
    "worker_count",
]

VALID_SWEEPS = ("q0", "beta0", "half_width", "paths", "scheme")
VALID_SCHEMES = ("fas", "aps", "fpa", "no-sar", "backoff")
# the schemes of the power-only design (balance objective only)
POWER_ONLY = ("no-sar", "backoff")
# the sweep axes that the power-only design reads
POWER_ONLY_AXES = ("half_width", "paths")
# task kinds in submission order, longest first. Run serially on one core over
# the five acceptance plans, an APS balance task takes 45-133 ms, a FAS task
# 20-97 ms, power-only 23-37 ms, a sar-min APS task 12-27 ms and FPA 1-5 ms;
# putting FAS before APS did not shorten a pooled round of the sar-min sweeps
TASK_ORDER = ("aps", "fas", "power-only", "fpa")
# keys of a plan's ``solver`` dict and their type names: the SolverConfig
# fields, except the region that the plan's half_width and wavelength set and
# the lattice that only APS sets
SOLVER_KEYS = {f.name: f.type for f in fields(SolverConfig)
               if f.name not in ("region", "lattice")}
# the value types of each type name: a float setting takes an int, not a bool
SOLVER_TYPES = {"int": [int], "float": [int, float], "bool": [bool]}


@dataclass(frozen=True)
class ExperimentPlan(_JsonDoc):
    objective: str                      # "balance" or "sar-min"
    sweep: str                          # one of VALID_SWEEPS
    values: tuple
    trials: int
    master_seed: int
    schemes: tuple = ("fas",)
    m: int = 4
    k: int = 4
    paths: int = 15
    noise_variance: float = DEFAULT_NOISE_W
    wavelength: float = 0.01
    half_width: float = 1.0             # region half-width in wavelengths
    q0: float = 1.6
    beta0: float | None = None
    power_budget: float = 2.0
    aps_cap: int = 20000  # unread; goes once bench/workloads.py stops passing it
    accuracy: float = 1e-4              # bisection accuracy for balance sweeps
    # optional initial upper bracket for the target bisection, quoted at the
    # reference budget 1.6 and scaled with the point's budget; the balance
    # solver doubles it (up to 3 times) if a probe shows it is attainable
    beta_bracket: float | None = None
    solver: dict = field(default_factory=dict)
    out_csv: str | None = None
    out_json: str | None = None

    def __post_init__(self):
        if self.objective not in ("balance", "sar-min"):
            raise ConfigurationError("objective must be 'balance' or 'sar-min'")
        if self.sweep not in VALID_SWEEPS:
            raise ConfigurationError(f"sweep must be one of {VALID_SWEEPS}")
        if not self.values:
            raise ConfigurationError("sweep value list must be non-empty")
        for name, least in (("trials", 1), ("m", 1), ("k", 1), ("master_seed", 0)):
            value = getattr(self, name)
            if type(value) not in (int, float) or not float(value).is_integer() or value < least:
                raise ConfigurationError(f"{name} must be a whole number >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))
        schemes = self.values if self.sweep == "scheme" else self.schemes
        for s in schemes:
            if s not in VALID_SCHEMES:
                raise ConfigurationError(f"unknown scheme {s!r}")
            if self.objective == "sar-min" and s in POWER_ONLY:
                raise ConfigurationError(f"{s} only applies to the balance objective")
        if self.objective == "sar-min" and self.beta0 is None:
            raise ConfigurationError("sar-min sweeps need a beta0 target")
        if self.beta0 is not None and not 0.0 <= self.beta0 < np.inf:  # false for NaN too
            raise ConfigurationError("beta0 must be a finite non-negative number")
        unknown = sorted(set(self.solver) - SOLVER_KEYS.keys())
        if unknown:
            raise ConfigurationError(f"unknown solver settings {unknown}")
        for key, value in self.solver.items():
            kind = SOLVER_KEYS[key]
            if type(value) not in SOLVER_TYPES[kind]:
                raise ConfigurationError(f"solver setting {key!r} must be {kind}, got {value!r}")
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        for value in self.values:  # a bad point fails before any trial runs
            _point_setup(self, value, seed=0)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentPlan":
        return cls(**_known_keys(cls, doc, "plan"))


def _known_keys(cls, doc: dict, what: str) -> dict:
    """``doc``, once every key of it is a field of ``cls``."""
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigurationError(f"unknown {what} keys {unknown}")
    return doc


def derive_seed(master_seed: int, trial_index: int) -> int:
    """Channel seed for one trial. Sweep points share trials' channels
    (common random numbers along the sweep axis as well as across schemes);
    the paths sweep still changes the realization through the path count."""
    return int(np.random.SeedSequence([master_seed, trial_index])
               .generate_state(1)[0])


def worker_count() -> int:
    cap = os.environ.get("FAS_THREADS", "").strip()
    cpus = os.cpu_count() or 1
    if not cap:
        return 1
    try:
        n = int(cap)
    except ValueError:
        raise ConfigurationError(f"FAS_THREADS must be an integer, got {cap!r}") from None
    return max(1, min(n, cpus * 4))


def _sar_model(m: int, q0: float) -> SarModel:
    if m == 4:
        return paper_sar_matrix(budget=q0)
    return synthesize_sar_matrix(m, budget=q0)


def _point_schemes(plan: ExperimentPlan, value) -> list:
    return [value] if plan.sweep == "scheme" else list(plan.schemes)


def _kind(scheme: str) -> str:
    return "power-only" if scheme in POWER_ONLY else scheme


def _point_setup(plan: ExperimentPlan, value, seed: int):
    """Schemes, channel of ``seed`` and solver inputs at one sweep point.
    The plan builds them for every point, so a bad value fails when the plan
    is built."""
    q0, beta0, half_width, paths = plan.q0, plan.beta0, plan.half_width, plan.paths
    schemes = _point_schemes(plan, value)
    if plan.sweep == "q0":
        q0 = float(value)
    elif plan.sweep == "beta0":
        beta0 = float(value)
    elif plan.sweep == "half_width":
        half_width = float(value)
    elif plan.sweep == "paths":
        paths = value
    if not float(paths).is_integer():  # false for NaN and inf too
        raise ConfigurationError(f"paths value {paths!r} is not a whole number")
    paths = int(paths)
    realization = sample_channel(seed, plan.m, plan.k, paths, plan.noise_variance)
    region = Region(half_width=half_width, wavelength=plan.wavelength)
    solver_config = SolverConfig(region=region, **plan.solver)
    # the start layout of each scheme, so a region too small for one fails here
    if any(s != "aps" for s in schemes):
        uniform_line_layout(plan.m, region)
    if "aps" in schemes:
        central_grid_layout(aps_grid(region), plan.m, solver_config.distance)
    balance_config = nosar_config = BalanceConfig(accuracy=plan.accuracy)
    if plan.beta_bracket is not None:
        balance_config = BalanceConfig(
            accuracy=plan.accuracy, bracket=(0.0, plan.beta_bracket * q0 / 1.6))
        # the power-only design is budgeted in watts, not exposure: unscaled
        nosar_config = BalanceConfig(accuracy=plan.accuracy,
                                     bracket=(0.0, plan.beta_bracket))
    base_config = BaselineConfig(power_budget=plan.power_budget)
    targets = SinrTargets.uniform(plan.k, beta0) if beta0 is not None else None
    return (schemes, realization, _sar_model(plan.m, q0), solver_config, balance_config,
            nosar_config, base_config, targets)


def _tasks(plan: ExperimentPlan) -> list[tuple]:
    """Every (point, trial, scheme) of the plan in one task ``(kind, trial,
    points)``, in submission order: by ``TASK_ORDER``, ties in plan order.
    A power-only task holds one point, or every point of its trial when the
    sweep axis is not one that the power-only design reads."""
    shared = plan.sweep not in POWER_ONLY_AXES
    groups: dict = {}
    for pi, value in enumerate(plan.values):
        for trial in range(plan.trials):
            for scheme in _point_schemes(plan, value):
                kind = _kind(scheme)
                points = groups.setdefault(
                    (kind, trial, None if kind == "power-only" and shared else pi), [])
                if pi not in points:
                    points.append(pi)
    return sorted(((kind, trial, tuple(points)) for (kind, trial, _), points in groups.items()),
                  key=lambda task: TASK_ORDER.index(task[0]))


def _run_task(plan: ExperimentPlan, kind: str, trial: int, points: tuple) -> list[tuple]:
    """The rows of the schemes of ``kind`` at ``points`` for one trial, each
    with its place in the record, (point, trial, place among the point's
    schemes). Every scheme at a point shares its channel and seed, and every
    no-SAR and backoff row of the task shares one power-only design."""
    seed = derive_seed(plan.master_seed, trial)
    rows = []
    nosar_cache = None
    for point_index in points:
        value = plan.values[point_index]
        schemes, realization, model, solver_config, balance_config, nosar_config, \
            base_config, targets = _point_setup(plan, value, seed)
        for place, scheme in enumerate(schemes):
            if _kind(scheme) != kind:
                continue
            row = {
                "point_index": point_index,
                "sweep_value": value,
                "scheme": scheme,
                "trial": trial,
                "seed": seed,
                "status": "ok",
            }
            try:
                if scheme == "fas" and plan.objective == "balance":
                    res = solve_sinr_balance(realization, model, balance_config, solver_config)
                elif scheme == "fas":
                    res = solve_sar_min(realization, targets, model, solver_config)
                elif scheme == "fpa":
                    res = solve_fpa(realization, model, plan.objective, solver_config,
                                    balance_config, targets)
                elif scheme == "aps":
                    res = solve_aps(realization, model, plan.objective, None,
                                    solver_config, balance_config, targets)
                else:  # no-sar and backoff share the power-only design
                    if nosar_cache is None:
                        nosar_cache = solve_without_sar(realization, plan.m, base_config,
                                                        solver_config, nosar_config)
                    res = nosar_cache if scheme == "no-sar" else adaptive_backoff(
                        realization, model, base_config, solver_config, balance_config,
                        unconstrained=nosar_cache)

                if scheme == "aps":
                    row.update(value_metric=res.value, beta=res.beta, sar=res.sar)
                elif scheme == "backoff":
                    row.update(value_metric=res.beta, beta=res.beta, sar=res.sar, alpha=res.alpha)
                elif plan.objective == "balance":
                    row.update(value_metric=res.beta_star, beta=res.beta_star,
                               sar=None if scheme == "no-sar" else res.sar)
                else:
                    if not (res.converged and res.feasible):
                        row["status"] = "nonconverged"
                    row.update(value_metric=res.sar, beta=res.beta_achieved, sar=res.sar)

                # the solve behind the row: APS keeps its best start, backoff
                # scales the power-only design
                solve = res.best if scheme == "aps" else \
                    res.unconstrained if scheme == "backoff" else res
                row["warnings"] = list(solve.warnings)
                if plan.objective == "balance":
                    row["probes"] = solve.probes
                    if "no_feasible_probe" in solve.warnings:
                        # the trivial fallback is not a balancing result
                        row["status"] = "infeasible"
            except Exception as exc:  # per-trial failures never abort the sweep
                row["status"] = "error"
                row["error"] = f"{type(exc).__name__}: {exc}"
                row.setdefault("value_metric", None)
            rows.append(((point_index, trial, place), row))
    return rows


@dataclass
class RunRecord(_JsonDoc):
    JSON_INDENT = 2

    plan: dict
    rows: list
    aggregates: list
    version: str = "fluidsar-0.1.0"

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RunRecord":
        return cls(**_known_keys(cls, doc, "record"))

    def to_csv(self) -> str:
        lines = ["sweep_value,scheme,mean,stderr,trials"]
        for agg in self.aggregates:
            lines.append("{},{},{},{},{}".format(
                _csv_number(agg["sweep_value"]), agg["scheme"],
                _csv_number(agg["mean"]), _csv_number(agg["stderr"]), agg["trials"]))
        return "\n".join(lines) + "\n"


def _csv_number(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return f"{v:.12g}"


def _aggregate(plan: ExperimentPlan, rows: list[dict]) -> list[dict]:
    out = []
    for pi, value in enumerate(plan.values):
        for scheme in _point_schemes(plan, value):
            mine = [r for r in rows if r["point_index"] == pi and r["scheme"] == scheme]
            vals = [r["value_metric"] for r in mine
                    if r["status"] == "ok" and r.get("value_metric") is not None]
            n = len(vals)
            mean = float(np.mean(vals)) if n else None
            stderr = float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
            out.append({
                "sweep_value": value,
                "scheme": scheme,
                "mean": mean,
                "stderr": stderr,
                "trials": n,
                "failures": sum(r["status"] != "ok" for r in mine),
            })
    return out


_pool = None  # ((workers, pid), executor): the pooled sweeps' process pool


def _worker_start():
    """A pool worker exits once its parent is gone, so a sweep process that
    was killed leaves no idle worker behind."""
    parent = os.getppid()

    def exit_with_parent():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)
    threading.Thread(target=exit_with_parent, daemon=True).start()


def _close_pool():
    """Shut this process's pool down; a pool inherited through fork is not ours."""
    global _pool
    if _pool is not None and _pool[0][1] == os.getpid():
        _pool[1].shutdown(cancel_futures=True)
    _pool = None


atexit.register(_close_pool)


def _sweep_pool(workers: int) -> ProcessPoolExecutor:
    """The pool of ``workers`` processes that this process's pooled sweeps
    share, forked anew when there is none of that size or it broke. Fork,
    not spawn: spawned workers start multiprocessing's resource tracker, a
    process that outlives the pool."""
    global _pool
    key = (workers, os.getpid())
    if _pool is None or _pool[0] != key or _pool[1]._broken:
        _close_pool()
        _pool = key, ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                         initializer=_worker_start)
    return _pool[1]


def run_sweep(plan: ExperimentPlan) -> RunRecord:
    """Execute the plan; per-trial isolation, order-independent reduction.
    One worker or many, the same tasks run in the same order of submission.
    With ``worker_count()`` above 1 and more than one task they run on the
    process's sweep pool: forked by its first pooled sweep, kept until the
    worker count or the process changes, the pool breaks or the process
    exits, and blind to patches made after it was forked."""
    tasks = _tasks(plan)
    workers = worker_count()
    if min(workers, len(tasks)) > 1:
        done = list(_sweep_pool(workers).map(_run_task, [plan] * len(tasks), *zip(*tasks)))
    else:
        done = [_run_task(plan, *task) for task in tasks]
    rows = [row for _, row in sorted((item for items in done for item in items),
                                     key=lambda item: item[0])]
    record = RunRecord(plan=plan.to_json_dict(), rows=rows,
                       aggregates=_aggregate(plan, rows))
    if plan.out_csv:
        with open(plan.out_csv, "w") as fh:
            fh.write(record.to_csv())
    if plan.out_json:
        with open(plan.out_json, "w") as fh:
            fh.write(record.to_json())
    return record

