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
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .balance import BalanceConfig, solve_sinr_balance
from .baselines import BaselineConfig, adaptive_backoff, solve_aps, solve_fpa, solve_without_sar
from .channel import DEFAULT_NOISE_W, ConfigurationError, Region, _JsonDoc, sample_channel
from .exposure import SarModel, paper_sar_matrix, synthesize_sar_matrix
from .solver import SinrTargets, SolverConfig, SolverError, solve_sar_min

__all__ = [
    "ExperimentPlan",
    "RunRecord",
    "run_sweep",
    "convergence_trace",
    "derive_seed",
    "worker_count",
]

VALID_SWEEPS = ("q0", "beta0", "half_width", "paths", "scheme")
VALID_SCHEMES = ("fas", "aps", "fpa", "no-sar", "backoff")
# the schemes of the power-only design (balance objective only)
POWER_ONLY = ("no-sar", "backoff")
# the sweep axes that the power-only design reads
POWER_ONLY_AXES = ("half_width", "paths")
# task kinds in submission order, longest first. Run serially, an alternating
# APS balance task takes 0.1-0.25 s, a FAS task 60-115 ms, a sar-min APS task
# 20-45 ms and an FPA task a few milliseconds; putting FAS before APS did not
# shorten a pooled round of the sar-min sweeps
TASK_ORDER = ("aps", "fas", "power-only", "fpa")
# keys of a plan's ``solver`` dict and their type names: the SolverConfig
# fields, except the region that the plan's half_width and wavelength set
SOLVER_KEYS = {f.name: f.type for f in fields(SolverConfig) if f.name != "region"}
# the value types of each type name: a float setting takes an int, not a bool
SOLVER_TYPES = {"int": [int], "float": [int, float], "bool": [bool],
                "tuple": [tuple, list], "None": [type(None)]}


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
    aps_cap: int = 20000
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
        if self.trials < 1:
            raise ConfigurationError("need at least one trial per point")
        schemes = self.values if self.sweep == "scheme" else self.schemes
        for s in schemes:
            if s not in VALID_SCHEMES:
                raise ConfigurationError(f"unknown scheme {s!r}")
            if self.objective == "sar-min" and s in POWER_ONLY:
                raise ConfigurationError(f"{s} only applies to the balance objective")
        if self.objective == "sar-min" and self.beta0 is None:
            raise ConfigurationError("sar-min sweeps need a beta0 target")
        unknown = sorted(set(self.solver) - SOLVER_KEYS.keys())
        if unknown:
            raise ConfigurationError(f"unknown solver settings {unknown}")
        for key, value in self.solver.items():
            types = SOLVER_KEYS[key]
            if type(value) not in sum((SOLVER_TYPES[name] for name in types.split(" | ")), []):
                raise ConfigurationError(f"solver setting {key!r} must be {types}, got {value!r}")
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
    return synthesize_sar_matrix(m, rng_seed=0, budget=q0)


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
        paths = int(value)
    realization = sample_channel(seed, plan.m, plan.k, paths, plan.noise_variance)
    solver_config = SolverConfig(region=Region(half_width=half_width,
                                               wavelength=plan.wavelength), **plan.solver)
    balance_config = nosar_config = BalanceConfig(accuracy=plan.accuracy)
    if plan.beta_bracket is not None:
        balance_config = BalanceConfig(
            accuracy=plan.accuracy, bracket=(0.0, plan.beta_bracket * q0 / 1.6))
        # the power-only design is budgeted in watts, not exposure: unscaled
        nosar_config = BalanceConfig(accuracy=plan.accuracy,
                                     bracket=(0.0, plan.beta_bracket))
    base_config = BaselineConfig(power_budget=plan.power_budget,
                                 aps_cap=plan.aps_cap, aps_seed=seed)
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
                    res = solve_aps(realization, model, plan.objective, base_config,
                                    solver_config, balance_config, targets, method="alternating")
                else:  # no-sar and backoff share the power-only design
                    if nosar_cache is None:
                        nosar_cache = solve_without_sar(realization, plan.m, base_config,
                                                        solver_config, nosar_config)
                    res = nosar_cache if scheme == "no-sar" else adaptive_backoff(
                        realization, model, base_config, solver_config, balance_config,
                        unconstrained=nosar_cache)

                if scheme == "aps":
                    row.update(value_metric=res.value, beta=res.beta, sar=res.sar,
                               aps_coverage=res.coverage, aps_subsampled=res.subsampled)
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

    def aggregate(self, sweep_value, scheme: str) -> dict | None:
        for agg in self.aggregates:
            if agg["sweep_value"] == sweep_value and agg["scheme"] == scheme:
                return agg
        return None


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
            vals = [r["value_metric"] for r in rows
                    if r["point_index"] == pi and r["scheme"] == scheme
                    and r["status"] == "ok" and r.get("value_metric") is not None]
            n = len(vals)
            mean = float(np.mean(vals)) if n else None
            stderr = float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
            out.append({
                "sweep_value": value,
                "scheme": scheme,
                "mean": mean,
                "stderr": stderr,
                "trials": n,
                "failures": sum(1 for r in rows
                                if r["point_index"] == pi and r["scheme"] == scheme
                                and r["status"] != "ok"),
            })
    return out


def run_sweep(plan: ExperimentPlan) -> RunRecord:
    """Execute the plan; per-trial isolation, order-independent reduction.
    One worker or many, the same tasks run in the same order of submission."""
    tasks = _tasks(plan)
    workers = min(worker_count(), len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_task, [plan] * len(tasks), *zip(*tasks)))
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


def convergence_trace(channel_seed: int, beta0_list, m: int = 4, k: int = 4,
                      paths: int = 15, noise_variance: float = DEFAULT_NOISE_W,
                      q0: float = 1.6, solver_config: SolverConfig | None = None,
                      strict: bool = True) -> dict:
    """Stopping-indicator trajectories of the penalty loop, one per target.

    Checks the decay trend xi(2i) <= xi(i) for i >= 10 on every trajectory and
    (when strict) raises if it fails.
    """
    solver_config = solver_config or SolverConfig()
    realization = sample_channel(channel_seed, m, k, paths, noise_variance)
    model = _sar_model(m, q0)
    traces = []
    for beta0 in beta0_list:
        rep = solve_sar_min(realization, SinrTargets.uniform(k, float(beta0)), model,
                            solver_config)
        xi_path = [(it, mu, xi) for it, mu, xi, _, _ in rep.outer_trace]
        xis = [xi for _, _, xi in xi_path]
        trend_ok = all(xis[2 * i] <= xis[i]
                       for i in range(10, len(xis)) if 2 * i < len(xis))
        if strict and not trend_ok:
            raise SolverError(
                f"stopping indicator not decaying for beta0={beta0}")
        traces.append({
            "beta0": float(beta0),
            "trace": xi_path,
            "outer_iterations": rep.outer_iterations,
            "converged": rep.converged,
            "final_xi": rep.xi,
            "trend_ok": trend_ok,
        })
    return {"seed": channel_seed, "traces": traces}
