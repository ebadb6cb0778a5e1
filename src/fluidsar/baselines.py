"""Comparison schemes: power-only design, backoff scaling, grid search, fixed array."""
from __future__ import annotations

import contextlib
import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .balance import BalanceConfig, BalanceResult, solve_sinr_balance
from .channel import (
    ChannelRealization,
    ConfigurationError,
    _JsonDoc,
    channel_matrix,
    min_pairwise_distance,
    min_weighted_sinr,
    uniform_line_layout,
)
from .exposure import SarModel, identity_sar_model, sar_value
from .solver import SinrTargets, SolveReport, SolverConfig, solve_sar_min

__all__ = [
    "BaselineConfig",
    "ApsResult",
    "BackoffResult",
    "solve_without_sar",
    "adaptive_backoff",
    "solve_aps",
    "solve_fpa",
    "aps_grid",
]


@dataclass(frozen=True)
class BaselineConfig:
    power_budget: float = 2.0
    aps_cap: int = 20000
    aps_seed: int = 0

    def __post_init__(self):
        if self.power_budget <= 0:
            raise ConfigurationError("power budget must be positive")
        if self.aps_cap < 1:
            raise ConfigurationError("aps_cap must be at least 1")


def solve_without_sar(realization: ChannelRealization, num_antennas: int,
                      config: BaselineConfig | None = None,
                      solver_config: SolverConfig | None = None,
                      balance_config: BalanceConfig | None = None) -> BalanceResult:
    """Balancing under a total power budget only: identity coupling matrix."""
    config = config or BaselineConfig()
    model = identity_sar_model(num_antennas, budget=config.power_budget)
    return solve_sinr_balance(realization, model, balance_config, solver_config)


@dataclass
class BackoffResult(_JsonDoc):
    JSON_SKIP = ("unconstrained",)

    beta: float
    precoder: np.ndarray
    layout: np.ndarray
    sar: float
    alpha: float
    unconstrained: BalanceResult

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "unconstrained_beta": self.unconstrained.beta_star}


def adaptive_backoff(realization: ChannelRealization, model: SarModel,
                     config: BaselineConfig | None = None,
                     solver_config: SolverConfig | None = None,
                     balance_config: BalanceConfig | None = None,
                     unconstrained: BalanceResult | None = None) -> BackoffResult:
    """Scale the power-only design down until it meets the exposure budget.

    alpha = min{1, Q0 / sum_k p_k^H R p_k} applied to the whole precoder; the
    attained worst weighted SINR is then re-evaluated at the scaled precoder.
    """
    config = config or BaselineConfig()
    solver_config = solver_config or SolverConfig()
    if unconstrained is None:
        unconstrained = solve_without_sar(realization, model.n_antennas, config,
                                          solver_config, balance_config)
    P_bar = unconstrained.precoder
    layout = unconstrained.layout
    sar_bar = sar_value(P_bar, model)
    alpha = 1.0 if sar_bar <= 0 else min(1.0, model.budget / sar_bar)
    P = alpha * P_bar
    H = channel_matrix(layout, realization, solver_config.wavelength)
    weights = np.ones(realization.num_users) if balance_config is None or \
        balance_config.weights is None else np.asarray(balance_config.weights, dtype=float)
    beta = min_weighted_sinr(P, H, realization.noise_variance, weights)
    return BackoffResult(beta=beta, precoder=P, layout=layout,
                         sar=sar_value(P, model), alpha=alpha, unconstrained=unconstrained)


def aps_grid(region, spacing: float) -> np.ndarray:
    """Candidate positions: a centered square lattice inside the region."""
    a = region.half_width_m
    n_side = int(math.floor(2.0 * a / spacing + 1e-9)) + 1
    offset = (2.0 * a - (n_side - 1) * spacing) / 2.0
    coords = -a + offset + spacing * np.arange(n_side)
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def central_grid_layout(grid: np.ndarray, m: int, min_distance: float) -> np.ndarray:
    """Deterministic starting placement for lattice search: the m innermost
    grid points that keep pairwise spacing, in (radius, x, y) order."""
    order = np.lexsort((grid[:, 1], grid[:, 0], (grid ** 2).sum(axis=1)))
    chosen: list[np.ndarray] = []
    for idx in order:
        p = grid[idx]
        if all(np.linalg.norm(p - q) >= min_distance - 1e-12 for q in chosen):
            chosen.append(p)
            if len(chosen) == m:
                return np.array(chosen)
    raise ConfigurationError("lattice cannot host this many antennas")


def _sample_combinations(n_points: int, m: int, cap: int, seed: int):
    """Deterministic uniform subsample of m-subsets when enumeration is too big."""
    rng = np.random.default_rng(seed)
    seen = set()
    out = []
    # rejection sampling over sorted index tuples; cap << C(n, m) keeps this fast
    while len(out) < cap:
        combo = tuple(sorted(rng.choice(n_points, size=m, replace=False).tolist()))
        if combo in seen:
            continue
        seen.add(combo)
        out.append(combo)
    return out


@dataclass
class ApsResult(_JsonDoc):
    JSON_SKIP = ("precoder", "best")

    value: float
    objective: str
    precoder: np.ndarray
    layout: np.ndarray
    sar: float
    beta: float
    evaluated: int
    total_combinations: int
    coverage: float
    subsampled: bool
    best: SolveReport | BalanceResult | None
    wall_time_s: float


def solve_aps(realization: ChannelRealization, model: SarModel, objective: str,
              config: BaselineConfig | None = None,
              solver_config: SolverConfig | None = None,
              balance_config: BalanceConfig | None = None,
              targets: SinrTargets | None = None,
              method: str = "alternating") -> ApsResult:
    """Antenna placement restricted to a half-wavelength lattice.

    objective "sar-min" minimizes exposure at fixed targets; "balance"
    maximizes the worst weighted SINR under the budget.

    method "alternating" runs one solve from each of two lattice starts, whose
    position block moves each antenna to its best lattice point; each solve
    stops, on the exact solve at its layout, once no lattice move can lower
    its coupling residual (the solver's settled-layout exit); method
    "combinations" enumerates M-subsets of the lattice (seeded uniform
    subsample above ``aps_cap``) and solves each at its fixed layout.
    """
    t0 = time.perf_counter()
    if objective not in ("sar-min", "balance"):
        raise ConfigurationError("objective must be 'sar-min' or 'balance'")
    if method not in ("combinations", "alternating"):
        raise ConfigurationError("method must be 'combinations' or 'alternating'")
    config = config or BaselineConfig()
    solver_config = solver_config or SolverConfig()
    fixed = replace(solver_config, optimize_positions=False)
    M = model.n_antennas
    grid = aps_grid(solver_config.region, fixed.distance)
    n_points = grid.shape[0]
    if n_points < M:
        raise ConfigurationError("grid too coarse: fewer candidate points than antennas")

    if method == "alternating":
        cfg = replace(solver_config, optimize_positions=True,
                      position_grid=tuple(map(tuple, grid)))
        # lattice starts: the line array moved onto the lattice row nearest the
        # x-axis, where that row can hold it, and the innermost cluster; the
        # per-antenna lattice descent refines each, keep the best
        layouts = [central_grid_layout(grid, M, cfg.distance)]
        row = grid[grid[:, 1] == grid[np.abs(grid[:, 1]).argmin(), 1]]
        with contextlib.suppress(ConfigurationError):
            layouts.insert(0, central_grid_layout(row, M, cfg.distance))
        # cold probes: the discrete reconfiguration happens in the low-penalty
        # phase, which warm-started probes skip
        bal = replace(balance_config or BalanceConfig(), warm_start=False)
        total, subsampled = len(layouts), False
    else:
        total = math.comb(n_points, M)
        subsampled = total > config.aps_cap
        if subsampled:
            combos = _sample_combinations(n_points, M, config.aps_cap, config.aps_seed)
        else:
            combos = list(itertools.combinations(range(n_points), M))
        cfg, bal = fixed, balance_config
        layouts = (grid[list(combo)] for combo in combos)

    best = best_key = None
    evaluated = 0
    for layout in layouts:
        if min_pairwise_distance(layout) < fixed.distance - 1e-12:
            continue
        evaluated += 1
        if objective == "sar-min":
            rep = solve_sar_min(realization, targets, model, cfg, initial_layout=layout)
            if not (rep.converged and rep.feasible):
                continue
            key = (rep.sar, rep.layout.tolist())
        else:
            rep = solve_sinr_balance(realization, model, bal, cfg, initial_layout=layout)
            key = (-rep.beta_star, rep.layout.tolist())
        if best_key is None or key < best_key:
            best, best_key = rep, key
    if best is None:
        raise ConfigurationError("no feasible lattice placement was found")

    if objective == "sar-min":
        value, beta = best.sar, best.beta_achieved
    else:
        value = beta = best.beta_star
    return ApsResult(value=value, objective=objective, precoder=best.precoder,
                     layout=best.layout, sar=best.sar, beta=beta, evaluated=evaluated,
                     total_combinations=total,
                     coverage=evaluated / total if total else 1.0,
                     subsampled=subsampled, best=best,
                     wall_time_s=time.perf_counter() - t0)


def solve_fpa(realization: ChannelRealization, model: SarModel, objective: str,
              solver_config: SolverConfig | None = None,
              balance_config: BalanceConfig | None = None,
              targets: SinrTargets | None = None):
    """Fixed half-wavelength line array: precoder-only optimization."""
    if objective not in ("sar-min", "balance"):
        raise ConfigurationError("objective must be 'sar-min' or 'balance'")
    solver_config = solver_config or SolverConfig()
    fixed = replace(solver_config, optimize_positions=False)
    layout = uniform_line_layout(model.n_antennas, fixed.region)
    if objective == "sar-min":
        return solve_sar_min(realization, targets, model, fixed, initial_layout=layout)
    return solve_sinr_balance(realization, model, balance_config, fixed,
                              initial_layout=layout)
