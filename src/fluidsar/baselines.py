"""Comparison schemes: power-only design, backoff scaling, grid search, fixed array."""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, replace

import numpy as np

from .balance import BalanceConfig, BalanceResult, solve_sinr_balance
from .channel import (
    ChannelRealization,
    ConfigurationError,
    _JsonDoc,
    aps_grid,
    channel_matrix,
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
]


@dataclass(frozen=True)
class BaselineConfig:
    """The power-only design's total power budget, in watts."""

    power_budget: float = 2.0
    aps_cap: int = 20000  # unread; goes once bench/workloads.py stops passing it
    aps_seed: int = 0  # unread; goes once bench/workloads.py stops passing it

    def __post_init__(self):
        if not 0.0 < self.power_budget < np.inf:  # false for NaN too
            raise ConfigurationError("power budget must be finite and positive")


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
    """Scale the power-only design's precoder amplitude by alpha = min{1, Q0 /
    sum_k p_k^H R p_k}: the exposure is quadratic, so its SAR ends at alpha * Q0,
    below the budget rather than on it. The attained worst weighted SINR is then
    re-evaluated at the scaled precoder."""
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


def central_grid_layout(grid: np.ndarray, m: int, spacing: float) -> np.ndarray:
    """Deterministic starting placement for lattice search: the m innermost
    points of ``grid``, a centered lattice of step ``spacing``, in (radius,
    x, y) order. The squared radius is counted in half steps, an integer, so
    that ties are exact."""
    if len(grid) < m:
        raise ConfigurationError("lattice cannot host this many antennas")
    half_steps = np.rint(2.0 * grid / spacing)
    return grid[np.lexsort((grid[:, 1], grid[:, 0], (half_steps ** 2).sum(axis=1)))[:m]]


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
    best: SolveReport | BalanceResult | None
    wall_time_s: float


def solve_aps(realization: ChannelRealization, model: SarModel, objective: str,
              config: BaselineConfig | None = None,
              solver_config: SolverConfig | None = None,
              balance_config: BalanceConfig | None = None,
              targets: SinrTargets | None = None,
              # checked, else unread; goes once bench/workloads.py stops passing it
              method: str = "alternating") -> ApsResult:
    """Antenna placement restricted to a half-wavelength lattice.

    objective "sar-min" minimizes exposure at fixed targets; "balance"
    maximizes the worst weighted SINR under the budget.

    It runs one solve from each of two lattice starts, whose position block
    moves each antenna to its best lattice point; each solve stops, on the
    exact solve at its layout, once no lattice move can lower its coupling
    residual (the solver's settled-layout exit). The best of them wins. A
    balance from a later start gets the best beta* so far as ``beats``: once
    one of its probes shows that it cannot win, it ends as ``outbid`` and is
    skipped. ``config`` is not read.
    """
    t0 = time.perf_counter()
    if objective not in ("sar-min", "balance"):
        raise ConfigurationError("objective must be 'sar-min' or 'balance'")
    if method != "alternating":
        raise ConfigurationError("method must be 'alternating'")
    cfg = replace(solver_config or SolverConfig(), optimize_positions=True, lattice=True)
    M = model.n_antennas
    grid = aps_grid(cfg.region)
    # lattice starts: the line array moved onto the lattice row nearest the
    # x-axis, where that row can hold it, and the innermost cluster; the
    # per-antenna lattice descent refines each, keep the best
    layouts = [central_grid_layout(grid, M, cfg.distance)]
    row = grid[grid[:, 1] == grid[np.abs(grid[:, 1]).argmin(), 1]]
    with contextlib.suppress(ConfigurationError):
        layouts.insert(0, central_grid_layout(row, M, cfg.distance))

    # distinct lattice points are at least lambda/2 apart: every layout is spaced
    best = best_key = None
    for layout in layouts:
        if objective == "sar-min":
            rep = solve_sar_min(realization, targets, model, cfg, initial_layout=layout)
            if not (rep.converged and rep.feasible):
                continue
            key = (rep.sar, rep.layout.tolist())
        else:
            rep = solve_sinr_balance(realization, model, balance_config, cfg,
                                     initial_layout=layout,
                                     beats=None if best is None else best.beta_star)
            if "outbid" in rep.warnings:
                continue
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
                     layout=best.layout, sar=best.sar, beta=beta, evaluated=len(layouts),
                     best=best, wall_time_s=time.perf_counter() - t0)


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
