"""Max-min weighted SINR under an exposure budget, by bisection on the target.

The balancing problem and the exposure-minimization problem are inverse to
each other: the budget spent by the minimizer at target beta0 is exactly the
budget at which the balancer attains beta0. Bisection therefore probes the
minimizer at candidate targets and keeps the largest target whose minimal
exposure fits the budget.

With an absolute accuracy the bisection can stop before any probe has fit the
budget (a coarse accuracy against a small budget). The solver then descends:
it keeps halving the target below the lowest infeasible probe until one fits,
and bisects the remaining bracket [b, 2b] down to the accuracy. Only when the
bounded descent finds nothing either does it emit the trivial solution at
target 0, flagged with the warning ``no_feasible_probe``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    ChannelRealization,
    ConfigurationError,
    _encode_complex,
    channel_matrix,
    uniform_line_layout,
)
from .exposure import SarModel
from .solver import SinrTargets, SolveReport, SolverConfig, solve_sar_min

__all__ = ["BalanceConfig", "BalanceResult", "default_upper_bracket", "solve_sinr_balance"]

MAX_DESCENTS = 20  # halvings below the lowest infeasible probe: a 1e-6 factor
MAX_EXPANSIONS = 3  # doublings of an upper bracket end that a probe attains
WARM_MU_BACKOFF = 12  # warm probes restart mu this many scale steps below the warm value


@dataclass(frozen=True)
class BalanceConfig:
    """Bisection accuracy, bracket and weights for one balancing solve."""

    accuracy: float = 1e-4
    bracket: tuple[float, float] | None = None
    weights: np.ndarray | None = None
    budget: float | None = None  # defaults to the SAR model budget
    warm_start: bool = True

    def __post_init__(self):
        if self.accuracy <= 0:
            raise ConfigurationError("bisection accuracy must be positive")
        if self.bracket is not None:
            lo, hi = self.bracket
            if not (0 <= lo < hi):
                raise ConfigurationError("bracket must satisfy 0 <= lo < hi")


@dataclass
class BalanceResult:
    beta_star: float
    precoder: np.ndarray
    layout: np.ndarray
    sar: float
    budget: float
    report: SolveReport | None
    ladder: list  # (phase, beta0, sar, feasible, converged)
    iterations: int
    warnings: list
    wall_time_s: float

    def to_json_dict(self) -> dict:
        return {
            "beta_star": self.beta_star,
            "precoder": _encode_complex(self.precoder),
            "layout": self.layout.tolist(),
            "sar": self.sar,
            "budget": self.budget,
            "ladder": [list(row) for row in self.ladder],
            "iterations": self.iterations,
            "warnings": list(self.warnings),
            "wall_time_s": self.wall_time_s,
            "solution": self.report.to_json_dict() if self.report is not None else None,
        }


def default_upper_bracket(realization: ChannelRealization, model: SarModel,
                          weights: np.ndarray, layout: np.ndarray,
                          wavelength: float, budget: float | None = None) -> float:
    """Power-limited upper bound on the attainable weighted SINR.

    A single interference-free user cannot beat ||h_k||^2 ||p_k||^2 / sigma^2,
    and the budget caps ||p||^2 at Q0 over the smallest positive eigenvalue of
    the exposure matrix; the factor 4 leaves slack for position gains.
    """
    q0 = model.budget if budget is None else budget
    if q0 <= 0:
        return 0.0
    sym = (model.matrix + model.matrix.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(sym)
    positive = eigs[eigs > 1e-12 * max(1.0, float(eigs.max()))]
    if positive.size == 0:
        raise ConfigurationError("exposure matrix has no positive eigenvalue")
    lam = float(positive.min())
    H = channel_matrix(layout, realization, wavelength)
    gains = np.linalg.norm(H, axis=1) ** 2
    w = np.asarray(weights, dtype=float)
    return float(4.0 * np.max((q0 / lam) * gains / (realization.noise_variance * w)))


def solve_sinr_balance(realization: ChannelRealization, model: SarModel,
                       config: BalanceConfig | None = None,
                       solver_config: SolverConfig | None = None,
                       initial_layout: np.ndarray | None = None) -> BalanceResult:
    """Bisection on the SINR target; each probe is one exposure-min solve.

    Returns the largest probed target whose minimal exposure fits the budget.
    If no bisection probe fits, up to ``MAX_DESCENTS`` further probes halve the
    target below the lowest infeasible one (ladder phase ``"descend"``) until one
    fits, and bisection resumes above it when the gap to the infeasible probe
    exceeds the accuracy. If none fits, the result is the trivial solution at
    target 0 with the warning ``no_feasible_probe``. ``iterations`` counts the
    bisection probes only.
    """
    t0 = time.perf_counter()
    config = config or BalanceConfig()
    solver_config = solver_config or SolverConfig()
    K = realization.num_users
    weights = np.ones(K) if config.weights is None else np.asarray(config.weights, dtype=float)
    budget = model.budget if config.budget is None else config.budget
    warnings: list[str] = []

    layout0 = uniform_line_layout(model.n_antennas, solver_config.region) \
        if initial_layout is None else np.array(initial_layout, dtype=float)

    ladder: list[tuple] = []
    best: SolveReport | None = None
    best_beta = 0.0
    warm: SolveReport | None = None
    warm_beta = 0.0

    def probe(beta0: float, phase: str):
        nonlocal warm, warm_beta
        cfg = solver_config
        kwargs: dict = {"initial_layout": layout0}
        if config.warm_start and warm is not None and warm_beta > 0 and beta0 > 0:
            # power-match the warm precoder to the new target scale, otherwise a
            # large restart penalty pins the probe at the previous power level
            kwargs = {
                "initial_layout": warm.layout,
                "initial_precoder": warm.precoder * np.sqrt(beta0 / warm_beta),
            }
            mu_warm = warm.final_mu * solver_config.a ** WARM_MU_BACKOFF
            if mu_warm > solver_config.mu0:
                cfg = replace(solver_config, mu0=mu_warm)
        rep = solve_sar_min(realization, SinrTargets(weights, beta0), model, cfg, **kwargs)
        ok = rep.converged and rep.feasible and rep.sar <= budget
        ladder.append((phase, beta0, rep.sar, bool(ok), bool(rep.converged)))
        if config.warm_start:
            warm = rep if rep.converged else None
            warm_beta = beta0
        return rep, ok

    if budget <= 0:
        return BalanceResult(0.0, np.zeros((model.n_antennas, K), dtype=complex), layout0,
                             0.0, budget, None, ladder, 0, ["zero_budget"],
                             time.perf_counter() - t0)

    if config.bracket is not None:
        beta_lo, beta_hi = config.bracket
    else:
        beta_lo = 0.0
        beta_hi = default_upper_bracket(realization, model, weights, layout0,
                                        solver_config.wavelength, budget)

    rep, ok = probe(beta_hi, "bracket")
    expansions = 0
    while ok and expansions < MAX_EXPANSIONS:
        best, best_beta, beta_lo = rep, beta_hi, beta_hi
        beta_hi *= 2.0
        expansions += 1
        rep, ok = probe(beta_hi, "bracket")
    if ok:
        warnings.append("bracket_exhausted")
        return BalanceResult(beta_hi, rep.precoder, rep.layout, rep.sar, budget, rep,
                             ladder, 0, warnings, time.perf_counter() - t0)

    iterations = 0
    descents = 0
    while True:
        while beta_hi - beta_lo > config.accuracy:
            beta0 = 0.5 * (beta_lo + beta_hi)
            rep, ok = probe(beta0, "bisect")
            iterations += 1
            if ok:
                beta_lo = beta0
                best, best_beta = rep, beta0
            else:
                beta_hi = beta0
        if best is not None or descents == MAX_DESCENTS:
            break
        # the bracket closed before any probe fit the budget, which refutes
        # its lower end: halve below the lowest infeasible probe. Once a probe
        # b fits, the loop bisects what is left of [b, 2b]; from a bracket that
        # starts at 0 that is already narrower than the accuracy.
        beta_lo = 0.0
        beta0 = 0.5 * beta_hi
        rep, ok = probe(beta0, "descend")
        descents += 1
        if ok:
            beta_lo = beta0
            best, best_beta = rep, beta0
        else:
            beta_hi = beta0

    if best is None:
        # nothing fit even after the descent; emit the trivial solution
        warnings.append("no_feasible_probe")
        best = solve_sar_min(realization, SinrTargets(weights, 0.0), model,
                             solver_config, initial_layout=layout0)
        best_beta = 0.0

    # a feasible probe above an infeasible one means the probe curve was not
    # monotone in beta0; surface it rather than assume it away
    feas = [(b, ok) for _, b, _, ok, _ in ladder]
    worst_feasible = max((b for b, ok in feas if ok), default=None)
    best_infeasible = min((b for b, ok in feas if not ok), default=None)
    if worst_feasible is not None and best_infeasible is not None \
            and worst_feasible > best_infeasible:
        warnings.append("non_monotone_ladder")

    return BalanceResult(best_beta, best.precoder, best.layout, best.sar, budget,
                         best, ladder, iterations, warnings, time.perf_counter() - t0)
