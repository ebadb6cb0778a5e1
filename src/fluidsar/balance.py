"""Max-min weighted SINR under an exposure budget, by a search on the target.

The balancing problem and the exposure-minimization problem are inverse to
each other: the budget spent by the minimizer at target beta0 is exactly the
budget at which the balancer attains beta0. Each probe therefore runs the
minimizer at one target, and the answer is the largest probed target whose
minimal exposure fits the budget.

The probes stay on the grid of bisection down to the absolute accuracy, but
Illinois regula falsi on (log beta0, log SAR), which is nearly linear, picks
where on it to probe. If no probe fits, the same search runs on the halvings
of the lowest infeasible probe; if none fits either, the result is the
trivial solution at target 0 with the warning ``no_feasible_probe``.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    ChannelRealization,
    ConfigurationError,
    _JsonDoc,
    _jsonable,
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
class BalanceResult(_JsonDoc):
    JSON_SKIP = ("report",)

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

    @property
    def probes(self) -> dict:
        """Probes by ladder phase."""
        return {phase: sum(row[0] == phase for row in self.ladder)
                for phase in ("bracket", "bisect", "descend")}

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "solution": _jsonable(self.report)}


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


def _bisection_grid(lo: float, hi: float, accuracy: float):
    """The targets that bisection of [lo, hi] down to ``accuracy`` can probe,
    by index 0..top, and top. Index k is the midpoint of [k - t, k + t], t the
    lowest set bit of k, in the floats that bisection computes."""
    top, width = 1, hi - lo
    while width > accuracy:
        top, width = 2 * top, 0.5 * width
    grid = {0: lo, top: hi}

    def beta(k):
        if k not in grid:
            t = k & -k
            grid[k] = 0.5 * (beta(k - t) + beta(k + t))
        return grid[k]
    return beta, top


def _search(beta, top: int, ra, rb, probe, budget: float):
    """Narrow the indices [0, top] of the rising grid ``beta`` to adjacent a, b:
    b is over budget, a fits it (or is the end 0 unprobed, ``ra`` None).

    Illinois regula falsi on (log beta, log SAR/budget) finds the grid cell of
    the root, and its end nearer in log is probed; with no report at a, the
    step takes SAR proportional to beta. The midpoint is probed instead when
    b did not converge or [a, b] has not halved in 3 steps.
    """
    def excess(rep):  # log(SAR/budget) of a converged probe
        return math.log(rep.sar / budget) if rep and rep.converged and rep.sar > 0 else None

    a, b, moved, widths = 0, top, None, []
    ga, gb = excess(ra), excess(rb)
    while b - a > 1:
        widths.append(b - a)
        k = (a + b) // 2
        if gb is not None and gb > 0 and (len(widths) < 4 or 2 * widths[-1] <= widths[-4]):
            xb = math.log(beta(b))
            y = math.exp(xb - gb * (1.0 if ga is None else
                                    (xb - math.log(beta(a))) / (gb - ga)))
            i, j = a, b
            while j - i > 1:  # the cell [i, j] that holds y
                m = (i + j) // 2
                i, j = (m, j) if beta(m) <= y else (i, m)
            k = j if i == a or (j < b and beta(i) * beta(j) < y * y) else i
        rep, ok = probe(beta(k))
        if ok:  # Illinois: an end kept twice in a row counts half
            a, ra, ga = k, rep, excess(rep)
            gb = gb / 2 if moved and gb is not None else gb
        else:
            b, rb, gb = k, rep, excess(rep)
            ga = ga / 2 if moved is False and ga is not None else ga
        moved = ok
    return (beta(a), ra), (beta(b), rb)


def solve_sinr_balance(realization: ChannelRealization, model: SarModel,
                       config: BalanceConfig | None = None,
                       solver_config: SolverConfig | None = None,
                       initial_layout: np.ndarray | None = None) -> BalanceResult:
    """Search on the SINR target; each probe is one exposure-min solve.

    The upper bracket end is probed, and doubled while it fits (ladder phase
    ``"bracket"``); the bracket is then narrowed to the accuracy (``"bisect"``).
    If no probe fits, the first ``MAX_DESCENTS`` halvings of the lowest
    infeasible probe are searched (``"descend"``), and the cell [b, 2b] above
    the answer is narrowed. ``iterations`` counts the ``"bisect"`` probes.
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
    lo = (beta_lo, None)
    expansions = 0
    while ok and expansions < MAX_EXPANSIONS:
        lo = (beta_hi, rep)
        beta_hi *= 2.0
        expansions += 1
        rep, ok = probe(beta_hi, "bracket")
    if ok:
        warnings.append("bracket_exhausted")
        return BalanceResult(beta_hi, rep.precoder, rep.layout, rep.sar, budget, rep,
                             ladder, 0, warnings, time.perf_counter() - t0)

    lo, hi = _search(*_bisection_grid(lo[0], beta_hi, config.accuracy), lo[1], rep,
                     lambda b: probe(b, "bisect"), budget)
    if lo[1] is None:
        # no probe fit, which refutes the bracket's lower end: search the
        # halvings of the lowest infeasible probe, then narrow [b, 2b]
        h, top = hi[0], MAX_DESCENTS + 1
        lo, hi = _search(lambda i: math.ldexp(h, i - top) if i else 0.0, top, None, hi[1],
                         lambda b: probe(b, "descend"), budget)
        if lo[1] is not None and hi[0] - lo[0] > config.accuracy:
            lo, hi = _search(*_bisection_grid(lo[0], hi[0], config.accuracy), lo[1], hi[1],
                             lambda b: probe(b, "bisect"), budget)

    best_beta, best = lo
    if best is None:
        # nothing fit even after the descent; emit the trivial solution
        warnings.append("no_feasible_probe")
        best = solve_sar_min(realization, SinrTargets(weights, 0.0), model,
                             solver_config, initial_layout=layout0)
        best_beta = 0.0

    # a feasible probe above an infeasible one, or a converged probe whose SAR
    # is below that of one at a smaller target, means the probe curve was not
    # monotone in beta0; surface it rather than assume it away
    rows = sorted(ladder, key=lambda row: (row[1], not row[3], row[2]))
    oks, sars = [row[3] for row in rows], [row[2] for row in rows if row[4]]
    if oks != sorted(oks, reverse=True) or sars != sorted(sars):
        warnings.append("non_monotone_ladder")

    return BalanceResult(best_beta, best.precoder, best.layout, best.sar, budget, best,
                         ladder, sum(row[0] == "bisect" for row in ladder),
                         warnings, time.perf_counter() - t0)
