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
trivial solution at target 0 with the warning ``no_feasible_probe``, which a
channel with a user whose path gains are all zero gets without a probe.

Each probe lies between the highest probe that fit and the lowest that did
not, so every infeasible probe bounds the answer from above: a search given a
value to beat stops at its first infeasible probe at or below it (``outbid``).
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
# a relative SAR fall between probes that still counts as rounding, not as a
# non-monotone ladder: far below the feasibility slack, far above rounding
SAR_RTOL = 1e-9


@dataclass(frozen=True)
class BalanceConfig:
    """Bisection accuracy, bracket and weights for one balancing solve."""

    accuracy: float = 1e-4
    bracket: tuple[float, float] | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.accuracy < np.inf:  # false for NaN too
            raise ConfigurationError("bisection accuracy must be a finite positive number")
        if self.bracket is not None:
            lo, hi = self.bracket
            if not (0 <= lo < hi < np.inf):
                raise ConfigurationError("bracket must satisfy 0 <= lo < hi < inf")
        if self.weights is not None:  # the targets' rule: 1-D, finite and positive
            SinrTargets(self.weights, 0.0)


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
                          wavelength: float) -> float:
    """Power-limited upper bound on the attainable weighted SINR.

    A single interference-free user cannot beat ||h_k||^2 ||p_k||^2 / sigma^2,
    and the budget caps ||p||^2 at Q0 over the smallest eigenvalue of the
    exposure matrix; the factor 4 leaves slack for position gains.
    """
    H = channel_matrix(layout, realization, wavelength)
    gains = np.linalg.norm(H, axis=1) ** 2
    w = np.asarray(weights, dtype=float)
    return float(4.0 * np.max((model.budget / model.min_eig) * gains
                              / (realization.noise_variance * w)))


def _bisection_grid(lo: float, hi: float, accuracy: float):
    """The targets that bisection of [lo, hi] down to ``accuracy`` can probe,
    by index 0..top, and top. Index k is the midpoint of [k - t, k + t], t the
    lowest set bit of k, in the floats that bisection computes. Halving also
    stops at cells two float spacings of hi wide: below that, midpoints repeat
    their ends and probes repeat."""
    top, width = 1, hi - lo
    while width > max(accuracy, 2.0 * math.ulp(hi)):
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


class _Outbid(Exception):
    """An infeasible probe at or below the value to beat; args: its report."""


def solve_sinr_balance(realization: ChannelRealization, model: SarModel,
                       config: BalanceConfig | None = None,
                       solver_config: SolverConfig | None = None,
                       initial_layout: np.ndarray | None = None, *,
                       beats: float | None = None) -> BalanceResult:
    """Search on the SINR target; each probe is one exposure-min solve.

    The upper bracket end is probed, and doubled while it fits (ladder phase
    ``"bracket"``); the bracket is then narrowed to the accuracy (``"bisect"``).
    If no probe fits, the first ``MAX_DESCENTS`` halvings of the lowest
    infeasible probe are searched (``"descend"``), and the cell [b, 2b] above
    the answer is narrowed.

    ``beats``, a beta* to beat, stops the search at its first infeasible probe
    at or below it: the answer lies below every infeasible probe, so it can
    no longer reach ``beats``. The result then keeps the ladder so far, with
    the warning ``outbid``, and the best probe that fit (beta* 0 and the
    stopping probe's report where none did).
    """
    t0 = time.perf_counter()
    config = config or BalanceConfig()
    solver_config = solver_config or SolverConfig()
    K = realization.num_users
    weights = np.ones(K) if config.weights is None else np.asarray(config.weights, dtype=float)
    if weights.size != K:
        raise ConfigurationError("weights and channel disagree on the user count")
    budget = model.budget
    warnings: list[str] = []

    layout0 = uniform_line_layout(model.n_antennas, solver_config.region) \
        if initial_layout is None else np.array(initial_layout, dtype=float)
    ladder: list[tuple] = []

    def result(beta_star: float, rep: SolveReport) -> BalanceResult:
        return BalanceResult(beta_star, rep.precoder, rep.layout, rep.sar, budget, rep,
                             ladder, warnings, time.perf_counter() - t0)

    def trivial() -> SolveReport:
        # the solution at target 0, for a balance that no probe fits
        warnings.append("no_feasible_probe")
        return solve_sar_min(realization, SinrTargets(weights, 0.0), model,
                             solver_config, initial_layout=layout0)

    if not all(np.any(ps.path_gains) for ps in realization.paths):
        # a user with no path gain has h_k(t) = 0 at every layout: no probe fits
        return result(0.0, trivial())

    # a probe starts from the last converged one only on a continuously moving
    # layout: lattice moves happen in the low-penalty phase that a warm start
    # skips, and a fixed layout's exact solve has nothing to resume
    warm_probes = solver_config.optimize_positions and not solver_config.lattice
    warm: SolveReport | None = None
    fit = None  # (beta0, report) of the last probe that fit: the highest so far

    def probe(beta0: float, phase: str):
        nonlocal warm, fit
        cfg = solver_config
        kwargs: dict = {"initial_layout": layout0}
        if warm is not None and warm.config["beta0"] > 0 and beta0 > 0:
            # power-match the warm precoder to the new target scale, otherwise a
            # large restart penalty pins the probe at the previous power level;
            # mu resumes at the warm probe's final value, which the stopping
            # rule on xi puts where that probe's layout stopped moving
            kwargs = {
                "initial_layout": warm.layout,
                "initial_precoder": warm.precoder * np.sqrt(beta0 / warm.config["beta0"]),
            }
            if warm.final_mu > solver_config.mu0:
                cfg = replace(solver_config, mu0=warm.final_mu)
        rep = solve_sar_min(realization, SinrTargets(weights, beta0), model, cfg, **kwargs)
        ok = rep.converged and rep.feasible and rep.sar <= budget
        ladder.append((phase, beta0, rep.sar, bool(ok), bool(rep.converged)))
        if warm_probes:
            warm = rep if rep.converged else None
        if ok:
            fit = beta0, rep
        elif beats is not None and beta0 <= beats:
            raise _Outbid(rep)
        return rep, ok

    if config.bracket is not None:
        beta_lo, beta_hi = config.bracket
    else:
        beta_lo = 0.0
        beta_hi = default_upper_bracket(realization, model, weights, layout0,
                                        solver_config.wavelength)

    try:
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
            return result(beta_hi, rep)

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
    except _Outbid as stop:
        warnings.append("outbid")
        lo = fit or (0.0, stop.args[0])

    best_beta, best = lo
    if best is None:  # nothing fit even after the descent
        best_beta, best = 0.0, trivial()

    # a converged probe whose SAR is below that of one at a smaller target
    # means the probe curve was not monotone in beta0 (no fitting probe lies
    # above a failing one: see the module docstring); surface it
    rows = sorted(ladder, key=lambda row: (row[1], not row[3], row[2]))
    sars = [row[2] for row in rows if row[4]]
    if any(b < a * (1.0 - SAR_RTOL) for a, b in zip(sars, sars[1:])):
        warnings.append("non_monotone_ladder")

    return result(best_beta, best)
