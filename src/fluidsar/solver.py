"""Two-layer penalty solver for QoS-constrained exposure minimization.

Outer layer grows the penalty factor mu geometrically (mu <- mu/a); the inner
layer alternates three block updates on the penalized objective

    sum_k p_k^H R p_k + mu * sum_{k,j} |h_k(t)^H p_j - z_{k,j}|^2

  1. precoder columns p_k from the closed-form stationarity system,
  2. auxiliary variables z_{k,j} from K independent dual problems, each a
     single-multiplier bisection,
  3. antenna positions t_m one at a time by majorize-minimize steps; when the
     free step leaves the box or breaks the spacing, the step is its exact
     projection onto the box and the spacing rows linearized at t_m. Each
     step is backtracked on a local curvature: it starts at half the one the
     antenna last accepted in this solve (never below tau_m / 256) and
     doubles until the quadratic surrogate lies above the objective at the
     step, up to the global bound tau_m, where majorization guarantees it.
     With ``position_grid`` set, each antenna instead moves to its best
     allowed point of that lattice, which the antennas start on and never leave.

The coupling residual xi = sum |h_k^H p_j - z_{k,j}|^2 is the outer stopping
indicator: the loop converges at the first outer iteration with xi below
eps_outer whose layout admits an exact solve (``fixed.optimal_precoder``),
and that solve's precoder, with every SINR on its floor, is emitted in place
of the penalty iterate. A lattice path has a second exit: after an outer
iteration that moved no antenna, once no lattice move can lower the residual
(``_lattice_settled``: ||P[m, :]|| d(t_m) >= 2 sqrt(xi) for every antenna,
d(t) the distance from t's conj-channel row to the nearest other row), the
exact solve at that layout ends the path just as the xi rule does. A fixed
layout (``optimize_positions=False``) runs no penalty iteration: the exact
solve is the whole answer.

Cache lifetimes: ``solve_sar_min`` builds one geometry cache (``_GeoCache``:
direction cosines and conjugated path gains of the channel, and the local
curvature each antenna last accepted) and hands it to every inner loop of the
solve. With a position lattice, the cache builds the lattice's tables
(``_Lattice``: candidate channel rows, in-region and pair spacing masks, point
index) on the first lattice search and keeps them for the rest of the solve.
Nothing outlives the solve. The single-step public helpers
(``position_gradient``, ``update_position``, ...) build a cache per call.
"""
from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    ChannelRealization,
    ConfigurationError,
    Region,
    _JsonDoc,
    _signal_interference,
    channel_matrix,
    layout_is_feasible,
    min_pairwise_distance,
    sinr_all,
    uniform_line_layout,
)
from .exposure import SarModel, sar_value
from .fixed import optimal_precoder

__all__ = [
    "SinrTargets",
    "SolverConfig",
    "SolveReport",
    "SolverError",
    "DegenerateUserError",
    "solve_precoder",
    "solve_auxiliary",
    "position_objective",
    "position_gradient",
    "position_majorizer",
    "position_qp",
    "update_position",
    "inner_loop",
    "solve_sar_min",
    "coupling_residual",
]


class SolverError(RuntimeError):
    pass


class DegenerateUserError(SolverError):
    """A user has h_k^H p_k = 0 while its SINR constraint is violated."""

    def __init__(self, users):
        self.users = list(users)
        super().__init__(
            f"degenerate auxiliary step for users {self.users}: "
            "h_k^H p_k = 0 with an infeasible unconstrained point")


# relative SINR shortfall a solution may keep and still count as feasible
FEASIBILITY_SLACK = 1e-5
# the penalty loop stops on a plateau when xi fell by less than
# PLATEAU_REL_DECREASE over the last PLATEAU_WINDOW outer iterations
PLATEAU_WINDOW = 20
PLATEAU_REL_DECREASE = 0.01
# the position block's backtracked curvature never starts below this
# fraction of the majorizer tau (a power of two: doublings reach tau exactly)
TAU_LOC_FLOOR = 2.0 ** -8


@dataclass(frozen=True)
class SinrTargets:
    """Per-user weighted SINR floors: threshold_k = beta0 * weight_k."""

    weights: np.ndarray
    beta0: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or np.any(w <= 0):
            raise ConfigurationError("SINR weights must be positive")
        if self.beta0 < 0:
            raise ConfigurationError("beta0 must be non-negative")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, num_users: int, beta0: float) -> "SinrTargets":
        return cls(weights=np.ones(num_users), beta0=float(beta0))

    @property
    def thresholds(self) -> np.ndarray:
        return self.beta0 * self.weights

    @property
    def num_users(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances, caps and geometry for one exposure-minimization solve."""

    region: Region = field(default_factory=Region)
    mu0: float = 1e-3
    a: float = 0.9
    eps_inner: float = 1e-4       # inner-loop objective decrease threshold
    eps_outer: float = 1e-7       # stopping-indicator threshold on xi
    eps_position: float = 1e-4    # per-antenna SCA decrease threshold
    # optional scale-relative floors on the two decrease thresholds; at large
    # constraint scales the absolute thresholds above force full-cap sweeps
    eps_inner_rel: float = 0.0
    eps_position_rel: float = 0.0
    max_outer: int = 500
    max_inner: int = 200
    max_sca_iter: int = 30
    optimize_positions: bool = True
    # when set, the position block picks each antenna's best point from this
    # (n, 2) lattice instead of taking continuous majorize-minimize steps
    position_grid: tuple | None = None

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise ConfigurationError("penalty scaling a must lie in (0, 1)")
        if self.mu0 <= 0:
            raise ConfigurationError("initial penalty factor must be positive")

    @property
    def wavelength(self) -> float:
        return self.region.wavelength

    @property
    def distance(self) -> float:
        """Minimum antenna spacing: half a wavelength."""
        return self.wavelength / 2.0

    def to_dict(self) -> dict:
        return {
            "half_width": self.region.half_width,
            "wavelength": self.region.wavelength,
            "min_distance": self.distance,
            "mu0": self.mu0,
            "a": self.a,
            "eps_inner": self.eps_inner,
            "eps_outer": self.eps_outer,
            "eps_position": self.eps_position,
            "eps_inner_rel": self.eps_inner_rel,
            "eps_position_rel": self.eps_position_rel,
            "feasibility_slack": FEASIBILITY_SLACK,
            "max_outer": self.max_outer,
            "max_inner": self.max_inner,
            "max_sca_iter": self.max_sca_iter,
            "optimize_positions": self.optimize_positions,
            "discrete_positions": self.position_grid is not None,
        }


# ---------------------------------------------------------------------------
# geometry cache: per-user direction cosines and conjugated gains, stacked
# ---------------------------------------------------------------------------

class _GeoCache:
    def __init__(self, realization: ChannelRealization, wavelength: float):
        self.kappa = 2.0 * np.pi / wavelength
        self.ax, self.ay, gains = realization._stacked  # (K, L) each
        self.fbar = gains.conj()
        self.abs_gain_sum = np.abs(self.fbar).sum(axis=1)  # (K,)
        self._lattice = None
        # antenna -> the local curvature its last accepted SCA step used
        self.tau_accepted: dict[int, float] = {}

    def phase_terms(self, t) -> np.ndarray:
        """Per-path terms of conj(h_k) for one antenna at t, shape (K, L)."""
        return self.fbar * np.exp(1j * self.kappa * (t[0] * self.ax + t[1] * self.ay))

    def conj_rows(self, points: np.ndarray) -> np.ndarray:
        """conj(h_k) values for antennas at each of n points, shape (n, K)."""
        phase = np.exp(1j * self.kappa * (points[:, 0, None, None] * self.ax[None, :, :]
                                          + points[:, 1, None, None] * self.ay[None, :, :]))
        return (self.fbar[None, :, :] * phase).sum(axis=2)

    def lattice(self, position_grid, half_width_m: float, min_distance: float) -> "_Lattice":
        """The candidate lattice of ``position_grid`` in a box of half-width
        ``half_width_m`` with spacing ``min_distance``, built once per cache."""
        lat = self._lattice
        if lat is None or lat.key[0] is not position_grid \
                or lat.key[1:] != (half_width_m, min_distance):
            lat = self._lattice = _Lattice(self, position_grid, half_width_m, min_distance)
        return lat


class _Lattice:
    """What the lattice search needs about its n candidate points, sorted in
    (x, y) order so that the first best candidate is the lowest (x, y).

    ``hbar`` holds the conj-channel rows (n, K), each computed independently
    of the others. ``spaced[i, j]`` says whether points i and j keep the
    minimum spacing; ``index`` maps an (x, y) point of ``grid`` to its row.
    """

    def __init__(self, geo: _GeoCache, position_grid, half_width_m: float,
                 min_distance: float):
        self.key = (position_grid, half_width_m, min_distance)
        grid = np.asarray(position_grid, dtype=float)
        grid = self.grid = grid[np.lexsort((grid[:, 1], grid[:, 0]))]
        self.hbar = geo.conj_rows(grid)
        self.in_region = np.all(np.abs(grid) <= half_width_m, axis=1)
        # dx*dx + dy*dy: the two squares and the two-term sum of
        # ((g_i - g_j) ** 2).sum(), without an (n, n, 2) temporary
        dx = grid[:, 0, None] - grid[None, :, 0]
        dy = grid[:, 1, None] - grid[None, :, 1]
        dx *= dx
        dy *= dy
        dx += dy
        self.spaced = dx >= min_distance ** 2
        self.index = {p: i for i, p in enumerate(map(tuple, grid.tolist()))}


def _geo(realization: ChannelRealization, wavelength: float) -> _GeoCache:
    if realization._stacked is None:
        raise ConfigurationError("per-user path counts must match")
    return _GeoCache(realization, wavelength)


# ---------------------------------------------------------------------------
# block 1: precoder update
# ---------------------------------------------------------------------------

def solve_precoder(H: np.ndarray, Z: np.ndarray, model: SarModel, mu: float) -> np.ndarray:
    """Minimizer of the penalized objective over the precoder columns.

    Solves (R + R^H + 2 mu sum_i h_i h_i^H) p_k = 2 mu sum_i z_{i,k} h_i for
    every k at once; with R positive definite the system is too. A solve that
    fails or leaves a residual above 1e-8 of the right-hand side raises
    ``SolverError``.
    """
    if mu <= 0:
        raise SolverError("precoder step requires a positive penalty factor")
    R = model.matrix
    A = R + R.conj().T + 2.0 * mu * (H.T @ H.conj())
    B = 2.0 * mu * (H.T @ Z)
    try:
        P = np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular precoder system") from exc
    if np.linalg.norm(A @ P - B) > 1e-8 * max(1.0, float(np.linalg.norm(B))):
        raise SolverError("precoder stationarity residual too large")
    return P


# ---------------------------------------------------------------------------
# block 2: auxiliary variables via per-user duals
# ---------------------------------------------------------------------------

def solve_auxiliary(H: np.ndarray, P: np.ndarray, targets: SinrTargets,
                    noise_variance: float):
    """Project the couplings h_k^H p_j onto the SINR-feasible set, per user.

    Returns (Z, zeta, gap): for users already satisfying their constraint
    zeta_k = 0 and the row of Z equals the raw couplings; otherwise zeta_k in
    (0, 1) is the multiplier that puts the constraint on its boundary, found
    by bisection on the monotone root function. The returned multiplier is the
    feasible end of the final bracket, so Z always satisfies the constraints;
    ``gap`` certifies how far the projection value can sit above the true
    minimum (the objective difference across the final bracket).
    """
    C = H.conj() @ P  # (K, K), row k holds h_k^H p_j
    K = C.shape[0]
    sig, interf = _signal_interference(C)
    # |C|^2 and its row sums stay in numpy (its complex modulus is not
    # Python's abs); the rest runs on Python floats: at most K users, where
    # per-call array overhead would dominate. Each expression repeats the
    # operations of its array form in the same order, so the bits match.
    beta0 = targets.beta0
    users, need = [], []
    for k, (sk, ik, wk) in enumerate(zip(sig.tolist(), interf.tolist(),
                                         targets.weights.tolist())):
        gk = beta0 * wk
        if sk - gk * (ik + noise_variance) < 0:
            need.append((k, ik))
            users.append((sk, ik * gk, gk, gk * noise_variance))
    if not need:
        return C.copy(), np.zeros(K), 0.0

    # the bisection: the root function
    #     s / (1 - z)^2 - w / (1 + z g)^2 - g sigma^2
    # is written out inline with the operations of its array form. All users
    # take the same number of steps: the bisection stops once every user's
    # stopping test is met, or after 60 steps. Each rounded operation is
    # monotone in z, so y_hi = f(hi) never grows as hi falls, and hi - lo
    # never grows: a test once met stays met. The users' brackets are
    # independent, so each user runs until its own test is met, and then all
    # continue to the largest of those step counts.
    hi0 = 1.0 - 1e-9
    brackets = []
    for su, wu, gu, gnu in users:
        a = 1.0 - hi0
        b = 1.0 + hi0 * gu
        brackets.append((0.0, hi0, su / (a * a) - wu / (b * b) - gnu, 0))
    degenerate = [k for (k, _), (_, _, y, _) in zip(need, brackets) if y <= 0.0]
    if degenerate:
        raise DegenerateUserError(degenerate)

    brackets = [_dual_bisection(u, *br, 0, 60) for u, br in zip(users, brackets)]
    steps = max(k for _, _, _, k in brackets)
    brackets = [_dual_bisection(u, *br, steps, 0) for u, br in zip(users, brackets)]

    def value(su, iu, gu, z):
        # squared projection distance along the dual path at multiplier z
        r = z / (1.0 - z)
        q = z * gu / (1.0 + z * gu)
        return su * (r * r) + iu * (q * q)

    def scaled(c, d):
        # numpy's complex / real: (re + im * 0) * (1 / d), (im - re * 0) * (1 / d)
        f = 1.0 / d
        return complex((c.real + c.imag * 0.0) * f, (c.imag - c.real * 0.0) * f)

    rows = C.tolist()
    zeta = [0.0] * K
    gaps = []
    for (k, iu), (su, _, gu, _), (lo, hi, _, _) in zip(need, users, brackets):
        gaps.append(value(su, iu, gu, hi) - value(su, iu, gu, lo))
        zeta[k] = hi  # feasible side of the bracket
        row = [scaled(c, 1.0 + hi * gu) for c in rows[k]]
        row[k] = scaled(rows[k][k], 1.0 - hi)
        rows[k] = row
    return np.array(rows, dtype=complex), np.array(zeta), float(np.add.reduce(gaps))


def _dual_bisection(user, lo: float, hi: float, y_hi: float, k: int, k_min: int, k_max: int):
    """Bisection steps on one user's dual root function, on Python floats:
    at least until step ``k_min``, and on up to step ``k_max`` while the
    stopping test is open (root value at ``hi`` within 1e-10 g sigma^2 of
    zero, or a bracket narrower than 1e-14). Returns (lo, hi, y_hi, k)."""
    su, wu, gu, gnu = user
    tol = 1e-10 * gnu
    while k < k_min or (k < k_max and not (y_hi <= tol or hi - lo < 1e-14)):
        mid = 0.5 * (lo + hi)
        a = 1.0 - mid
        b = 1.0 + mid * gu
        ym = su / (a * a) - wu / (b * b) - gnu
        if ym < 0.0:
            lo = mid
        else:
            hi = mid
            y_hi = ym
        k += 1
    return lo, hi, y_hi, k


# ---------------------------------------------------------------------------
# block 3: antenna position step
# ---------------------------------------------------------------------------

def coupling_residual(positions: np.ndarray, realization: ChannelRealization,
                      P: np.ndarray, Z: np.ndarray, wavelength: float) -> float:
    """Total squared coupling residual sum |h_k^H p_j - z_{k,j}|^2 (the xi indicator)."""
    H = channel_matrix(positions, realization, wavelength)
    E = H.conj() @ P - Z
    return float(np.vdot(E, E).real)


# the position objective is the same residual, read as a function of one antenna
position_objective = coupling_residual


def _gradient_from_terms(q: np.ndarray, geo: _GeoCache, P: np.ndarray,
                         E: np.ndarray, m: int) -> tuple[float, float]:
    s = E.conj() @ P[m, :]
    sq = s[:, None] * q
    gx = -2.0 * geo.kappa * (geo.ax * sq).sum().imag
    gy = -2.0 * geo.kappa * (geo.ay * sq).sum().imag
    return float(gx), float(gy)


def position_gradient(m: int, positions: np.ndarray, realization: ChannelRealization,
                      P: np.ndarray, Z: np.ndarray, wavelength: float) -> np.ndarray:
    """Exact gradient of the coupling residual with respect to t_m."""
    geo = _geo(realization, wavelength)
    H = channel_matrix(positions, realization, wavelength)
    E = H.conj() @ P - Z
    return np.array(_gradient_from_terms(geo.phase_terms(positions[m]), geo, P, E, m))


def _majorizers(geo: _GeoCache, P: np.ndarray, Z: np.ndarray, wavelength: float) -> np.ndarray:
    """Curvature bounds tau_m for all antennas (position-independent): the
    cap of the position block's backtracked local curvature."""
    absP = np.abs(P)              # (M, K)
    colsum = absP.sum(axis=0)     # (K,)
    s2 = float((geo.abs_gain_sum ** 2).sum())
    u = geo.abs_gain_sum @ np.abs(Z)  # (K,): sum_k S_k |z_{k,j}|
    per_antenna = (
        s2 * (2.0 * absP * (colsum[None, :] - absP) + absP ** 2).sum(axis=1)
        + 2.0 * (absP * u[None, :]).sum(axis=1)
    )
    return (8.0 * np.pi ** 2 / wavelength ** 2) * per_antenna


def position_majorizer(m: int, positions: np.ndarray, realization: ChannelRealization,
                       P: np.ndarray, Z: np.ndarray, wavelength: float) -> float:
    """Scalar tau_m with tau_m * I >= Hessian of the per-antenna objective."""
    geo = _geo(realization, wavelength)
    return float(_majorizers(geo, P, Z, wavelength)[m])


def _project_step(free, t_old, region: Region, others, min_distance: float):
    """Projection of the free step ``free`` onto the box and the spacing rows
    linearized at ``t_old``, on (x, y) pairs of Python floats; ``others``
    lists the other antennas. None when a neighbour sits on the antenna (no
    row can be set up) or when no point meets every row.

    Each row a.t >= b is unit-norm and is met within 1e-11 max(1, |b|). The
    free step is returned when it meets every row. Otherwise the projection
    onto a violated row that meets every row is the optimum: the polygon lies
    inside that row's half-plane. Failing that, at least two rows are active
    at the optimum, which is then the feasible pairwise vertex nearest the
    free step (lowest (x, y) on ties).
    """
    a_m = region.half_width_m
    rows = [(1.0, 0.0, -a_m), (-1.0, 0.0, -a_m), (0.0, 1.0, -a_m), (0.0, -1.0, -a_m)]
    tx, ty = t_old
    for ox, oy in others:
        dx = tx - ox
        dy = ty - oy
        nrm = math.sqrt(dx * dx + dy * dy)
        if nrm <= 0.0:
            return None
        nx = dx / nrm
        ny = dy / nrm
        rows.append((nx, ny, min_distance + (nx * ox + ny * oy)))
    rows = [(ax, ay, b, b - 1e-11 * max(1.0, abs(b))) for ax, ay, b in rows]

    def feasible(x, y):
        return all(ax * x + ay * y >= lo for ax, ay, _, lo in rows)

    def clip(x, y):
        return min(max(x, -a_m), a_m), min(max(y, -a_m), a_m)

    fx, fy = free
    if feasible(fx, fy):
        return clip(fx, fy)
    for ax, ay, b, lo in rows:
        if ax * fx + ay * fy < lo:
            # b a plus the free step's component along the row's line
            s = ax * fy - ay * fx
            x = b * ax - s * ay
            y = b * ay + s * ax
            if feasible(x, y):
                return clip(x, y)
    vertices = []
    for i, (ax, ay, bi, _) in enumerate(rows):
        for cx, cy, bj, _ in rows[i + 1:]:
            det = ax * cy - ay * cx
            if abs(det) <= 1e-14:
                continue
            x = (bi * cy - bj * ay) / det
            y = (ax * bj - cx * bi) / det
            if feasible(x, y):
                dx = x - fx
                dy = y - fy
                vertices.append((dx * dx + dy * dy, x, y))
    if not vertices:
        return None
    _, x, y = min(vertices)
    return clip(x, y)


def position_qp(tau: float, grad: np.ndarray, t_old: np.ndarray, region: Region,
                others: np.ndarray, min_distance: float) -> np.ndarray | None:
    """Minimize the quadratic surrogate under box and linearized spacing constraints.

    The surrogate 0.5 tau ||t||^2 + (grad - tau t_old).t equals
    0.5 tau ||t - t_free||^2 up to a constant, with t_free = t_old - grad / tau,
    so its minimizer is the projection of the free step onto the constraint
    polygon, found exactly by ``_project_step``. Returns None if nothing is
    feasible.
    """
    tx, ty = np.asarray(t_old, dtype=float).tolist()
    gx, gy = np.asarray(grad, dtype=float).tolist()
    t = _project_step((tx - gx / tau, ty - gy / tau), (tx, ty), region,
                      np.asarray(others, dtype=float).reshape(-1, 2).tolist(), min_distance)
    return None if t is None else np.array(t)


def _step_from_gradient(t_old, grad, tau: float, region: Region, min_distance: float,
                        others: list):
    """Free majorize-minimize step with QP fallback, on (x, y) pairs of Python
    floats; ``others`` lists the other antennas. Returns (t_new, status).

    The free step t_old - grad / tau is kept when it stays in the box and
    keeps the minimum spacing (status "free"), tested exactly, with the IEEE
    operations of the array form (x*x for a square, a two-term sum). Otherwise
    the step is its projection onto the box and the linearized spacing rows
    (``_project_step``, status "qp"), or t_old when there is none ("stuck").
    """
    cx = t_old[0] - grad[0] / tau
    cy = t_old[1] - grad[1] / tau
    a_m = region.half_width_m
    d2 = min_distance ** 2
    free = abs(cx) <= a_m and abs(cy) <= a_m
    for ox, oy in others:
        if not free:
            break
        dx = ox - cx
        dy = oy - cy
        free = dx * dx + dy * dy >= d2
    if free:
        return (cx, cy), "free"
    t_new = _project_step((cx, cy), t_old, region, others, min_distance)
    if t_new is None:
        return t_old, "stuck"
    return t_new, "qp"


def update_position(m: int, positions: np.ndarray, realization: ChannelRealization,
                    P: np.ndarray, Z: np.ndarray, region: Region, min_distance: float,
                    wavelength: float):
    """Single position update for antenna m (free step, QP fallback).

    Returns (t_new, status) with status in {"free", "qp", "stuck", "skipped"}.
    """
    geo = _geo(realization, wavelength)
    H = channel_matrix(positions, realization, wavelength)
    E = H.conj() @ P - Z
    tau = float(_majorizers(geo, P, Z, wavelength)[m])
    if tau <= 0.0:
        return positions[m], "skipped"
    points = np.asarray(positions, dtype=float).tolist()
    grad = _gradient_from_terms(geo.phase_terms(positions[m]), geo, P, E, m)
    t_new, status = _step_from_gradient(points[m], grad, tau, region, min_distance,
                                        points[:m] + points[m + 1:])
    return np.array(t_new), status


def _select_positions_on_grid(positions, geo, P, Z, region, min_distance, config, Hbar):
    """Per-antenna exhaustive search over the lattice: each antenna moves to
    the candidate that minimizes the coupling residual exactly, if that is
    below the residual where it stands. The candidates are the allowed lattice
    points and its own, in (x, y) order, so ties go to the lower x, then the
    lower y. Every antenna must sit on a lattice point. Mutates positions/Hbar.
    """
    lat = geo.lattice(config.position_grid, region.half_width_m, min_distance)
    at = [lat.index[p] for p in map(tuple, positions.tolist())]
    M = positions.shape[0]
    E = Hbar @ P - Z
    obj = float(np.vdot(E, E).real)
    pnorm2 = (np.abs(P) ** 2).sum(axis=1)  # ||P[m, :]||^2 per antenna
    for m in range(M):
        ok = lat.in_region.copy()
        for j in at[:m] + at[m + 1:]:
            ok &= lat.spaced[j]
        ok[at[m]] = True
        rows = np.flatnonzero(ok)
        # conj-channel values of the candidates, (n_c, K)
        delta = lat.hbar[rows] - Hbar[:, m][None, :]
        s = E.conj() @ P[m, :]
        obj_c = obj + 2.0 * np.real(delta @ s) + (np.abs(delta) ** 2).sum(axis=1) * pnorm2[m]
        best = int(obj_c.argmin())
        if obj_c[best] >= obj:
            continue
        at[m] = int(rows[best])
        positions[m] = lat.grid[at[m]]
        Hbar[:, m] = lat.hbar[at[m]]
        E = E + delta[best][:, None] * P[m, :][None, :]
        obj = float(np.vdot(E, E).real)
    E = Hbar @ P - Z
    return E, float(np.vdot(E, E).real), False


def _lattice_settled(lat: _Lattice, positions, P, xi: float) -> bool:
    """Whether no lattice move can lower a coupling residual E of
    ||E||^2 = xi: moving antenna m changes its conj-channel row by some delta
    and E by delta P[m, :], so ||E + delta P[m, :]|| >= |delta| ||P[m, :]|| -
    ||E|| >= ||E|| once ||P[m, :]|| d(t_m) >= 2 sqrt(xi) for every antenna,
    d(t) the distance from t's row to the nearest row of another point."""
    at = [lat.index[p] for p in map(tuple, positions.tolist())]
    d = np.linalg.norm(lat.hbar[None, :, :] - lat.hbar[at][:, None, :], axis=2)
    d[np.arange(len(at)), at] = np.inf
    return bool(np.all(np.linalg.norm(P, axis=1) * d.min(axis=1) >= 2.0 * math.sqrt(xi)))


def _sweep_positions(positions, geo, P, Z, region, min_distance, config, Hbar,
                     counts: dict | None = None):
    """Sequential per-antenna SCA descents; mutates positions/Hbar, returns
    (E, obj, stuck). ``counts``, when given, gains one per free, QP and stuck
    step under those status names, and one per curvature doubling under
    "backtrack"."""
    if config.position_grid is not None:
        return _select_positions_on_grid(positions, geo, P, Z, region, min_distance,
                                         config, Hbar)
    M = positions.shape[0]
    taus = _majorizers(geo, P, Z, region.wavelength).tolist()
    accepted = geo.tau_accepted
    any_stuck = False
    step_tol = 1e-8 * region.wavelength  # moves below this cannot matter
    for m in range(M):
        tau = taus[m]
        if tau <= 0.0:
            continue
        # refresh exactly per antenna so rank-1 update drift cannot accumulate
        E = Hbar @ P - Z
        obj = float(np.vdot(E, E).real)
        points = positions.tolist()
        t_old = points.pop(m)
        q = geo.phase_terms(t_old)
        for _ in range(config.max_sca_iter):
            grad = _gradient_from_terms(q, geo, P, E, m)
            # max|g| / tau < tol, tested per coordinate: division by tau > 0
            # is monotone, so the verdict is the same
            if abs(grad[0]) / tau < step_tol and abs(grad[1]) / tau < step_tol:
                break
            # backtracking: try half the curvature this antenna last
            # accepted, and double it until the surrogate at tau_loc lies
            # above the objective at the step; tau itself always qualifies
            tau_loc = min(tau, max(tau * TAU_LOC_FLOOR, 0.5 * accepted.get(m, 0.0)))
            while True:
                t_new, status = _step_from_gradient(t_old, grad, tau_loc, region,
                                                    min_distance, points)
                if status == "stuck":
                    break
                q_new = geo.phase_terms(t_new)
                hbar_new = q_new.sum(axis=1)
                delta = hbar_new - Hbar[:, m]
                E_new = E + delta[:, None] * P[m, :][None, :]
                obj_new = float(np.vdot(E_new, E_new).real)
                if tau_loc >= tau:
                    break
                dx = t_new[0] - t_old[0]
                dy = t_new[1] - t_old[1]
                bound = obj + (grad[0] * dx + grad[1] * dy) \
                    + 0.5 * tau_loc * (dx * dx + dy * dy)
                if obj_new <= bound + 1e-12 * obj:
                    break
                tau_loc = min(2.0 * tau_loc, tau)
                if counts is not None:
                    counts["backtrack"] = counts.get("backtrack", 0) + 1
            if counts is not None:
                counts[status] = counts.get(status, 0) + 1
            if status == "stuck":
                any_stuck = True
                break
            # the tolerance must stay relative: any absolute slack here gets
            # amplified by mu in the penalized objective the caller tracks
            if obj_new > obj * (1.0 + 1e-12):
                break  # numerically flat; keep the current point
            accepted[m] = tau_loc
            positions[m] = t_old = t_new
            Hbar[:, m] = hbar_new
            E = E_new
            q = q_new
            decrease = obj - obj_new
            obj = obj_new
            if decrease < max(config.eps_position, config.eps_position_rel * abs(obj)):
                break
    E = Hbar @ P - Z
    return E, float(np.vdot(E, E).real), any_stuck


# ---------------------------------------------------------------------------
# inner alternating loop and the full two-layer solve
# ---------------------------------------------------------------------------

def _matched_filter(H: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(H, axis=1)
    norms = np.where(norms > 0, norms, 1.0)
    return (H / norms[:, None]).T.conj()


def _reset_users(P: np.ndarray, H: np.ndarray, users) -> None:
    """Degenerate-user recovery: column k of P becomes h_k / ||h_k||."""
    for k in users:
        P[:, k] = H[k] / max(np.linalg.norm(H[k]), 1e-300)


def _penalized_objective(sar, E, mu):
    return sar + mu * float(np.vdot(E, E).real)


def inner_loop(realization: ChannelRealization, positions: np.ndarray, P: np.ndarray,
               Z: np.ndarray, model: SarModel, targets: SinrTargets, mu: float,
               config: SolverConfig, trace: list | None = None, outer_index: int = 0,
               counts: dict | None = None, geo: _GeoCache | None = None):
    """Alternate precoder / auxiliary / position blocks until the penalized
    objective decrease falls below eps_inner. Returns (P, Z, positions, Hbar, sweeps).

    ``counts``, when given, gains the number of continuous position steps by
    status ("free", "qp", "stuck") and of their curvature doublings
    ("backtrack"), as ``trace`` gains the objective trace.
    ``geo`` is the solve's geometry cache; without one, the loop builds its own.
    """
    if geo is None:
        geo = _geo(realization, config.wavelength)
    noise = realization.noise_variance
    positions = np.array(positions, dtype=float)
    Hbar = channel_matrix(positions, realization, config.wavelength).conj()
    prev = None
    last_value = None
    recovered = False
    sweeps = 0

    def record(label, value, extra_slack=0.0):
        nonlocal prev
        if trace is not None:
            trace.append((outer_index, label, value))
        if prev is not None and value > prev + 1e-9 * max(1.0, abs(prev)) + extra_slack:
            raise SolverError(
                f"inner objective increased at {label}: {prev!r} -> {value!r}")
        prev = value

    for _ in range(config.max_inner):
        sweeps += 1
        P = solve_precoder(Hbar.conj(), Z, model, mu)
        # only this block and degenerate-user recovery change P
        sar = sar_value(P, model)
        E = Hbar @ P - Z
        record("precoder", _penalized_objective(sar, E, mu))

        try:
            Z, _, gap = solve_auxiliary(Hbar.conj(), P, targets, noise)
        except DegenerateUserError as err:
            if recovered:
                raise
            recovered = True
            _reset_users(P, Hbar.conj(), err.users)
            Z, _, gap = solve_auxiliary(Hbar.conj(), P, targets, noise)
            sar = sar_value(P, model)
            prev = None  # objective baseline is void after re-initialization
            if trace is not None:
                trace.append((outer_index, "recovered", None))
        E = Hbar @ P - Z
        # the projection is certified optimal only to within mu * gap
        record("auxiliary", _penalized_objective(sar, E, mu), extra_slack=mu * gap)

        E, _, _ = _sweep_positions(positions, geo, P, Z, config.region,
                                   config.distance, config, Hbar, counts)
        record("positions", _penalized_objective(sar, E, mu))

        value = prev
        threshold = max(config.eps_inner, config.eps_inner_rel * abs(value))
        if last_value is not None and last_value - value < threshold:
            break
        last_value = value
    return P, Z, positions, Hbar, sweeps


class _Rows:
    """Append-only rows of fixed-type fields, held column by column in typed
    arrays (``array`` typecodes, one per field): a few bytes a row where a
    tuple of Python objects takes about a hundred. Rows read back as tuples of
    the values appended."""

    def __init__(self, codes: str):
        self._cols = tuple(array(c) for c in codes)

    def append(self, row):
        for col, v in zip(self._cols, self._store(row)):
            col.append(v)

    def __len__(self):
        return len(self._cols[0])

    def __getitem__(self, i):
        return self._load(tuple(col[i] for col in self._cols))

    def __iter__(self):
        return map(self._load, zip(*self._cols))

    @staticmethod
    def _store(row):
        return row

    _load = _store


class _ObjectiveTrace(_Rows):
    """The inner objective trace, rows (outer, label, value); the value of a
    "recovered" row is None."""

    LABELS = ("precoder", "auxiliary", "positions", "recovered")

    def __init__(self):
        super().__init__("iBd")

    def _store(self, row):
        outer, label, value = row
        return outer, self.LABELS.index(label), math.nan if value is None else value

    def _load(self, row):
        outer, code, value = row
        label = self.LABELS[code]
        return outer, label, None if label == "recovered" else value


@dataclass
class SolveReport(_JsonDoc):
    """Full trajectory and the emitted solution of one solve."""

    JSON_SKIP = ("aux",)

    precoder: np.ndarray
    layout: np.ndarray
    sar: float
    sinr: np.ndarray
    sinr_slack: np.ndarray
    beta_achieved: float
    min_distance: float
    in_region: bool
    feasible: bool
    converged: bool
    status: str
    xi: float
    outer_iterations: int
    inner_sweeps_total: int
    outer_trace: _Rows                       # (outer, mu, xi, objective, sweeps)
    inner_objective_trace: _ObjectiveTrace  # (outer, label, value)
    wall_time_s: float
    warnings: list
    config: dict
    aux: np.ndarray | None = None
    final_mu: float = 0.0
    # continuous position steps taken, by status: "free", "qp", "stuck"; and
    # "backtrack", the doublings of their local curvature
    position_steps: dict = field(default_factory=dict)


def solve_sar_min(realization: ChannelRealization, targets: SinrTargets, model: SarModel,
                  config: SolverConfig | None = None,
                  initial_layout: np.ndarray | None = None,
                  initial_precoder: np.ndarray | None = None) -> SolveReport:
    """Minimize exposure subject to per-user SINR floors, spacing and region
    constraints: the two-layer penalty algorithm moves the antennas, then the
    exact fixed-layout solve gives the precoder at the final layout. With
    ``optimize_positions=False`` the exact solve at the initial layout is the
    whole answer (no outer iteration; converged when the targets can be met)."""
    config = config or SolverConfig()
    t0 = time.perf_counter()
    M = model.n_antennas
    K = realization.num_users
    if targets.num_users != K:
        raise ConfigurationError("targets and channel disagree on the user count")
    noise = realization.noise_variance
    region = config.region
    dmin = config.distance

    if initial_layout is None:
        positions = uniform_line_layout(M, region)
    else:
        positions = np.array(initial_layout, dtype=float)
        if positions.shape != (M, 2):
            raise ConfigurationError("initial layout must have shape (M, 2)")
    if not layout_is_feasible(positions, region, dmin):
        raise ConfigurationError("initial antenna layout violates region or spacing")
    if config.position_grid is not None and not set(map(tuple, positions.tolist())) \
            <= set(map(tuple, np.asarray(config.position_grid, dtype=float).tolist())):
        raise ConfigurationError("initial antenna layout is off the position lattice")

    H = channel_matrix(positions, realization, config.wavelength)
    P = np.array(initial_precoder, dtype=complex) if initial_precoder is not None \
        else _matched_filter(H)
    warnings: list[str] = []
    status = "converged"
    outer_trace = _Rows("idddi")
    inner_trace = _ObjectiveTrace()
    xi, mu, Z, exact = 0.0, 0.0, None, None
    sweeps_total = 0
    outer_done = 0
    steps = {"free": 0, "qp": 0, "stuck": 0, "backtrack": 0}

    if config.optimize_positions:
        status, xi, mu = "max_outer", np.inf, config.mu0
        try:
            Z, _, _ = solve_auxiliary(H, P, targets, noise)
        except DegenerateUserError as err:
            _reset_users(P, H, err.users)
            try:
                Z, _, _ = solve_auxiliary(H, P, targets, noise)
            except DegenerateUserError:
                warnings.append("degenerate_user")
                Z = np.zeros((K, K), dtype=complex)
                status = "degenerate"

    if config.optimize_positions and status != "degenerate":
        geo = _geo(realization, config.wavelength)
        for outer in range(config.max_outer):
            start = positions
            try:
                P, Z, positions, Hbar, sweeps = inner_loop(
                    realization, positions, P, Z, model, targets, mu, config,
                    trace=inner_trace, outer_index=outer, counts=steps, geo=geo)
            except DegenerateUserError:
                warnings.append("degenerate_user")
                status = "degenerate"
                break
            sweeps_total += sweeps
            outer_done = outer + 1
            E = Hbar @ P - Z
            xi = float(np.vdot(E, E).real)
            obj = sar_value(P, model) + mu * xi
            outer_trace.append((outer, mu, xi, obj, sweeps))

            # the paper's stopping rule, or a lattice layout that stood still
            # and that no lattice move can improve, at a layout the exact
            # solve serves
            if xi < config.eps_outer or (
                    config.position_grid is not None and np.array_equal(start, positions)
                    and _lattice_settled(geo.lattice(config.position_grid, region.half_width_m,
                                                     dmin), positions, P, xi)):
                H = channel_matrix(positions, realization, config.wavelength)
                exact = optimal_precoder(H, model, targets.thresholds, noise)
                if exact is not None:
                    status = "converged"
                    break

            if len(outer_trace) > PLATEAU_WINDOW:
                first = outer_trace[-PLATEAU_WINDOW - 1][2]
                if first > 0 and (first - xi) / first < PLATEAU_REL_DECREASE:
                    status = "plateau"
                    break
            mu = mu / config.a

    # the emitted precoder is the exact optimum at the final layout; where the
    # targets cannot be met there, a moving layout keeps the penalty iterate
    # and a fixed one its start, both flagged
    if exact is None:
        H = channel_matrix(positions, realization, config.wavelength)
        exact = optimal_precoder(H, model, targets.thresholds, noise)
    if exact is None:
        warnings.append("infeasible_targets")
        if not config.optimize_positions:
            status = "infeasible"
    else:
        P = exact

    sinrs = sinr_all(P, H, noise)
    # relative SINR margin sinr_k / threshold_k - 1; a user without a floor gets 1.0
    gbar = targets.thresholds
    slack = np.where(gbar > 0, sinrs / np.where(gbar > 0, gbar, 1.0) - 1.0, 1.0)
    mind = min_pairwise_distance(positions)
    in_region = region.contains(positions, tol=1e-9)
    feasible = bool(exact is not None and np.min(slack) >= -FEASIBILITY_SLACK
                    and mind >= dmin - 1e-9 and in_region)
    beta = float(np.min(sinrs / targets.weights))
    return SolveReport(
        precoder=P,
        layout=positions,
        sar=sar_value(P, model),
        sinr=sinrs,
        sinr_slack=slack,
        beta_achieved=beta,
        min_distance=mind,
        in_region=in_region,
        feasible=feasible,
        converged=status == "converged",
        status=status,
        xi=float(xi),
        outer_iterations=outer_done,
        inner_sweeps_total=sweeps_total,
        outer_trace=outer_trace,
        inner_objective_trace=inner_trace,
        wall_time_s=time.perf_counter() - t0,
        warnings=warnings,
        config={**config.to_dict(), "beta0": targets.beta0,
                "weights": targets.weights.tolist(), "budget": model.budget},
        aux=Z,
        final_mu=mu,
        position_steps=steps,
    )
