"""Two-layer penalty solver for QoS-constrained exposure minimization.

Outer layer grows the penalty factor mu geometrically (mu <- mu/a); the inner
layer alternates three block updates on the penalized objective

    sum_k p_k^H R p_k + mu * sum_{k,j} |h_k(t)^H p_j - z_{k,j}|^2

  1. precoder columns p_k from the closed-form stationarity system,
  2. auxiliary variables z_{k,j} from K independent dual problems, each a
     single multiplier found by safeguarded Newton steps,
  3. antenna positions t_m one at a time by majorize-minimize steps; when the
     free step leaves the box or breaks the spacing, the step is its exact
     projection onto the box and the spacing rows linearized at t_m. Each
     step is backtracked on a local curvature: it starts at half the one the
     antenna last accepted in this solve (never below tau_m / 256) and
     doubles until the quadratic surrogate lies above the objective at the
     step, up to the global bound tau_m, where majorization guarantees it.
     With ``lattice`` set, each antenna instead moves to its best free point
     of the region's lambda/2 lattice, which the antennas start on and never
     leave.

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

Cache lifetimes: what the channel determines is built once per channel and
wavelength and kept on its ``ChannelRealization`` (``_Geometry``: the
majorizers' constants, and the phases and ``mix`` of the continuous kernel,
which gives an antenna's channel row and gradient weights in one real
product; per region the lattice table ``_Lattice``, whose rows
``channel_matrix`` computes, with each point's distance to its nearest other
row), so every probe of a balance ladder and both APS starts share one build.
``solve_sar_min`` builds its own state fresh (``_SolveState``: the kernel
``row`` on buffers of its own, each antenna's last accepted local curvature
and its row at the point it last stood on, and the counts, seconds and trace
of its report) and hands it to every inner loop of the solve, with the
conj-channel matrix Hbar the previous loop returned: ``channel_matrix`` runs
on the layout at the start and at the exact solve only. Each sweep
forms C = Hbar P once, for all three blocks, and E = C - Z again only once an
antenna moved. A continuous sweep forms U^T = (E P^H)^T and P P^H at its
start and updates U^T by rank one as antennas move. No result is cached.
The small products call BLAS through ``ndarray.dot``, which gives the bits of
``@`` at less overhead a call.
"""
from __future__ import annotations

import functools
import math
import time
from array import array
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.linalg import _umath_linalg

from .channel import (
    ChannelRealization,
    ConfigurationError,
    Region,
    _JsonDoc,
    _signal_interference,
    aps_grid,
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
    "inner_loop",
    "solve_sar_min",
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
        if w.ndim != 1 or not np.all((w > 0) & (w < np.inf)):  # false for NaN too
            raise ConfigurationError("SINR weights must be finite and positive")
        if not 0.0 <= self.beta0 < np.inf:
            raise ConfigurationError("beta0 must be a finite non-negative number")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "thresholds", self.beta0 * w)

    @classmethod
    def uniform(cls, num_users: int, beta0: float) -> "SinrTargets":
        return cls(weights=np.ones(num_users), beta0=float(beta0))

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
    # when set, a moving solve starts on the region's lambda/2 lattice
    # (``aps_grid``), and its position block picks each antenna's best free
    # point of it instead of taking continuous majorize-minimize steps
    lattice: bool = False

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise ConfigurationError("penalty scaling a must lie in (0, 1)")
        if not 0.0 < self.mu0 < np.inf:  # false for NaN too
            raise ConfigurationError("initial penalty factor mu0 must be finite and positive")
        for f in fields(self):  # every eps_* threshold and max_* cap
            value = getattr(self, f.name)
            if f.name.startswith("eps_") and not 0.0 <= value < np.inf:
                raise ConfigurationError(f"{f.name} must be a finite non-negative number")
            if f.name.startswith("max_") and not value >= 1:
                raise ConfigurationError(f"{f.name} must be at least 1")

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
            "discrete_positions": self.lattice,
        }


# ---------------------------------------------------------------------------
# a channel's tables, kept on the channel, and one solve's state
# ---------------------------------------------------------------------------

class _Geometry:
    """What a channel determines at one wavelength, built by its first moving
    solve and kept on the realization: the |gain| sums and the majorizers'
    constant ``s2``; the continuous kernel's phases and ``mix``, from which
    ``kernel`` gives each solve a ``row`` of its own; and ``lattices``, each
    region's ``_Lattice``, built by the first lattice solve there."""

    def __init__(self, realization: ChannelRealization, wavelength: float):
        ax, ay, gains = realization._stacked  # (K, L) each
        fbar = gains.conj()
        self.abs_gain_sum = np.abs(fbar).sum(axis=1)  # (K,)
        self.s2 = float((self.abs_gain_sum ** 2).sum())  # the majorizers' constant
        # the continuous kernel: F's columns sum a user's path terms with weights
        # 1, kappa a and kappa b; at theta = phase @ (x, y), [cos; sin] @ mix
        # is ``row``: hbar as (Re, Im) pairs, then conj (w_x, w_y) as (Im, Re)
        K, L = fbar.shape
        self.phase = phase = (2.0 * np.pi / wavelength) * np.c_[ax.ravel(), ay.ravel()]
        W = np.c_[np.ones(K * L), phase][:, :, None] * np.repeat(np.eye(K), L, axis=0)[:, None]
        F = fbar.reshape(-1, 1) * W.reshape(K * L, 3 * K)
        im = np.vstack([F.imag, F.real]) * np.repeat([1.0, -1.0, -1.0], K)
        pairs = np.stack([np.vstack([F.real, -F.imag]), im], axis=2)
        pairs[:, K:] = pairs[:, K:, ::-1].copy()
        self.mix = pairs.reshape(2 * K * L, -1)
        self.lattices: dict[Region, _Lattice] = {}

    def kernel(self):
        """``row``, on scratch buffers of its own, so that solves sharing the
        channel never share them. ``row(t)``, one antenna at t, is 6K reals:
        its conj-channel row hbar as (Re, Im) pairs, then the conjugated
        gradient weights wbar (2, K), d hbar_k / dt = i (w_x, w_y)_k, as (Im,
        Re) pairs: ``row[2K:].reshape(2, 2K) @ u2`` is the residual's gradient
        2 Im(wbar @ u), u2 the (Re, Im) pairs of 2u."""
        phase, mix = self.phase, self.mix
        tv, cos_sin = np.empty(2), np.empty(2 * phase.shape[0])
        cos, sin = np.split(cos_sin, 2)

        def row(t):
            tv[0], tv[1] = t
            theta = phase.dot(tv)
            np.cos(theta, out=cos)
            np.sin(theta, out=sin)
            return cos_sin.dot(mix)
        return row


class _SolveState:
    """One solve's state, handed to each of its inner loops: its channel's
    ``geometry``, built by the channel's first moving solve; a continuous
    solve's kernel ``row``, or a lattice solve's region ``lattice``; each
    antenna's last accepted local curvature and its row where it last stood;
    and the report's position steps, block seconds, calls and dual
    evaluations, and inner objective trace."""

    def __init__(self, realization: ChannelRealization, config: SolverConfig):
        tables, wavelength, region = realization._geometry, config.wavelength, config.region
        if config.optimize_positions and wavelength not in tables:
            tables[wavelength] = _Geometry(realization, wavelength)
        self.geometry = geometry = tables.get(wavelength)
        self.row = self.lattice = None
        if config.optimize_positions and config.lattice:
            if region not in geometry.lattices:
                geometry.lattices[region] = _Lattice(realization, region)
            self.lattice = geometry.lattices[region]
        elif config.optimize_positions:
            self.row = geometry.kernel()
        # antenna -> the local curvature its last accepted SCA step used
        self.tau_accepted: dict[int, float] = {}
        # antenna -> (t, hbar and weights of ``row`` at t): where it last stood
        self.terms: dict[int, tuple] = {}
        # continuous position steps by status, and their curvature doublings
        self.steps = {"free": 0, "qp": 0, "stuck": 0, "backtrack": 0}
        self.cost = {"precoder": 0.0, "auxiliary": 0.0, "positions": 0.0, "dual_evaluations": 0}
        self.calls = dict.fromkeys(("precoder", "auxiliary", "positions"), 0)
        self.trace = _ObjectiveTrace()


class _Lattice:
    """What the lattice search needs about a region's lambda/2 lattice on one
    channel: its n points ``grid`` in (x, y) order, so that the first best
    candidate is the lowest (x, y); their conj-channel rows ``hbar`` (n, K)
    from one ``channel_matrix`` call, bit for bit those of any layout of two
    or more antennas there; ``index``, which maps a point of ``grid`` to its
    row; and ``near`` (``nearest``). Any two points keep the spacing."""

    def __init__(self, realization: ChannelRealization, region: Region):
        self.grid = aps_grid(region)
        # row-major, as the search's products need it to keep their bits
        self.hbar = channel_matrix(self.grid, realization, region.wavelength).conj().T.copy()
        self.index = {p: i for i, p in enumerate(map(tuple, self.grid.tolist()))}
        self.near = None

    def nearest(self, at: list) -> np.ndarray:
        """The distance from each point of ``at`` (rows of ``grid``) to the
        nearest row of another point. The first call fills ``near`` for every
        point, len(at) rows at a time: no temporary exceeds (len(at), n, K)."""
        if self.near is None:
            n, size = len(self.grid), len(at)
            self.near = np.empty(n)
            for s in range(0, n, size):
                block = np.arange(s, min(s + size, n))
                d = np.linalg.norm(self.hbar[None, :, :] - self.hbar[block][:, None, :], axis=2)
                d[np.arange(block.size), block] = np.inf
                self.near[block] = d.min(axis=1)
        return self.near[at]


# ---------------------------------------------------------------------------
# block 1: precoder update
# ---------------------------------------------------------------------------

def solve_precoder(H: np.ndarray, Z: np.ndarray, model: SarModel, mu: float) -> np.ndarray:
    """Minimizer of the penalized objective over the precoder columns.

    Solves (R + R^H + 2 mu sum_i h_i h_i^H) p_k = 2 mu sum_i z_{i,k} h_i for
    every k at once (LAPACK's solve, as ``np.linalg.solve`` calls it); with R
    positive definite the system is too. A residual above 1e-8 of the
    right-hand side, or one that is not finite, raises ``SolverError``.
    """
    if mu <= 0:
        raise SolverError("precoder step requires a positive penalty factor")
    A = model.hermitian_sum + 2.0 * mu * H.T.dot(H.conj())
    B = 2.0 * mu * H.T.dot(Z)
    P = _umath_linalg.solve(A, B, signature="DD->D")
    res = A.dot(P) - B
    if not np.vdot(res, res).real <= 1e-16 * max(1.0, np.vdot(B, B).real):
        raise SolverError("precoder stationarity residual too large")
    return P


# ---------------------------------------------------------------------------
# block 2: auxiliary variables via per-user duals
# ---------------------------------------------------------------------------

def solve_auxiliary(H: np.ndarray, P: np.ndarray, targets: SinrTargets,
                    noise_variance: float, couplings: np.ndarray | None = None,
                    counts: dict | None = None):
    """Project the couplings h_k^H p_j onto the SINR-feasible set, per user.

    Returns (Z, zeta, gap): for users already satisfying their constraint
    zeta_k = 0 and the row of Z equals the raw couplings; otherwise zeta_k in
    (0, 1) is the multiplier that puts the constraint on its boundary
    (``_dual_root``), the feasible end of its final bracket, so Z always
    satisfies the constraints; ``gap`` certifies how far the projection value
    can sit above the true minimum (the objective difference across the
    brackets). ``couplings`` is H^* P if the caller formed it; ``counts``
    gains the root searches' evaluations under "dual_evaluations".
    """
    C = H.conj().dot(P) if couplings is None else couplings  # row k holds h_k^H p_j
    sig, interf = _signal_interference(C)
    # on Python floats: at most K users, where array overhead would dominate
    g = targets.thresholds
    need, users = [], []
    for k, (sk, ik, gk) in enumerate(zip(sig.tolist(), interf.tolist(), g.tolist())):
        if sk - gk * (ik + noise_variance) < 0:
            need.append(k)
            users.append((sk, ik * gk, gk, gk * noise_variance))
    K = C.shape[0]
    if not need:
        return C.copy(), np.zeros(K), 0.0
    # a root function not positive at the bracket's end has no root in it
    ends = [_dual_value(u, _ZETA_HI)[0] for u in users]
    degenerate = [k for k, y in zip(need, ends) if y <= 0.0]
    if degenerate:
        raise DegenerateUserError(degenerate)
    zeta, gap, evaluations = [0.0] * K, 0.0, 0
    for k, (su, wu, gu, gnu), y in zip(need, users, ends):
        lo, hi, n = _dual_root((su, wu, gu, gnu), y)
        zeta[k], evaluations = hi, evaluations + n  # hi: the bracket's feasible end
        # the squared projection distance along the dual path, s r^2 + w g q^2
        r, r0 = hi / (1.0 - hi), lo / (1.0 - lo)
        q, q0 = hi / (1.0 + hi * gu), lo / (1.0 + lo * gu)
        gap += su * (r * r - r0 * r0) + wu * gu * (q * q - q0 * q0)
    if counts is not None:
        counts["dual_evaluations"] = counts.get("dual_evaluations", 0) + evaluations
    zeta = np.array(zeta)
    Z = C / (1.0 + zeta * g)[:, None]
    Z.flat[::K + 1] = C.diagonal() / (1.0 - zeta)
    return Z, zeta, gap


# the upper end of every dual bracket, and the most evaluations one root takes
_ZETA_HI = 1.0 - 1e-9
DUAL_MAX_EVALUATIONS = 60


def _dual_value(user, z: float):
    """f(z) = s / (1 - z)^2 - w / (1 + z g)^2 - g sigma^2, rising on (0, 1), of
    ``user`` (s, w, g, g sigma^2), and the terms ``_dual_newton`` reads."""
    su, wu, gu, gnu = user
    a = 1.0 - z
    b = 1.0 + z * gu
    sa = su / (a * a)
    wb = wu / (b * b)
    return sa - wb - gnu, (z, a, b, sa, wb)


def _dual_newton(user, point, target: float, up: bool, least: float) -> float:
    """The Newton step from ``_dual_value``'s ``point`` toward f = target, up
    (``up``, from the sign of f) or down by at least ``least``: on phi =
    ln(s / (1 - z)^2) / 2 - ln(g sigma^2 + target + w / (1 + z g)^2) / 2 in
    v = ln(z / (1 - z)), where phi's slope stays in (0, 2) at both ends."""
    z, a, b, sa, wb = point
    r = user[3] + target + wb
    slope = z * (1.0 + a * user[2] * wb / (b * r))  # d phi / dv
    e = math.exp(max(min(-0.5 * math.log(sa / r) / slope, 700.0), -700.0))
    new = z * e / (a + z * e)
    if (new - z if up else z - new) < least:
        new = z + least if up else z - least
    return new


def _dual_root(user, y_hi: float):
    """A bracket [lo, hi] of the root of ``_dual_value`` on (0, ``_ZETA_HI``),
    f(``_ZETA_HI``) = ``y_hi`` > 0, and its evaluations: (lo, hi, n). Newton
    steps toward f = aim (``rtsafe`` of Press et al., Numerical Recipes: one
    that leaves the bracket, or is not under half the step before last,
    halves it) start on a bound of the root: the root with the interference
    held at z = 1 (below), else (sqrt(w / (s - g sigma^2)) - 1) / g (above).
    They stop once f(hi) <= tol or the bracket is under 1e-14; steps across
    the root then close it to |f| <= 4 aim at both ends, for a tight gap.
    Each moves two ulps or more, a floor doubled while closing steps fall short.
    """
    su, wu, gu, gnu = user
    tol = 1e-10 * gnu
    aim = tol / 128.0
    lo, hi = 0.0, _ZETA_HI
    z = 1.0 - math.sqrt(su / (gnu + wu / ((1.0 + gu) * (1.0 + gu))))
    if not z > 0.0 and su > gnu:
        z = (math.sqrt(wu / (su - gnu)) - 1.0) / gu
    if not lo < z < hi:
        z = 0.5
    n, step, before = 0, hi, hi
    y, point, y_lo = y_hi, None, -math.inf
    while not (y_hi <= tol or hi - lo < 1e-14) and n < DUAL_MAX_EVALUATIONS:
        if point is not None:
            z = _dual_newton(user, point, aim, y < aim, 2.0 * math.ulp(z))
            if not (lo < z < hi and abs(z - point[0]) <= 0.5 * before):
                z = 0.5 * (lo + hi)
            before, step = step, abs(z - point[0])
        y, point = _dual_value(user, z)
        n += 1
        if y < 0.0:
            lo, y_lo = z, y
        else:
            hi, y_hi = z, y
    least = 2.0 * math.ulp(z)
    while point is not None and n < DUAL_MAX_EVALUATIONS \
            and not (y_hi <= 4.0 * aim and y_lo >= -4.0 * aim):
        below = y < 0.0
        z = _dual_newton(user, point, aim if below else -aim, below, least)
        if not lo < z < hi:
            break
        y, point = _dual_value(user, z)
        n += 1
        if y < 0.0:
            lo, y_lo = z, y
        else:
            hi, y_hi = z, y
        least = 2.0 * least if (y < 0.0) == below else 2.0 * math.ulp(z)
    return lo, hi, n


# ---------------------------------------------------------------------------
# block 3: antenna position step
# ---------------------------------------------------------------------------

def _majorizers(geo: _Geometry, P: np.ndarray, Z: np.ndarray, wavelength: float) -> np.ndarray:
    """Curvature bounds tau_m for all antennas (position-independent): the
    cap of the position block's backtracked local curvature: s2 sum_j |P_mj|
    (2 sum_n |P_nj| - |P_mj|) + 2 sum_j |P_mj| sum_k S_k |z_kj| for antenna m."""
    absP = np.abs(P)                      # (M, K)
    u = geo.abs_gain_sum.dot(np.abs(Z))   # (K,)
    per_antenna = absP.dot(2.0 * (geo.s2 * absP.sum(axis=0) + u)) \
        - geo.s2 * (absP * absP).sum(axis=1)
    return (8.0 * np.pi ** 2 / wavelength ** 2) * per_antenna


@functools.lru_cache(maxsize=16)  # _project_step's four box rows, once per half-width
def _box_rows(a_m: float) -> tuple:
    return tuple((ax, ay, b, b - 1e-11 * max(1.0, abs(b)))
                 for ax, ay, b in ((1.0, 0.0, -a_m), (-1.0, 0.0, -a_m),
                                   (0.0, 1.0, -a_m), (0.0, -1.0, -a_m)))


def _meets(rows, x: float, y: float) -> bool:
    """Whether (x, y) meets every row (a NaN meets none)."""
    for ax, ay, _, lo in rows:
        if not ax * x + ay * y >= lo:
            return False
    return True


def _project_step(free, t_old, region: Region, others, min_distance: float):
    """Projection of the free step ``free`` onto the box and the spacing rows
    linearized at ``t_old``, on (x, y) pairs of Python floats; ``others``
    lists the other antennas. None when a neighbour sits on the antenna (no
    row can be set up) or when no point meets every row.

    This is the minimizer of the position block's quadratic surrogate
    0.5 tau ||t||^2 + (grad - tau t_old).t under those rows: the surrogate
    equals 0.5 tau ||t - free||^2 up to a constant, free = t_old - grad / tau.

    Each row a.t >= b is unit-norm and is met within 1e-11 max(1, |b|). The
    free step is returned when it meets every row. Otherwise the projection
    onto a violated row that meets every row is the optimum: the polygon lies
    inside that row's half-plane. Failing that, at least two rows are active
    at the optimum, which is then the feasible pairwise vertex nearest the
    free step (lowest (x, y) on ties).
    """
    a_m = region.half_width_m
    rows = list(_box_rows(a_m))
    tx, ty = t_old
    for ox, oy in others:
        dx = tx - ox
        dy = ty - oy
        nrm = math.sqrt(dx * dx + dy * dy)
        if nrm <= 0.0:
            return None
        nx = dx / nrm
        ny = dy / nrm
        b = min_distance + (nx * ox + ny * oy)
        rows.append((nx, ny, b, b - 1e-11 * max(1.0, abs(b))))

    def clip(x, y):
        return min(max(x, -a_m), a_m), min(max(y, -a_m), a_m)

    fx, fy = free
    if _meets(rows, fx, fy):
        return clip(fx, fy)
    for ax, ay, b, lo in rows:
        if ax * fx + ay * fy < lo:
            # b a plus the free step's component along the row's line
            s = ax * fy - ay * fx
            x = b * ax - s * ay
            y = b * ay + s * ax
            if _meets(rows, x, y):
                return clip(x, y)
    vertices = []
    for i, (ax, ay, bi, _) in enumerate(rows):
        for cx, cy, bj, _ in rows[i + 1:]:
            det = ax * cy - ay * cx
            if abs(det) <= 1e-14:
                continue
            x = (bi * cy - bj * ay) / det
            y = (ax * bj - cx * bi) / det
            if _meets(rows, x, y):
                dx = x - fx
                dy = y - fy
                vertices.append((dx * dx + dy * dy, x, y))
    if not vertices:
        return None
    _, x, y = min(vertices)
    return clip(x, y)


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


def _residual(Hbar, P, Z):
    """The coupling residual E = Hbar P - Z and xi = ||E||^2."""
    E = Hbar.dot(P) - Z
    return E, float(np.vdot(E, E).real)


def _select_positions_on_grid(positions, lat: _Lattice, P, Z, Hbar, residual: tuple):
    """Per-antenna exhaustive search over the lattice: each antenna moves to
    the candidate that minimizes the coupling residual exactly, if that is
    below the residual where it stands. The candidates are the points no
    other antenna holds, its own included, in (x, y) order, so ties go to the
    lower x, then the lower y. Every antenna must sit on a lattice point.
    Mutates positions/Hbar; takes and returns (E, xi) as ``_sweep_positions``.
    """
    at = [lat.index[p] for p in map(tuple, positions.tolist())]
    M = positions.shape[0]
    E, obj = residual
    Ec = E.conj()
    moved = False
    pnorm2 = (np.abs(P) ** 2).sum(axis=1)  # ||P[m, :]||^2 per antenna
    for m in range(M):
        # conj-channel steps to every point, (n, K)
        delta = lat.hbar - Hbar[:, m]
        obj_c = obj + 2.0 * delta.dot(Ec.dot(P[m])).real \
            + (np.abs(delta) ** 2).sum(axis=1) * pnorm2[m]
        obj_c[at[:m] + at[m + 1:]] = np.inf
        best = int(obj_c.argmin())
        if obj_c[best] >= obj:
            continue
        at[m] = best
        positions[m] = lat.grid[best]
        Hbar[:, m] = lat.hbar[best]
        E = E + delta[best][:, None] * P[m]
        Ec = E.conj()
        obj = float(np.vdot(E, E).real)
        moved = True
    return _residual(Hbar, P, Z) if moved else residual


def _lattice_settled(lat: _Lattice, positions, P, xi: float) -> bool:
    """Whether no lattice move can lower a coupling residual E of
    ||E||^2 = xi: moving antenna m changes its conj-channel row by some delta
    and E by delta P[m, :], so ||E + delta P[m, :]|| >= |delta| ||P[m, :]|| -
    ||E|| >= ||E|| once ||P[m, :]|| d(t_m) >= 2 sqrt(xi) for every antenna,
    d(t) the distance from t's row to the nearest row of another point,
    ``_Lattice.nearest``."""
    near = lat.nearest([lat.index[p] for p in map(tuple, positions.tolist())])
    return bool(np.all(np.linalg.norm(P, axis=1) * near >= 2.0 * math.sqrt(xi)))


def _sweep_positions(positions, state: _SolveState, P, Z, config, Hbar, residual: tuple):
    """Sequential per-antenna SCA descents from the residual (E, xi) =
    ``_residual(Hbar, P, Z)`` given as ``residual``; mutates positions/Hbar
    and returns (E, xi) after the sweep. ``state.steps`` gains one per free,
    QP and stuck step under those status names, and one per curvature
    doubling under "backtrack". A candidate whose row moves by delta scores
    xi + 2 Re(delta^H u) + ||delta||^2 ||P[m, :]||^2 from u = E P[m, :]^H,
    row m of (E P^H)^T, which follows each move by rank one."""
    if config.lattice:
        return _select_positions_on_grid(positions, state.lattice, P, Z, Hbar, residual)
    region, min_distance = config.region, config.distance
    taus = _majorizers(state.geometry, P, Z, region.wavelength).tolist()
    accepted, terms, row_at, counts = state.tau_accepted, state.terms, state.row, state.steps
    any_moved = False
    step_tol = 1e-8 * region.wavelength  # moves below this cannot matter
    E, obj = residual
    Pc = P.conj()
    Ut, gram = Pc.dot(E.T), P.dot(Pc.T)
    pnorm2, gram = gram.diagonal().real.tolist(), gram[:, :, None]  # gram[m]: a column
    n2 = 2 * Hbar.shape[0]
    # [u2; delta] @ delta = [2 Re(delta^H u), ||delta||^2], u2 the pairs of 2u
    u2, delta = score = np.empty((2, n2))
    layout = positions.tolist()
    for m, tau in enumerate(taus):
        if tau <= 0.0:
            continue
        points = layout[:m] + layout[m + 1:]
        t_old = tuple(layout[m])
        kept = terms.get(m)  # reused while the antenna stays on t_old exactly
        if kept is None or kept[0] != t_old:
            row = row_at(t_old)
            kept = t_old, row[:n2], row[n2:].reshape(2, n2)
        _, h, weights = kept
        np.multiply(Ut[m].view(float), 2.0, u2)
        pm2, moved = pnorm2[m], False
        for _ in range(config.max_sca_iter):
            grad = gx, gy = weights.dot(u2).tolist()
            # max|g| / tau < tol, tested per coordinate: division by tau > 0
            # is monotone, so the verdict is the same
            if abs(gx) / tau < step_tol and abs(gy) / tau < step_tol:
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
                new = row_at(t_new)
                np.subtract(new[:n2], h, delta)
                a, b = score.dot(delta).tolist()
                obj_new = obj + a + b * pm2
                if tau_loc >= tau:
                    break
                dx = t_new[0] - t_old[0]
                dy = t_new[1] - t_old[1]
                bound = obj + (gx * dx + gy * dy) + 0.5 * tau_loc * (dx * dx + dy * dy)
                if obj_new <= bound + 1e-12 * obj:
                    break
                tau_loc = min(2.0 * tau_loc, tau)
                counts["backtrack"] += 1
            counts[status] += 1
            if status == "stuck":
                break
            # the tolerance must stay relative: any absolute slack here gets
            # amplified by mu in the penalized objective the caller tracks
            if obj_new > obj * (1.0 + 1e-12):
                break  # numerically flat; keep the current point
            accepted[m] = tau_loc
            positions[m] = t_old = t_new
            np.add(u2, np.multiply(delta, 2.0 * pm2, delta), u2)
            h, weights, moved = new[:n2], new[n2:].reshape(2, n2), True
            decrease = obj - obj_new
            obj = obj_new
            if decrease < max(config.eps_position, config.eps_position_rel * abs(obj)):
                break
        terms[m] = (t_old, h, weights)
        if moved:
            any_moved = True
            layout[m] = t_old
            h = h.view(complex)
            if m + 1 < len(taus):  # only the antennas after m read U^T
                Ut += gram[m] * (h - Hbar[:, m])
            Hbar[:, m] = h
    return _residual(Hbar, P, Z) if any_moved else residual


# ---------------------------------------------------------------------------
# inner alternating loop and the full two-layer solve
# ---------------------------------------------------------------------------

def _matched_filter(H: np.ndarray) -> np.ndarray:
    """Column k is conj(h_k) / ||h_k||, the conjugate of the matched filter h_k / ||h_k||."""
    norms = np.linalg.norm(H, axis=1)
    norms = np.where(norms > 0, norms, 1.0)
    return (H / norms[:, None]).T.conj()


def _reset_users(P: np.ndarray, H: np.ndarray, users) -> None:
    """Degenerate-user recovery: column k of P becomes h_k / ||h_k||."""
    for k in users:
        P[:, k] = H[k] / max(np.linalg.norm(H[k]), 1e-300)


def inner_loop(realization: ChannelRealization, positions: np.ndarray, P: np.ndarray,
               Z: np.ndarray, model: SarModel, targets: SinrTargets, mu: float,
               config: SolverConfig, state: _SolveState, Hbar: np.ndarray,
               outer_index: int = 0):
    """Alternate precoder / auxiliary / position blocks until the penalized
    objective decrease falls below eps_inner. Returns (P, Z, positions, Hbar,
    sweeps, xi, sar), the last two after the last sweep.

    ``state`` is the solve's ``_SolveState`` for ``realization`` and
    ``config``, which gains the loop's position steps, block seconds, calls
    and dual evaluations, and its trace rows under ``outer_index``; ``Hbar``
    is the conj-channel matrix at ``positions``."""
    noise = realization.noise_variance
    positions = np.array(positions, dtype=float)
    Hbar = np.array(Hbar, dtype=complex)
    prev = last_value = None
    recovered, sweeps = False, 0

    cost, calls, trace = state.cost, state.calls, state.trace
    clock = time.perf_counter

    def record(label, value, extra_slack=0.0):
        # the block ``label`` ended here: it takes the seconds since ``mark``
        nonlocal prev, mark
        now = clock()
        cost[label] += now - mark
        calls[label] += 1
        mark = now
        trace.append((outer_index, label, value))
        if prev is not None and value > prev + 1e-9 * max(1.0, abs(prev)) + extra_slack:
            raise SolverError(
                f"inner objective increased at {label}: {prev!r} -> {value!r}")
        prev = value

    for _ in range(config.max_inner):
        sweeps += 1
        mark = clock()
        H = Hbar.conj()  # the position block moves Hbar in place
        P = solve_precoder(H, Z, model, mu)
        # only this block and degenerate-user recovery change P
        sar = sar_value(P, model)
        C = Hbar.dot(P)  # the couplings h_k^H p_j, which every block of the sweep reads
        E = C - Z
        record("precoder", sar + mu * float(np.vdot(E, E).real))

        try:
            Z, _, gap = solve_auxiliary(H, P, targets, noise, C, cost)
        except DegenerateUserError as err:
            if recovered:
                raise
            recovered = True
            calls["auxiliary"] += 1  # the call that failed
            _reset_users(P, H, err.users)
            C = Hbar.dot(P)
            Z, _, gap = solve_auxiliary(H, P, targets, noise, C, cost)
            sar = sar_value(P, model)
            prev = None  # objective baseline is void after re-initialization
            trace.append((outer_index, "recovered", None))
        E = C - Z
        xi = float(np.vdot(E, E).real)
        # the projection is certified optimal only to within mu * gap
        record("auxiliary", sar + mu * xi, extra_slack=mu * gap)

        E, xi = _sweep_positions(positions, state, P, Z, config, Hbar, (E, xi))
        record("positions", sar + mu * xi)

        value = prev
        threshold = max(config.eps_inner, config.eps_inner_rel * abs(value))
        if last_value is not None and last_value - value < threshold:
            break
        last_value = value
    return P, Z, positions, Hbar, sweeps, xi, sar


class _Rows:
    """Append-only rows of fixed-type fields, held column by column in typed
    arrays (``array`` typecodes, one per field): a few bytes a row where a
    tuple of Python objects takes about a hundred. Rows read back as tuples of
    the values appended."""

    def __init__(self, codes: str):
        self._cols = tuple(array(c) for c in codes)

    def append(self, row):
        for col, v in zip(self._cols, row):
            col.append(v)

    def __len__(self):
        return len(self._cols[0])

    def __getitem__(self, i):
        return self._load(tuple(col[i] for col in self._cols))

    def __iter__(self):
        return map(self._load, zip(*self._cols))

    _load = tuple  # a row as appended


class _ObjectiveTrace(_Rows):
    """The inner objective trace, rows (outer, label, value), None the value of a
    "recovered" row; outer and the label's code share one int: 4 outer + code < 2**31."""

    LABELS = ("precoder", "auxiliary", "positions", "recovered")
    CODES = {label: code for code, label in enumerate(LABELS)}

    def __init__(self):
        super().__init__("id")

    def append(self, row):
        outer, label, value = row
        self._cols[0].append(4 * outer + self.CODES[label])
        self._cols[1].append(math.nan if value is None else value)

    def _load(self, row):
        key, value = row
        outer, code = divmod(key, 4)
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
    dual_evaluations: int = 0  # of the dual root function, by all root searches
    block_seconds: dict = field(default_factory=dict)  # "precoder", "auxiliary", "positions"
    block_calls: dict = field(default_factory=dict)    # calls of each of those blocks


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
    if not isinstance(targets, SinrTargets):
        raise ConfigurationError(f"exposure minimization needs SinrTargets, got {targets!r}")
    if targets.num_users != K:
        raise ConfigurationError("targets and channel disagree on the user count")
    noise = realization.noise_variance
    region = config.region

    if initial_layout is None:
        positions = uniform_line_layout(M, region)
    else:
        positions = np.array(initial_layout, dtype=float)
        if positions.shape != (M, 2):
            raise ConfigurationError("initial layout must have shape (M, 2)")
    if not layout_is_feasible(positions, region, config.distance):
        raise ConfigurationError("initial antenna layout violates region or spacing")

    P = None if initial_precoder is None else np.array(initial_precoder, dtype=complex)
    if P is not None and (P.shape != (M, K) or not np.all(np.isfinite(P))):
        raise ConfigurationError("initial precoder must be a finite (M, K) array")
    state = _SolveState(realization, config)
    if state.lattice is not None and not all(
            p in state.lattice.index for p in map(tuple, positions.tolist())):
        raise ConfigurationError("initial antenna layout is off the position lattice")

    H = channel_matrix(positions, realization, config.wavelength)
    P = _matched_filter(H) if P is None else P
    warnings: list[str] = []
    status = "converged"
    outer_trace = _Rows("idddi")
    xi, mu, Z, exact = 0.0, 0.0, None, None

    if config.optimize_positions:
        status, xi, mu, Hbar = "max_outer", np.inf, config.mu0, H.conj()
        Z = np.zeros((K, K), dtype=complex)  # reported if no projection succeeds
        # a user the opening projection or an inner loop cannot recover ends the solve
        try:
            state.calls["auxiliary"] += 1
            try:
                Z, _, _ = solve_auxiliary(H, P, targets, noise, counts=state.cost)
            except DegenerateUserError as err:
                _reset_users(P, H, err.users)
                state.calls["auxiliary"] += 1
                Z, _, _ = solve_auxiliary(H, P, targets, noise, counts=state.cost)
            for outer in range(config.max_outer):
                start = positions
                P, Z, positions, Hbar, sweeps, xi, sar = inner_loop(
                    realization, positions, P, Z, model, targets, mu, config, state, Hbar,
                    outer)
                outer_trace.append((outer, mu, xi, sar + mu * xi, sweeps))

                # the paper's stopping rule, or a lattice layout that stood still
                # and that no lattice move can improve, at a layout the exact
                # solve serves
                if xi < config.eps_outer or (
                        config.lattice and np.array_equal(start, positions)
                        and _lattice_settled(state.lattice, positions, P, xi)):
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
        except DegenerateUserError:
            warnings.append("degenerate_user")
            status = "degenerate"

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
                    and mind >= config.distance - 1e-9 and in_region)
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
        outer_iterations=len(outer_trace),
        inner_sweeps_total=sum(sweeps for *_, sweeps in outer_trace),
        outer_trace=outer_trace,
        inner_objective_trace=state.trace,
        wall_time_s=time.perf_counter() - t0,
        warnings=warnings,
        config={**config.to_dict(), "beta0": targets.beta0,
                "weights": targets.weights.tolist(), "budget": model.budget},
        aux=Z,
        final_mu=mu,
        position_steps=state.steps,
        dual_evaluations=state.cost.pop("dual_evaluations"),
        block_seconds=state.cost,
        block_calls=state.calls,
    )
