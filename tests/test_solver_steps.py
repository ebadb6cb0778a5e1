import inspect

import numpy as np
import pytest

from fluidsar import balance, solver
from fluidsar.balance import BalanceConfig, solve_sinr_balance
from fluidsar.baselines import central_grid_layout, solve_aps
from fluidsar.channel import (
    ConfigurationError,
    Region,
    aps_grid,
    channel_matrix,
    min_pairwise_distance,
    sample_channel,
    uniform_line_layout,
)
from fluidsar.exposure import paper_sar_matrix, sar_value, synthesize_sar_matrix
from fluidsar.solver import (
    DegenerateUserError,
    SinrTargets,
    _Geometry,
    _majorizers,
    _residual,
    solve_auxiliary,
    solve_precoder,
    solve_sar_min,
)

from conftest import NOISE_W, WAVELENGTH, fast_config, random_complex
from test_position_reference import solver_qp_step


# ----------------------------------------------------------- precoder step

def test_precoder_scalar_closed_form(rng):
    # M=K=1: p = mu z h / (r + mu |h|^2)
    r = 1.6
    model = synthesize_sar_matrix(1)
    h = random_complex(rng, 1)
    z = random_complex(rng, (1, 1))
    mu = 0.37
    H = h[None, :]
    P = solve_precoder(H, z, model, mu)
    expected = mu * z[0, 0] * h[0] / (r + mu * abs(h[0]) ** 2)
    assert P[0, 0] == pytest.approx(expected, rel=1e-12)


def test_precoder_zero_aux_gives_zero(rng):
    model = paper_sar_matrix()
    H = random_complex(rng, (4, 4))
    P = solve_precoder(H, np.zeros((4, 4), dtype=complex), model, 1.0)
    assert np.allclose(P, 0.0)


def test_precoder_matches_lstsq_oracle(rng):
    # independent dense construction of the stationarity system, entry by entry
    model = paper_sar_matrix()
    for _ in range(5):
        H = random_complex(rng, (4, 4))
        Z = random_complex(rng, (4, 4))
        mu = rng.uniform(0.05, 5.0)
        P = solve_precoder(H, Z, model, mu)
        R = model.matrix
        A = np.zeros((4, 4), dtype=complex)
        A += R + R.conj().T
        for i in range(4):
            A += 2 * mu * np.outer(H[i], H[i].conj())
        for k in range(4):
            b = np.zeros(4, dtype=complex)
            for i in range(4):
                b += 2 * mu * Z[i, k] * H[i]
            oracle, *_ = np.linalg.lstsq(A, b, rcond=None)
            assert np.allclose(P[:, k], oracle, rtol=1e-8, atol=1e-12)
            # residual of the stationarity condition
            assert np.linalg.norm(A @ P[:, k] - b) < 1e-8 * max(1.0, np.linalg.norm(b))


def test_precoder_is_block_minimizer(rng):
    # perturbing any column must not lower the penalized objective
    model = paper_sar_matrix()
    H = random_complex(rng, (4, 4))
    Z = random_complex(rng, (4, 4))
    mu = 0.8

    def objective(P):
        return sar_value(P, model) + mu * np.linalg.norm(H.conj() @ P - Z) ** 2

    P = solve_precoder(H, Z, model, mu)
    base = objective(P)
    for _ in range(20):
        assert objective(P + 1e-4 * random_complex(rng, (4, 4))) >= base - 1e-12


# ----------------------------------------------------------- auxiliary step

def aux_objective(c_row, z_row):
    return float(np.sum(np.abs(c_row - z_row) ** 2))


def zeta_grid_oracle(c_row, k, gbar, noise, grid=200000):
    """Fine grid search over the dual path, restricted to feasible points.

    Two-stage refinement keeps the grid's own resolution error far below the
    comparison tolerance.
    """
    s = abs(c_row[k]) ** 2
    interf = float(np.sum(np.abs(np.delete(c_row, k)) ** 2))

    def scan(lo, hi):
        zs = np.linspace(lo, hi, grid)
        feas = s / (1 - zs) ** 2 - gbar * interf / (1 + zs * gbar) ** 2 - gbar * noise >= 0
        vals = s * (zs / (1 - zs)) ** 2 + interf * (zs * gbar / (1 + zs * gbar)) ** 2
        vals = np.where(feas, vals, np.inf)
        i = int(np.argmin(vals))
        return zs, vals, i

    zs, vals, i = scan(0.0, 1.0 - 1e-6)
    if not np.isfinite(vals[i]):
        return np.inf
    step = zs[1] - zs[0]
    zs, vals, i = scan(max(0.0, zs[i] - 2 * step), min(1.0 - 1e-6, zs[i] + 2 * step))
    return float(vals[i])


def test_aux_feasible_point_passes_through(rng):
    # already-feasible couplings come back exactly, zeta = 0
    H = random_complex(rng, (4, 3))
    P = H.conj().T * 10.0  # strong matched filter: feasible at modest targets
    targets = SinrTargets.uniform(4, 1e-3)
    Z, zeta, gap = solve_auxiliary(H, P, targets, NOISE_W)
    C = H.conj() @ P
    assert np.array_equal(Z, C)
    assert np.all(zeta == 0.0) and gap == 0.0


def test_aux_k1_closed_form_projection(rng):
    # single user, infeasible: magnitude lifted to the boundary, phase kept
    for _ in range(10):
        h = random_complex(rng, 2)
        p = random_complex(rng, (2, 1), scale=1e-4)
        gbar = rng.uniform(0.5, 4.0)
        targets = SinrTargets(np.ones(1), gbar)
        Z, zeta, _ = solve_auxiliary(h[None, :], p, targets, 1.0)
        c = np.vdot(h, p[:, 0])
        expected = np.sqrt(gbar * 1.0) * np.exp(1j * np.angle(c))
        assert zeta[0] > 0
        assert Z[0, 0] == pytest.approx(expected, rel=1e-6)


def test_aux_matches_grid_oracle(rng):
    # per-user objective within 1e-6 relative of a fine zeta grid search
    K = 4
    for _ in range(12):
        H = random_complex(rng, (K, 4))
        P = random_complex(rng, (4, K), scale=0.3)
        beta0 = rng.uniform(0.5, 3.0)
        targets = SinrTargets.uniform(K, beta0)
        Z, zeta, _ = solve_auxiliary(H, P, targets, 1.0)
        C = H.conj() @ P
        for k in range(K):
            got = aux_objective(C[k], Z[k])
            want = zeta_grid_oracle(C[k], k, beta0, 1.0)
            assert got <= want + 1e-6 * max(1.0, want)
            assert got >= want - 1e-6 * max(1.0, want) - 1e-9


def test_aux_returned_point_is_feasible_and_active(rng):
    K = 3
    for _ in range(20):
        H = random_complex(rng, (K, 4))
        P = random_complex(rng, (4, K), scale=0.2)
        beta0 = rng.uniform(0.5, 5.0)
        targets = SinrTargets.uniform(K, beta0)
        Z, zeta, _ = solve_auxiliary(H, P, targets, 1.0)
        for k in range(K):
            lhs = abs(Z[k, k]) ** 2
            rhs = beta0 * (np.sum(np.abs(np.delete(Z[k], k)) ** 2) + 1.0)
            assert lhs >= rhs * (1 - 1e-12)  # feasible
            if zeta[k] > 0:
                # dual activity: boundary within 1e-8 relative
                assert lhs - rhs <= 1e-8 * rhs


def test_aux_degenerate_user_raises():
    H = np.ones((2, 3), dtype=complex)
    P = np.zeros((3, 2), dtype=complex)  # h^H p = 0 while targets are positive
    with pytest.raises(DegenerateUserError):
        solve_auxiliary(H, P, SinrTargets.uniform(2, 1.0), 1.0)


# ----------------------------------------------------------- position step

def setup_position_instance(rng, M=4, K=4, L=15, scale=1.0):
    real = sample_channel(int(rng.integers(1 << 30)), M, K, L, NOISE_W)
    region = Region(1.0, WAVELENGTH)
    pos = rng.uniform(-region.half_width_m, region.half_width_m, (M, 2))
    P = random_complex(rng, (M, K), scale=scale)
    Z = random_complex(rng, (K, K), scale=scale)
    return real, region, pos, P, Z


def residual_xi(pos, real, P, Z):
    """The coupling residual xi at a layout: the solver's ``_residual`` on the
    conj-channel matrix there."""
    return _residual(channel_matrix(pos, real, WAVELENGTH).conj(), P, Z)[1]


def kernel_gradient(m, pos, real, P, Z):
    """d xi / d t_m as the position sweep forms it: the gradient weights of the
    kernel row at t_m times the (Re, Im) pairs of 2u, u = E P[m, :]^H."""
    E = channel_matrix(pos, real, WAVELENGTH).conj() @ P - Z
    u2 = (2.0 * (E @ P[m].conj())).view(float)
    return _Geometry(real, WAVELENGTH).kernel()(pos[m])[u2.size:].reshape(2, -1) @ u2


def test_position_objective_zero_cases(rng):
    real, region, pos, P, Z = setup_position_instance(rng)
    H = channel_matrix(pos, real, WAVELENGTH)
    exact = H.conj() @ P
    assert residual_xi(pos, real, P, exact) == pytest.approx(0.0, abs=1e-20)
    zero = np.zeros_like(P)
    assert residual_xi(pos, real, zero, np.zeros_like(Z)) == 0.0


def test_position_objective_matches_bruteforce(rng):
    real, region, pos, P, Z = setup_position_instance(rng, M=3, K=2, L=4)
    H = channel_matrix(pos, real, WAVELENGTH)
    acc = 0.0
    for k in range(2):
        for j in range(2):
            acc += abs(np.vdot(H[k], P[:, j]) - Z[k, j]) ** 2
    assert residual_xi(pos, real, P, Z) == pytest.approx(acc, rel=1e-12)


def fd_gradient(m, pos, real, P, Z, step):
    g = np.zeros(2)
    for d in range(2):
        up = pos.copy()
        up[m, d] += step
        dn = pos.copy()
        dn[m, d] -= step
        g[d] = (residual_xi(up, real, P, Z) - residual_xi(dn, real, P, Z)) / (2 * step)
    return g


def test_gradient_zero_when_data_zero(rng):
    real, region, pos, _, _ = setup_position_instance(rng, M=2, K=2, L=3)
    zeroP = np.zeros((2, 2), dtype=complex)
    zeroZ = np.zeros((2, 2), dtype=complex)
    g = kernel_gradient(0, pos, real, zeroP, zeroZ)
    assert np.allclose(g, 0.0)


def test_gradient_matches_finite_differences(rng):
    step = 1e-6 * WAVELENGTH
    for _ in range(15):
        real, region, pos, P, Z = setup_position_instance(rng, M=2, K=2, L=3)
        for m in range(2):
            g = kernel_gradient(m, pos, real, P, Z)
            fd = fd_gradient(m, pos, real, P, Z, step)
            assert np.linalg.norm(g - fd) / (np.linalg.norm(fd) + 1e-12) <= 1e-5


def test_gradient_single_path_symbolic(rng):
    # one user, one path, one interferer-free column: the objective reduces to
    # |f p e^{-j kappa rho} - z|^2 whose gradient is available symbolically
    L = 1
    theta, phi = rng.uniform(0, np.pi, 2)
    f = random_complex(rng, 1)[0]
    p = random_complex(rng, 1)[0]
    z = random_complex(rng, 1)[0]
    from fluidsar.channel import PathSet, ChannelRealization
    real = ChannelRealization(
        paths=(PathSet(np.array([theta]), np.array([phi]), np.array([f])),),
        noise_variance=NOISE_W)
    pos = rng.uniform(-WAVELENGTH, WAVELENGTH, (1, 2))
    kap = 2 * np.pi / WAVELENGTH
    ax = np.sin(theta) * np.cos(phi)
    ay = np.cos(theta)
    rho = pos[0, 0] * ax + pos[0, 1] * ay
    c = np.conj(f) * np.exp(1j * kap * rho) * p
    # d/dx |c(x) - z|^2 = 2 Re{ conj(c - z) * j kap ax c }
    expected = np.array([
        2 * np.real(np.conj(c - z) * 1j * kap * ax * c),
        2 * np.real(np.conj(c - z) * 1j * kap * ay * c),
    ])
    g = kernel_gradient(0, pos, real, np.array([[p]]), np.array([[z]]))
    assert np.allclose(g, expected, rtol=1e-9, atol=1e-9)


def test_majorizer_scalar_specialization(rng):
    # M=K=L=1: tau = (8 pi^2 / lambda^2)(|p|^2 |f|^2 + 2 |f| |p z|)
    from fluidsar.channel import PathSet, ChannelRealization
    f = random_complex(rng, 1)[0]
    p = random_complex(rng, 1)[0]
    z = random_complex(rng, 1)[0]
    real = ChannelRealization(
        paths=(PathSet(np.array([0.3]), np.array([1.1]), np.array([f])),),
        noise_variance=NOISE_W)
    pos = np.zeros((1, 2))
    tau = _majorizers(_Geometry(real, WAVELENGTH), np.array([[p]]), np.array([[z]]),
                      WAVELENGTH)[0]
    expected = (8 * np.pi ** 2 / WAVELENGTH ** 2) * (
        abs(p) ** 2 * abs(f) ** 2 + 2 * abs(f) * abs(p * np.conj(z)))
    assert tau == pytest.approx(expected, rel=1e-12)


def test_majorizer_zero_case(rng):
    real, region, pos, _, _ = setup_position_instance(rng, M=2, K=2, L=3)
    zero = np.zeros((2, 2), dtype=complex)
    assert _majorizers(_Geometry(real, WAVELENGTH), zero, zero, WAVELENGTH)[0] == 0.0


def test_majorizer_dominates_fd_hessian(rng):
    step = 1e-5 * WAVELENGTH
    for _ in range(15):
        real, region, pos, P, Z = setup_position_instance(rng, M=3, K=2, L=4)
        taus = _majorizers(_Geometry(real, WAVELENGTH), P, Z, WAVELENGTH)
        for m in range(3):
            # FD Hessian of the objective in t_m
            Hm = np.zeros((2, 2))
            for d in range(2):
                up = pos.copy()
                up[m, d] += step
                dn = pos.copy()
                dn[m, d] -= step
                gu = kernel_gradient(m, up, real, P, Z)
                gd = kernel_gradient(m, dn, real, P, Z)
                Hm[:, d] = (gu - gd) / (2 * step)
            lam_max = np.linalg.eigvalsh((Hm + Hm.T) / 2).max()
            assert taus[m] >= lam_max


def test_majorization_upper_bound_property(rng):
    # q(t) <= q(t0) + g.(t - t0) + tau/2 |t - t0|^2 for |t - t0| <= lambda
    for _ in range(25):
        real, region, pos, P, Z = setup_position_instance(rng, M=2, K=2, L=4)
        m = int(rng.integers(2))
        base = residual_xi(pos, real, P, Z)
        g = kernel_gradient(m, pos, real, P, Z)
        tau = _majorizers(_Geometry(real, WAVELENGTH), P, Z, WAVELENGTH)[m]
        delta = rng.uniform(-1, 1, 2)
        delta *= rng.uniform(0, WAVELENGTH) / max(np.linalg.norm(delta), 1e-12)
        moved = pos.copy()
        moved[m] += delta
        lhs = residual_xi(moved, real, P, Z)
        rhs = base + g @ delta + 0.5 * tau * (delta @ delta)
        assert lhs <= rhs + 1e-9
        # equality at the expansion point
        assert residual_xi(pos, real, P, Z) == pytest.approx(base)


# ----------------------------------------------------------- QP and update

def qp_objective(tau, grad, t_old, t):
    c = grad - tau * t_old
    return 0.5 * tau * float(t @ t) + float(c @ t)


def test_qp_box_clip_without_neighbors(rng, region):
    # gradient pushing outside the box, no neighbors: exact clipped minimum
    tau = 3.0
    t_old = np.array([0.8, -0.3]) * region.half_width_m
    grad = np.array([-1.0, 0.2]) * tau * region.half_width_m
    free = t_old - grad / tau
    assert not region.contains(free)
    sol = solver_qp_step(tau, grad, t_old, region, np.empty((0, 2)), WAVELENGTH / 2)
    a = region.half_width_m
    assert np.allclose(sol, np.clip(free, -a, a), atol=1e-12)


def test_qp_matches_grid_oracle(rng, region):
    # dense grid over the linearized feasible set
    lam = WAVELENGTH
    for _ in range(10):
        tau = rng.uniform(0.5, 5.0)
        t_old = rng.uniform(-0.5, 0.5, 2) * region.half_width_m
        others = rng.uniform(-1, 1, (3, 2)) * region.half_width_m
        # keep t_old strictly feasible for the linearization
        others = others[np.linalg.norm(others - t_old, axis=1) >= WAVELENGTH / 2]
        grad = rng.uniform(-1, 1, 2) * tau * lam * 20
        sol = solver_qp_step(tau, grad, t_old, region, others, WAVELENGTH / 2)
        if sol is None:
            continue
        # linearized constraints at t_old
        a_m = region.half_width_m
        xs = np.linspace(-a_m, a_m, 201)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        ok = np.ones(len(pts), dtype=bool)
        for t_l in others:
            d = t_old - t_l
            n = d / np.linalg.norm(d)
            ok &= (pts - t_l) @ n >= WAVELENGTH / 2
        pts = pts[ok]
        vals = 0.5 * tau * (pts ** 2).sum(1) + pts @ (grad - tau * t_old)
        best = vals.min()
        got = qp_objective(tau, grad, t_old, sol)
        # within one grid cell of the dense-search optimum
        cell = 2 * a_m / 200
        slack = cell * (np.linalg.norm(grad) + tau * (np.linalg.norm(sol) + cell))
        assert got <= best + slack
        # and the QP point itself satisfies the constraints
        assert region.contains(sol, tol=1e-12)
        for t_l in others:
            d = t_old - t_l
            n = d / np.linalg.norm(d)
            assert (sol - t_l) @ n >= WAVELENGTH / 2 - 1e-9


def kkt_branch(t, free, A, b, scale, rel=1e-9):
    """Which kind of point t is for the projection of ``free`` onto
    {t : A t >= b}: "free" (t is the free point), "single" (free - t is a
    nonnegative multiple of one active row's outward normal -A[i]) or
    "vertex" (a nonnegative combination of two); None if it is no KKT point."""
    r = t - free  # = sum of lam_i A[i] with lam_i >= 0 over the active rows
    nr = np.linalg.norm(r)
    if nr <= rel * scale:
        return "free"
    active = np.flatnonzero(A @ t - b <= rel * scale)
    for i in active:
        lam = A[i] @ r
        if lam >= 0 and np.linalg.norm(r - lam * A[i]) <= rel * nr:
            return "single"
    for k, i in enumerate(active):
        for j in active[k + 1:]:
            N = np.column_stack((A[i], A[j]))
            if abs(np.linalg.det(N)) < 1e-6:
                continue
            lam = np.linalg.solve(N, r)
            if np.all(lam >= -rel * nr) and np.linalg.norm(r - N @ lam) <= rel * nr:
                return "vertex"
    return None


def test_qp_is_the_projection_of_the_free_step():
    # certified without any reference QP: the returned point meets every row
    # and is a KKT point of projecting the free step onto the box and the
    # linearized spacing rows, for free steps inside, on and beyond the box
    # faces, the box corners and the spacing rows
    rng = np.random.default_rng(11)
    d = WAVELENGTH / 2
    branches = {}
    for i in range(1500):
        region = Region((1.0, 2.5, 3.0)[i % 3], WAVELENGTH)
        a = region.half_width_m
        t_old = rng.uniform(-a, a, 2)
        angles = rng.uniform(0, 2 * np.pi, int(rng.integers(0, 6)))
        others = t_old + d * rng.uniform(1.0, 2.0, (angles.size, 1)) \
            * np.column_stack((np.cos(angles), np.sin(angles)))
        N = (t_old - others) / np.linalg.norm(t_old - others, axis=1)[:, None]
        A = np.vstack(([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], N))
        b = np.concatenate(([-a] * 4, d + (N * others).sum(axis=1)))
        kind = i % 6
        far = a * rng.uniform(1e-3, 1.0)
        if kind == 0:    # near the antenna
            free = t_old + rng.normal(0, 0.1 * d, 2)
        elif kind == 1:  # on a box face
            free = rng.uniform(-a, a, 2)
            free[rng.integers(2)] = a * rng.choice((-1.0, 1.0))
        elif kind == 2:  # beyond a box face
            free = rng.uniform(-a, a, 2)
            free[rng.integers(2)] = (a + far) * rng.choice((-1.0, 1.0))
        elif kind == 3:  # beyond a box corner
            free = (a + far * rng.uniform(0.1, 1.0, 2)) * rng.choice((-1.0, 1.0), 2)
        else:            # on (4) or beyond (5) a spacing row, else a box row
            j = int(rng.integers(4, len(b))) if len(b) > 4 else int(rng.integers(4))
            along = np.array([-A[j, 1], A[j, 0]]) * rng.normal(0, a)
            free = b[j] * A[j] + along - (far if kind == 5 else 0.0) * A[j]
        tau = 10.0 ** rng.uniform(-2, 3)
        grad = (t_old - free) * tau
        t = solver_qp_step(tau, grad, t_old, region, others, d)
        if t is None:
            branches["none"] = branches.get("none", 0) + 1
            continue
        assert np.all(np.abs(t) <= a), i
        assert np.all(A @ t >= b - 1e-11 * np.maximum(1.0, np.abs(b))), i
        branch = kkt_branch(t, t_old - grad / tau, A, b, a)
        assert branch is not None, (i, t, t_old - grad / tau)
        branches[branch] = branches.get(branch, 0) + 1
    assert min(branches.get(k, 0) for k in ("free", "single", "vertex")) >= 50, branches


def sweep(pos, real, P, Z, region):
    """One position sweep of the solver on a copy of ``pos``: the layout after
    it and the step counts by status."""
    config = fast_config(region=region)
    moved = np.array(pos, dtype=float)
    Hbar = channel_matrix(moved, real, WAVELENGTH).conj()
    state = solver._SolveState(real, config)
    solver._sweep_positions(moved, state, P, Z, config, Hbar, solver._residual(Hbar, P, Z))
    return moved, state.steps


def test_position_sweep_fixed_point(rng, region):
    # zero residual at a feasible point: no antenna moves
    real, _, pos, P, Z = setup_position_instance(rng, M=2, K=2, L=3)
    pos = uniform_line_layout(2, region)
    H = channel_matrix(pos, real, WAVELENGTH)
    exact = H.conj() @ P
    moved, counts = sweep(pos, real, P, exact, region)
    assert np.array_equal(moved, pos) and not any(counts.values())


def test_position_sweep_respects_constraints(rng, region):
    steps = {}
    for _ in range(20):
        real, _, pos, P, Z = setup_position_instance(rng, M=4, K=3, L=5, scale=2.0)
        pos = uniform_line_layout(4, region)
        moved, counts = sweep(pos, real, P, Z, region)
        for status, n in counts.items():
            steps[status] = steps.get(status, 0) + n
        assert region.contains(moved, tol=1e-12)
        assert min_pairwise_distance(moved) >= WAVELENGTH / 2 - 1e-9
    assert steps.get("free", 0) > 0 and steps.get("qp", 0) > 0, steps


def test_accepted_steps_meet_the_surrogate_at_their_curvature(monkeypatch):
    # every accepted continuous step t -> t' of a sweep satisfies
    #     J(t') <= J(t) + g.(t' - t) + tau_loc / 2 ||t' - t||^2
    # at the local curvature tau_loc it was taken with, and no step uses a
    # curvature above the majorizer tau. J is evaluated from scratch.
    from test_position_reference import random_state

    calls = []
    step = solver._step_from_gradient

    def recording(t_old, grad, tau, region, min_distance, others):
        t_new, status = step(t_old, grad, tau, region, min_distance, others)
        calls.append((live.copy(), t_old, grad, tau, t_new))
        return t_new, status

    monkeypatch.setattr(solver, "_step_from_gradient", recording)
    rng = np.random.default_rng(31)
    accepted = below_tau = 0
    for i in range(0, 160, 2):  # the continuous states
        real, config, live, P, Z = random_state(rng, i)
        if min_pairwise_distance(live) == 0.0:
            continue  # two antennas on one point: a step cannot name its antenna
        state = solver._SolveState(real, config)
        taus = _majorizers(state.geometry, P, Z, WAVELENGTH)
        Hbar = channel_matrix(live, real, WAVELENGTH).conj()
        calls.clear()
        solver._sweep_positions(live, state, P, Z, config, Hbar, solver._residual(Hbar, P, Z))
        # a step was accepted when the layout seen next (by the next step, or
        # at the end) has the antenna at the step's end point
        seen_next = [c[0] for c in calls[1:]] + [live]
        for (layout, t_old, grad, tau_loc, t_new), after in zip(calls, seen_next):
            m = int(np.flatnonzero(np.all(layout == t_old, axis=1))[0])
            assert tau_loc <= taus[m]
            if tuple(after[m]) != tuple(t_new) or tuple(t_new) == tuple(t_old):
                continue
            moved = layout.copy()
            moved[m] = t_new
            j_old = residual_xi(layout, real, P, Z)
            j_new = residual_xi(moved, real, P, Z)
            d = np.subtract(t_new, t_old)
            bound = j_old + float(np.dot(grad, d)) + 0.5 * tau_loc * float(d @ d)
            assert j_new <= bound + 1e-10 * j_old, (i, m, j_new, bound, tau_loc / taus[m])
            accepted += 1
            below_tau += tau_loc < taus[m]
    assert accepted > 500 and below_tau > 0.9 * accepted, (accepted, below_tau)


def test_backtracking_stops_at_the_majorizer(monkeypatch):
    # with the cap set far below the local curvature, every step doubles
    # until it reaches its antenna's cap, and none goes past it; a carried
    # curvature of 0.6 cap starts at 0.3 cap, so the doublings do not land
    # on the cap by themselves
    from test_position_reference import random_state

    tried = []
    step = solver._step_from_gradient

    def recording(t_old, grad, tau, *rest):
        m = int(np.flatnonzero(np.all(positions == t_old, axis=1))[0])
        tried.append((m, tau))
        return step(t_old, grad, tau, *rest)

    monkeypatch.setattr(solver, "_step_from_gradient", recording)
    monkeypatch.setattr(solver, "_majorizers", lambda *a: _majorizers(*a) * 1e-4)
    real, config, positions, P, Z = random_state(np.random.default_rng(5), 2)
    state = solver._SolveState(real, config)
    caps = solver._majorizers(state.geometry, P, Z, WAVELENGTH).tolist()
    state.tau_accepted.update({m: 0.6 * c for m, c in enumerate(caps)})
    Hbar = channel_matrix(positions, real, WAVELENGTH).conj()
    solver._sweep_positions(positions, state, P, Z, config, Hbar,
                            solver._residual(Hbar, P, Z))
    assert {m for m, _ in tried} == set(range(len(caps)))
    assert all(tau <= caps[m] for m, tau in tried)
    assert {m for m, tau in tried if tau == caps[m]} == set(range(len(caps)))


def test_point_rows_match_the_channel():
    # the continuous kernel's conj-channel row for an antenna at t, the first
    # 2K numbers of ``row`` as (Re, Im) pairs, is the column of
    # channel_matrix(...).conj() there, to 1e-13 of its norm
    rng = np.random.default_rng(41)
    worst = 0.0
    for i in range(50):
        real = sample_channel(1000 + i, 4, 4, (5, 15)[i % 2], NOISE_W)
        row_at = _Geometry(real, WAVELENGTH).kernel()
        pts = rng.uniform(-3.0, 3.0, (4, 2)) * WAVELENGTH
        Hc = channel_matrix(pts, real, WAVELENGTH).conj()
        for m, t in enumerate(pts.tolist()):
            row = row_at(tuple(t))
            assert row.shape == (24,)
            h = row[:8].view(complex)
            worst = max(worst, np.abs(h - Hc[:, m]).max() / np.linalg.norm(Hc[:, m]))
    assert worst <= 1e-13, worst


def test_moved_residual_matches_a_fresh_residual():
    # a continuous step scores its candidate from the rows of its two points:
    # with delta the step of the conj-channel row and u2 = 2 E P[m, :]^H, both
    # as (Re, Im) pairs, [u2; delta] @ delta = [2 Re(delta^H u), ||delta||^2],
    # and xi plus the first plus ||P[m, :]||^2 times the second must equal the
    # residual recomputed directly at the moved layout, to 1e-13 xi
    from test_position_reference import random_state

    rng = np.random.default_rng(43)
    for i in range(0, 200, 2):  # the continuous states
        real, config, pos, P, Z = random_state(rng, i)
        row_at = _Geometry(real, WAVELENGTH).kernel()
        E = channel_matrix(pos, real, WAVELENGTH).conj() @ P - Z
        xi = float(np.vdot(E, E).real)
        m = i % 4
        moved = pos.copy()
        moved[m] += rng.normal(0.0, (1e-4, 1e-2, 0.3)[i % 3] * WAVELENGTH, 2)
        delta = row_at(tuple(moved[m]))[:8] - row_at(tuple(pos[m]))[:8]
        u2 = (2.0 * (E @ P[m].conj())).view(float)
        a, b = np.stack([u2, delta]) @ delta
        got = xi + a + b * float(np.vdot(P[m], P[m]).real)
        want = residual_xi(moved, real, P, Z)
        assert abs(got - want) <= 1e-13 * xi, (i, got, want)


def test_kernel_runs_once_per_candidate(monkeypatch):
    # a moving solve computes one row per candidate point, which is every
    # free, QP and rejected (doubled) step, plus one per antenna where it
    # starts; an antenna's row is carried from one visit to the next
    real = sample_channel(3, 4, 4, 15, NOISE_W)
    rows = []
    kernel = _Geometry.kernel

    def counting(self):
        row = kernel(self)
        return lambda t: rows.append(t) or row(t)

    monkeypatch.setattr(_Geometry, "kernel", counting)
    rep = solve_sar_min(real, SinrTargets.uniform(4, 1.0 / NOISE_W), paper_sar_matrix(),
                        fast_config())
    steps = rep.position_steps
    assert rep.outer_iterations > 1 and steps["free"] > 0 and steps["stuck"] == 0
    assert len(rows) == steps["free"] + steps["qp"] + steps["backtrack"] + 4


def test_inner_loops_carry_the_channel(monkeypatch):
    # each outer iteration starts from the conj-channel matrix the last one
    # returned, which agrees with channel_matrix at its layout; channel_matrix
    # itself runs at the start and at the exact solve only
    real = sample_channel(3, 4, 4, 15, NOISE_W)
    starts, matrices = [], []
    inner_loop, channel = solver.inner_loop, solver.channel_matrix

    def checking(*args, **kwargs):
        call = inspect.signature(inner_loop).bind(*args, **kwargs).arguments
        Hbar = call["Hbar"]
        starts.append(np.abs(Hbar - channel(call["positions"], real, WAVELENGTH).conj()).max()
                      / np.linalg.norm(Hbar))
        return inner_loop(*args, **kwargs)

    monkeypatch.setattr(solver, "inner_loop", checking)
    monkeypatch.setattr(solver, "channel_matrix", lambda *a: matrices.append(1) or channel(*a))
    rep = solve_sar_min(real, SinrTargets.uniform(4, 1.0 / NOISE_W), paper_sar_matrix(),
                        fast_config())
    assert rep.converged and len(starts) == rep.outer_iterations > 1
    assert max(starts) <= 1e-12, max(starts)
    assert len(matrices) == 2


def test_lattice_table_rows_match_direct_evaluation():
    # the lattice search gathers candidate rows from a table built once per
    # channel and region; each row must be, bit for bit, the conj-channel row
    # that channel_matrix gives its point in a layout of M = 4 antennas, as a
    # solve evaluates it, so that gathering cannot change which candidate the
    # search picks or the rows it carries
    rng = np.random.default_rng(5)
    for seed, half_width in ((7, 2.5), (8, 1.0), (9, 3.0)):
        real = sample_channel(seed, 4, 4, 15, NOISE_W)
        region = Region(half_width, WAVELENGTH)
        lat = solver._Lattice(real, region)
        n = len(lat.grid)
        assert np.array_equal(lat.grid, aps_grid(region)) and lat.hbar.shape == (n, 4)
        for i in range(n):
            at = rng.permutation([i, *rng.choice(np.delete(np.arange(n), i), 3, False)])
            Hc = channel_matrix(lat.grid[at], real, WAVELENGTH).conj()
            assert np.array_equal(lat.hbar[i], Hc[:, list(at).index(i)]), (seed, i)


def test_lattice_tables_built_once_per_solve(monkeypatch):
    # one lattice solve builds its region's table once, not once per inner
    # loop, from one channel_matrix call (for the check that the start lies on
    # the lattice) beside those at its start layout and at its exact solve
    real = sample_channel(3, 4, 4, 15, NOISE_W)
    region = Region(1.0, WAVELENGTH)
    grid = aps_grid(region)
    lattices = count_builds(monkeypatch, solver._Lattice)
    points, channel = [], solver.channel_matrix
    monkeypatch.setattr(solver, "channel_matrix",
                        lambda pts, *a: points.append(len(pts)) or channel(pts, *a))
    cfg = fast_config(region=region, lattice=True)
    rep = solve_sar_min(real, SinrTargets.uniform(4, 1.0 / NOISE_W), paper_sar_matrix(), cfg,
                        initial_layout=central_grid_layout(grid, 4, WAVELENGTH / 2))
    assert rep.outer_iterations > 1 and rep.inner_sweeps_total > rep.outer_iterations
    assert lattices == [(real, region)]
    assert points == [len(grid), 4, 4]


def test_lattice_solve_rejects_a_start_off_its_lattice():
    # the lattice search moves antennas between lattice points only, so a
    # start it could not index (the line array sits at x = +-lambda/4,
    # +-3 lambda/4) is refused, with or without an explicit layout
    real = sample_channel(3, 4, 4, 15, NOISE_W)
    region = Region(1.0, WAVELENGTH)
    grid = aps_grid(region)
    cfg = fast_config(region=region, lattice=True)
    targets = SinrTargets.uniform(4, 1.0 / NOISE_W)
    start = grid[[0, 2, 4, 12]]  # (-1, -1), (-1, 0), (-1, 1) and (0, 0) wavelengths
    start[3, 0] += 1e-9
    for layout in (None, uniform_line_layout(4, region), start):
        with pytest.raises(ConfigurationError, match="off the position lattice"):
            solve_sar_min(real, targets, paper_sar_matrix(), cfg, initial_layout=layout)


@pytest.mark.parametrize("half_width,adjacent", [(1.0, 40), (2.5, 220), (3.0, 312)])
def test_lattice_search_offers_every_free_point_next_to_an_antenna(half_width, adjacent):
    # any two distinct lattice points keep the spacing, so a free point next
    # to another antenna is a candidate like any other: for every
    # lambda/2-adjacent pair (p, q), on either side of the origin, with
    # antenna 1 on p and a residual that moving antenna 0 to q cancels, the
    # search moves antenna 0 to q
    real = sample_channel(9, 4, 4, 15, NOISE_W)
    lat = solver._Lattice(real, Region(half_width, WAVELENGTH))
    steps = np.rint(lat.grid / (WAVELENGTH / 2))
    pairs = np.argwhere(np.abs(steps[:, None, :] - steps[None, :, :]).sum(axis=2) == 1)
    assert len(pairs) == 2 * adjacent
    P = random_complex(np.random.default_rng(3), (4, 4))
    for p, q in pairs.tolist():
        rest = [i for i in range(len(lat.grid)) if i not in (p, q)]
        at = [rest[0], p, rest[1], rest[2]]
        positions, Hbar = lat.grid[at].copy(), lat.hbar[at].T.copy()
        Z = Hbar @ P + np.outer(lat.hbar[q] - lat.hbar[at[0]], P[0])
        solver._select_positions_on_grid(positions, lat, P, Z, Hbar,
                                         solver._residual(Hbar, P, Z))
        assert np.array_equal(positions[0], lat.grid[q]), (p, q)


def nearest_row_distance(lat, i):
    """Distance from lattice point i's conj-channel row to the nearest row of
    any other point, by a plain loop over the points."""
    return min(np.linalg.norm(lat.hbar[j] - lat.hbar[i]) for j in range(len(lat.grid)) if j != i)


@pytest.mark.parametrize("half_width", [1.0, 3.0])
def test_lattice_search_leaves_a_settled_layout_unchanged(half_width):
    # when ||P[m, :]|| d(t_m) >= 2 ||E|| for every antenna, no lattice move
    # lowers the residual: the search must keep every antenna where it is.
    # The states use random and adversarial residuals: -s delta P[m, :], with
    # delta the step to the nearest row of the tightest antenna, ties the bound
    real = sample_channel(8, 4, 4, 15, NOISE_W)
    region = Region(half_width, WAVELENGTH)
    lat = solver._Lattice(real, region)
    grid = lat.grid
    rng = np.random.default_rng(17)
    moved_beyond_bound = 0
    for i in range(60):
        at = rng.permutation(len(grid))[:4].tolist()
        positions = lat.grid[at].copy()
        Hbar = lat.hbar[at].T.copy()
        P = random_complex(rng, (4, 4), scale=rng.uniform(0.1, 10.0))
        d = np.array([nearest_row_distance(lat, j) for j in at])
        reach = np.linalg.norm(P, axis=1) * d
        bound = reach.min() / 2.0
        if i % 2:
            E = random_complex(rng, (4, 4))
        else:
            m = int(reach.argmin())
            j = min((k for k in range(len(grid)) if k != at[m]),
                    key=lambda k: np.linalg.norm(lat.hbar[k] - lat.hbar[at[m]]))
            E = -np.outer(lat.hbar[j] - lat.hbar[at[m]], P[m])
        for scale in (rng.uniform(0.0, 0.999), 0.999, 3.0):
            E_s = E * (scale * bound / np.linalg.norm(E))
            Z = Hbar @ P - E_s
            xi = float(np.vdot(E_s, E_s).real)
            settled = solver._lattice_settled(lat, positions, P, xi)
            assert settled == (scale < 1.0), (i, scale)
            pos, H = positions.copy(), Hbar.copy()
            solver._select_positions_on_grid(pos, lat, P, Z, H, solver._residual(H, P, Z))
            if settled:
                assert np.array_equal(pos, positions) and np.array_equal(H, Hbar), (i, scale)
            else:
                moved_beyond_bound += not np.array_equal(pos, positions)
    # beyond the bound the same states do move: the check is not vacuous
    assert moved_beyond_bound >= 10


def test_settled_lattice_solve_stops_on_the_exact_solve():
    # the settled exit stops a lattice path long before the paper's xi rule
    # would, as converged, and emits the exact optimum at its layout
    from fluidsar.fixed import optimal_precoder
    real = sample_channel(0, 4, 4, 15, NOISE_W)
    region = Region(1.0, WAVELENGTH)
    grid = aps_grid(region)
    cfg = fast_config(region=region, lattice=True)
    model, targets = paper_sar_matrix(), SinrTargets.uniform(4, 1.0 / NOISE_W)
    rep = solve_sar_min(real, targets, model, cfg,
                        initial_layout=central_grid_layout(grid, 4, cfg.distance))
    assert rep.converged and rep.status == "converged" and rep.feasible
    assert rep.xi >= cfg.eps_outer and rep.xi == rep.outer_trace[-1][2]
    exact = optimal_precoder(channel_matrix(rep.layout, real, WAVELENGTH), model,
                             targets.thresholds, NOISE_W)
    assert np.array_equal(rep.precoder, exact)
    assert rep.sar == sar_value(exact, model)


# ------------------------------------------------------------------ channel tables

def count_builds(monkeypatch, cls):
    """Record the arguments of every ``cls`` built from here on."""
    built = []
    init = cls.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", spy)
    return built


def test_a_channel_builds_its_tables_once_for_every_solve(monkeypatch):
    # a balance ladder probes its channel many times, and APS runs a ladder
    # from each of two lattice starts: every solve reads the one geometry of
    # the channel, and the one lattice table of the region
    geometries = count_builds(monkeypatch, solver._Geometry)
    lattices = count_builds(monkeypatch, solver._Lattice)
    real = sample_channel(12, 4, 4, 15, NOISE_W)
    region = Region(3.0, WAVELENGTH)
    cfg = fast_config(region=region)
    bal = BalanceConfig(accuracy=1e13, bracket=(0.0, 1e15))
    solves = []
    sar_min = solver.solve_sar_min
    monkeypatch.setattr(balance, "solve_sar_min",
                        lambda *args, **kw: solves.append(1) or sar_min(*args, **kw))
    fas = solve_sinr_balance(real, paper_sar_matrix(), bal, cfg)
    aps = solve_aps(real, paper_sar_matrix(), "balance", None, cfg, bal)
    assert fas.probes["bisect"] > 1 and aps.evaluated == 2 and len(solves) > 4
    assert geometries == [(real, WAVELENGTH)]
    assert [args[1] for args in lattices] == [region]
    assert list(real._geometry) == [WAVELENGTH]


def test_solves_of_one_channel_share_tables_but_no_scratch():
    # two solves of one channel read one geometry, but each kernel row writes
    # into buffers of its own, so solves in threads cannot overwrite each
    # other's rows; a lattice solve takes the region's one table, no row
    real = sample_channel(14, 4, 4, 15, NOISE_W)
    a, b = (solver._SolveState(real, fast_config()) for _ in range(2))
    assert a.geometry is b.geometry and a.lattice is None

    def scratch(row):
        cells = [c.cell_contents for c in row.__closure__]
        return [x for x in cells if isinstance(x, np.ndarray)
                and x is not a.geometry.phase and x is not a.geometry.mix]

    assert len(scratch(a.row)) == 4
    assert not any(np.shares_memory(x, y) for x in scratch(a.row) for y in scratch(b.row))
    t = (0.3 * WAVELENGTH, -0.2 * WAVELENGTH)
    assert np.array_equal(a.row(t), b.row(t))
    lattice = fast_config(region=Region(1.0, WAVELENGTH), lattice=True)
    c, d = (solver._SolveState(real, lattice) for _ in range(2))
    assert c.geometry is a.geometry and c.row is None and c.lattice is d.lattice


def test_a_solve_on_filled_tables_equals_one_on_a_fresh_channel():
    # the tables hold only what the channel determines: solving again on a
    # channel whose tables earlier solves filled gives, bit for bit, what the
    # same solve gives on the same channel freshly sampled
    targets = SinrTargets.uniform(4, 1.0 / NOISE_W)
    cfg = fast_config(region=Region(3.0, WAVELENGTH))
    model = paper_sar_matrix()

    def solves(real):
        return [solve_sar_min(real, targets, model, cfg),
                solve_aps(real, model, "sar-min", None, cfg, targets=targets).best,
                solve_sinr_balance(real, model, BalanceConfig(accuracy=1e13), cfg).report]

    warm = sample_channel(13, 4, 4, 15, NOISE_W)
    solves(warm)
    assert warm._geometry[WAVELENGTH].lattices[cfg.region].near is not None
    for again, fresh in zip(solves(warm), solves(sample_channel(13, 4, 4, 15, NOISE_W))):
        for name in ("precoder", "layout", "sar", "status"):
            assert np.array_equal(getattr(again, name), getattr(fresh, name)), name
        assert list(again.outer_trace) == list(fresh.outer_trace)
        assert list(again.inner_objective_trace) == list(fresh.inner_objective_trace)


def nearest_by_norm(lat, at):
    """The distances that the settled check computed for every call before the
    table: each row's norm to every row, its own set to inf, then the minima."""
    d = np.linalg.norm(lat.hbar[None, :, :] - lat.hbar[at][:, None, :], axis=2)
    d[np.arange(len(at)), at] = np.inf
    return d.min(axis=1)


@pytest.mark.parametrize("half_width", [1.0, 2.5, 3.0])
def test_nearest_row_table_equals_the_norms_bit_for_bit(half_width):
    # the table, filled in blocks of the first caller's antenna count, holds
    # exactly the minima of the norms over all rows, whatever the count
    rng = np.random.default_rng(23)
    for seed, first in ((4, 4), (5, 1), (6, 3)):
        real = sample_channel(seed, 4, 4, 15, NOISE_W)
        lat = solver._Lattice(real, Region(half_width, WAVELENGTH))
        n = len(lat.grid)
        assert lat.near is None
        lat.nearest(rng.permutation(n)[:first].tolist())
        for start in range(0, n, 4):
            at = list(range(start, min(start + 4, n)))
            assert np.array_equal(lat.near[at], nearest_by_norm(lat, at))
        for _ in range(20):
            at = rng.permutation(n)[:rng.integers(1, 8)].tolist()
            assert np.array_equal(lat.nearest(at), nearest_by_norm(lat, at))


def test_settled_check_gives_the_verdict_of_the_norms():
    # the settled check reads the table where it computed the norms: the same
    # verdict on random states, with residuals scaled around the bound
    rng = np.random.default_rng(29)
    agree = {True: 0, False: 0}
    for seed, half_width in ((8, 1.0), (9, 3.0)):
        lat = solver._Lattice(sample_channel(seed, 4, 4, 15, NOISE_W),
                              Region(half_width, WAVELENGTH))
        for _ in range(100):
            M = int(rng.integers(1, 6))
            at = rng.permutation(len(lat.grid))[:M].tolist()
            P = random_complex(rng, (M, 4), scale=rng.uniform(0.1, 10.0))
            reach = np.linalg.norm(P, axis=1) * nearest_by_norm(lat, at)
            xi = float((rng.choice([0.5, 0.999999, 1.0, 1.000001, 2.0]) * reach.min() / 2) ** 2)
            expected = bool(np.all(reach >= 2.0 * np.sqrt(xi)))
            assert solver._lattice_settled(lat, lat.grid[at], P, xi) == expected
            agree[expected] += 1
    assert min(agree.values()) >= 40  # both verdicts are exercised
