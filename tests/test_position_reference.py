"""The position and auxiliary blocks against frozen references: the
implementations they replaced, kept here verbatim except where marked.

The solver's lattice search was rewritten for speed (a precomputed lattice
table) with the promise that every solve follows the same trajectory bit for
bit. These tests run random states through both versions and require equal
bits: positions, the conj-channel matrix Hbar, the residual E and whether an
antenna got stuck (the reference's flag; a rise in the solver's "stuck" step
count). Both take their lattice rows from ``channel_matrix``: the solver once
per channel and region, for its table, and the reference once per move, for
that move's candidates; ``channel_matrix`` gives a point the same bits in any
call of two or more points.

The auxiliary block finds each user's multiplier by safeguarded Newton steps
on its dual root function, where the reference halves the bracket up to 60
times. Both stop on the same test, f(hi) <= 1e-10 g sigma^2 or a bracket
narrower than 1e-14, so the block is pinned to a tolerance: the multipliers
within 1e-9 of the reference's, each on the feasible side and meeting that
test, and a gap certificate no wider than the reference's, in at most 5
evaluations of the root function per root on average. The position block's
curvature bounds are pinned to the formula they replaced (``ref_majorizers``).

The continuous steps changed their rule on purpose: each step is now
backtracked on a local curvature instead of always taking the majorizer's
global bound, whose steps crawled. The reference sweep restates that rule
plainly (marked "changed"), with the per-path channel terms and a residual E
it forms for every candidate.

The solver's continuous steps then moved to a kernel of their own: one real
product per candidate point gives its channel row and gradient weights, and
the candidate's residual comes from the expansion xi + 2 Re(delta^H u) +
||delta||^2 ||P[m, :]||^2 instead of a new E. Those sums round differently,
so the continuous sweep is pinned decision for decision rather than bit for
bit: per state and sweep, the same step counts by status, the same verdict on
stuck antennas and the same accepted curvatures, with positions within 1e-12 lambda
and Hbar and E within 1e-12 of their norms. The lattice sweep keeps its bits.

The QP fallback is solved as an exact projection on Python floats, whose
bits differ from the reference's enumeration through BLAS products. So the
reference sweep calls whichever QP it is given: the trajectory test hands it
the solver's, and compares every QP call with the reference QP separately
(``assert_qp_agrees``).
"""
import numpy as np

from fluidsar import solver
from fluidsar.channel import (
    ChannelRealization,
    PathSet,
    Region,
    _signal_interference,
    aps_grid,
    channel_matrix,
    sample_channel,
    uniform_line_layout,
)
from fluidsar.solver import (
    DegenerateUserError,
    SinrTargets,
    SolverConfig,
    _Geometry,
    _majorizers,
)

from conftest import NOISE_W, WAVELENGTH, random_complex

# ----------------------------------------------------------------- reference


class RefGeometry:
    """The reference's view of a channel: kappa, the direction cosines and
    conjugated path gains (K, L), the |gain| sums and the majorizers' s2."""

    def __init__(self, real):
        self.real = real
        self.kappa = 2.0 * np.pi / WAVELENGTH
        self.ax, self.ay, gains = real._stacked
        self.fbar = gains.conj()
        self.abs_gain_sum = np.abs(self.fbar).sum(axis=1)
        self.s2 = float((self.abs_gain_sum ** 2).sum())


def ref_phase_terms(geo, t):
    return geo.fbar * np.exp(1j * geo.kappa * (t[0] * geo.ax + t[1] * geo.ay))


def ref_gradient_from_terms(q, geo, P, E, m):
    s = E.conj() @ P[m, :]
    sq = s[:, None] * q
    gx = -2.0 * geo.kappa * np.imag(np.sum(geo.ax * sq))
    gy = -2.0 * geo.kappa * np.imag(np.sum(geo.ay * sq))
    return np.array([gx, gy])


def ref_qp_constraints(t_old, region, others, min_distance):
    a_m = region.half_width_m
    others = np.atleast_2d(others) if others.size else np.empty((0, 2))
    n = others.shape[0]
    A = np.empty((4 + n, 2))
    b = np.empty(4 + n)
    A[0] = (1.0, 0.0)
    A[1] = (-1.0, 0.0)
    A[2] = (0.0, 1.0)
    A[3] = (0.0, -1.0)
    b[:4] = -a_m
    if n:
        d = t_old[None, :] - others
        nrm = np.sqrt((d ** 2).sum(axis=1))
        if np.any(nrm <= 0.0):
            return None, None
        N = d / nrm[:, None]
        A[4:] = N
        b[4:] = min_distance + (N * others).sum(axis=1)
    return A, b


def ref_position_qp(tau, grad, t_old, region, others, min_distance):
    others = np.asarray(others, dtype=float)
    A, b = ref_qp_constraints(t_old, region, np.atleast_2d(others) if others.size else others,
                              min_distance)
    if A is None:
        return None
    c = grad - tau * t_old
    tol = 1e-11 * np.maximum(1.0, np.abs(b))

    t_free = -c / tau
    if np.all(A @ t_free >= b - tol):
        return np.clip(t_free, -region.half_width_m, region.half_width_m)

    n = A.shape[0]
    ii, jj = np.triu_indices(n, k=1)
    cand = np.empty((n + ii.size, 2))

    base = b[:, None] * A
    dirs = np.empty_like(A)
    dirs[:, 0] = -A[:, 1]
    dirs[:, 1] = A[:, 0]
    s = -(dirs @ c + tau * (dirs * base).sum(axis=1)) / tau
    cand[:n] = base + s[:, None] * dirs

    det = A[ii, 0] * A[jj, 1] - A[ii, 1] * A[jj, 0]
    parallel = np.abs(det) <= 1e-14
    safe = np.where(parallel, 1.0, det)
    cand[n:, 0] = (b[ii] * A[jj, 1] - b[jj] * A[ii, 1]) / safe
    cand[n:, 1] = (A[ii, 0] * b[jj] - A[jj, 0] * b[ii]) / safe
    if np.any(parallel):
        cand[n:][parallel] = 1e30
    feas = np.all(cand @ A.T >= b[None, :] - tol[None, :], axis=1)
    if not np.any(feas):
        return None
    cand = cand[feas]
    vals = 0.5 * tau * (cand ** 2).sum(axis=1) + cand @ c
    vmin = vals.min()
    ties = vals <= vmin + 1e-14 * max(1.0, abs(vmin))
    cand = cand[ties]
    best = cand[np.lexsort((cand[:, 1], cand[:, 0]))[0]]
    return np.clip(best, -region.half_width_m, region.half_width_m)


def solver_qp_step(tau, grad, t_old, region, others, min_distance):
    """The solver's QP step on arrays: ``_project_step`` of the free step
    t_old - grad / tau; None where it finds no point."""
    t = solver._project_step((t_old - grad / tau).tolist(), t_old.tolist(), region,
                             np.reshape(others, (-1, 2)).tolist(), min_distance)
    return None if t is None else np.array(t)


def ref_step_from_gradient(t_old, grad, tau, region, min_distance, others,
                           qp=ref_position_qp):
    cand = t_old - grad / tau
    dist_ok = others.size == 0 or np.all(
        ((others - cand[None, :]) ** 2).sum(axis=1) >= min_distance ** 2)
    if dist_ok and region.contains(cand):
        return cand, "free"
    cand = qp(tau, grad, t_old, region, others, min_distance)
    if cand is None:
        return t_old, "stuck"
    return cand, "qp"


def ref_select_positions_on_grid(positions, geo, P, Z, region, min_distance, config, Hbar,
                                 events):
    # changed: ``events`` records whether an improving move had tied
    # candidates, and a move takes its candidates' rows from one
    # channel_matrix call, in the row-major order of the table they replace
    grid = aps_grid(region)
    M = positions.shape[0]
    E = Hbar @ P - Z
    obj = float(np.vdot(E, E).real)
    pnorm2 = (np.abs(P) ** 2).sum(axis=1)
    for m in range(M):
        others = np.delete(positions, m, axis=0)
        # changed: the candidates are the points no other antenna holds; on
        # the lambda/2 lattice, any two distinct points keep the spacing
        ok = ~np.any(np.all(grid[:, None, :] == others[None, :, :], axis=-1), axis=1)
        cand = np.vstack([positions[m][None, :], grid[ok]])
        hbar_c = np.ascontiguousarray(channel_matrix(cand, geo.real, region.wavelength).conj().T)
        delta = hbar_c - Hbar[:, m][None, :]
        s = E.conj() @ P[m, :]
        obj_c = obj + 2.0 * np.real(delta @ s) + (np.abs(delta) ** 2).sum(axis=1) * pnorm2[m]
        best = int(np.lexsort((cand[:, 1], cand[:, 0], obj_c))[0])
        if obj_c[best] >= obj:
            continue
        # changed: record a tie between distinct points
        tied = cand[obj_c == obj_c[best]]
        events.append(len(np.unique(tied, axis=0)) > 1)
        positions[m] = cand[best]
        Hbar[:, m] = hbar_c[best]
        E = E + delta[best][:, None] * P[m, :][None, :]
        obj = float(np.vdot(E, E).real)
    E = Hbar @ P - Z
    return E, float(np.vdot(E, E).real), False


def ref_sweep_positions(positions, geo, P, Z, region, min_distance, config, Hbar, events,
                        qp=ref_position_qp, tau_loc_of=None, counts=None):
    # changed: each step is backtracked on a local curvature tau_loc. It
    # starts at half the value the antenna last accepted (``tau_loc_of``, kept
    # across sweeps by the caller), never below tau / 256, and doubles, up to
    # the majorizer tau, until the surrogate at tau_loc lies above the
    # objective at the step. ``counts`` gains the final status of every step
    # and one "backtrack" per doubling.
    if config.lattice:
        return ref_select_positions_on_grid(positions, geo, P, Z, region, min_distance,
                                            config, Hbar, events)
    tau_loc_of = {} if tau_loc_of is None else tau_loc_of
    counts = {} if counts is None else counts
    M = positions.shape[0]
    taus = _majorizers(geo, P, Z, region.wavelength)
    any_stuck = False
    step_tol = 1e-8 * region.wavelength
    for m in range(M):
        tau = float(taus[m])
        if tau <= 0.0:
            continue
        E = Hbar @ P - Z
        obj = float(np.vdot(E, E).real)
        others = np.delete(positions, m, axis=0)
        q = ref_phase_terms(geo, positions[m])
        for _ in range(config.max_sca_iter):
            grad = ref_gradient_from_terms(q, geo, P, E, m)
            if np.abs(grad).max() / tau < step_tol:
                break
            tau_loc = min(tau, max(tau / 256, 0.5 * tau_loc_of.get(m, 0.0)))
            while True:
                t_new, status = ref_step_from_gradient(positions[m], grad, tau_loc, region,
                                                       min_distance, others, qp)
                if status == "stuck":
                    break
                q_new = ref_phase_terms(geo, t_new)
                hbar_new = q_new.sum(axis=1)
                delta = hbar_new - Hbar[:, m]
                E_new = E + delta[:, None] * P[m, :][None, :]
                obj_new = float(np.vdot(E_new, E_new).real)
                if tau_loc >= tau:
                    break
                d = t_new - positions[m]
                surrogate = obj + np.sum(grad * d) + 0.5 * tau_loc * np.sum(d * d)
                if obj_new <= surrogate + 1e-12 * obj:
                    break
                tau_loc = min(2 * tau_loc, tau)
                counts["backtrack"] = counts.get("backtrack", 0) + 1
            counts[status] = counts.get(status, 0) + 1
            if status == "stuck":
                any_stuck = True
                break
            if obj_new > obj * (1.0 + 1e-12):
                break
            tau_loc_of[m] = tau_loc
            positions[m] = t_new
            Hbar[:, m] = hbar_new
            E = E_new
            q = q_new
            decrease = obj - obj_new
            obj = obj_new
            if decrease < max(config.eps_position, config.eps_position_rel * abs(obj)):
                break
    E = Hbar @ P - Z
    return E, float(np.vdot(E, E).real), any_stuck


def ref_solve_auxiliary(H, P, targets, noise_variance):
    C = H.conj() @ P
    K = C.shape[0]
    gbar = targets.thresholds
    abs2 = np.abs(C) ** 2
    sig = np.diag(abs2).copy()
    off = abs2.copy()
    np.fill_diagonal(off, 0.0)
    interf = off.sum(axis=1)
    y0 = sig - gbar * (interf + noise_variance)

    Z = C.copy()
    zeta = np.zeros(K)
    need = y0 < 0
    if not np.any(need):
        return Z, zeta, 0.0

    idx = np.where(need)[0]
    s = sig[idx]
    w = interf[idx] * gbar[idx]
    g = gbar[idx]
    gn = g * noise_variance

    def value(z):
        return s * (z / (1.0 - z)) ** 2 + (interf[idx] * (z * g / (1.0 + z * g)) ** 2)

    users = list(zip(s.tolist(), w.tolist(), g.tolist(), gn.tolist()))
    n = len(users)
    hi0 = 1.0 - 1e-9
    lo = [0.0] * n
    hi = [hi0] * n
    y_hi = []
    for su, wu, gu, gnu in users:
        a = 1.0 - hi0
        b = 1.0 + hi0 * gu
        y_hi.append(su / (a * a) - wu / (b * b) - gnu)
    degenerate = [int(k) for k, y in zip(idx, y_hi) if y <= 0.0]
    if degenerate:
        raise DegenerateUserError(degenerate)

    tol_y = [1e-10 * gnu for _, _, _, gnu in users]
    for _ in range(60):
        if all(y <= t or h - x < 1e-14 for y, t, h, x in zip(y_hi, tol_y, hi, lo)):
            break
        for i in range(n):
            su, wu, gu, gnu = users[i]
            mid = 0.5 * (lo[i] + hi[i])
            a = 1.0 - mid
            b = 1.0 + mid * gu
            ym = su / (a * a) - wu / (b * b) - gnu
            if ym < 0.0:
                lo[i] = mid
            else:
                hi[i] = mid
                y_hi[i] = ym
    lo = np.array(lo)
    hi = np.array(hi)
    z_opt = hi
    gap = float(np.sum(value(hi) - value(lo)))

    zeta[idx] = z_opt
    Z[idx, :] = C[idx, :] / (1.0 + z_opt * g)[:, None]
    Z[idx, idx] = np.diag(C)[idx] / (1.0 - z_opt)
    return Z, zeta, gap


def ref_majorizers(geo, P, Z, wavelength):
    absP = np.abs(P)              # (M, K)
    colsum = absP.sum(axis=0)     # (K,)
    s2 = float((geo.abs_gain_sum ** 2).sum())
    u = geo.abs_gain_sum @ np.abs(Z)  # (K,): sum_k S_k |z_{k,j}|
    per_antenna = (
        s2 * (2.0 * absP * (colsum[None, :] - absP) + absP ** 2).sum(axis=1)
        + 2.0 * (absP * u[None, :]).sum(axis=1)
    )
    return (8.0 * np.pi ** 2 / wavelength ** 2) * per_antenna


def assert_qp_agrees(args, got, label):
    """``got`` solves the QP ``args`` as well as the reference does: the same
    None verdict, every row met within the reference's tolerance, a surrogate
    value at most 1e-14 (relative) above the reference's, and coordinates
    within 64 ulps of the box half-width of the reference's point."""
    tau, grad, t_old, region, others, min_distance = args
    ref = ref_position_qp(*args)
    assert (got is None) == (ref is None), label
    if ref is None:
        return
    A, b = ref_qp_constraints(t_old, region, np.atleast_2d(others) if others.size else others,
                              min_distance)
    assert np.all(A @ got >= b - 1e-11 * np.maximum(1.0, np.abs(b))), label
    c = grad - tau * t_old
    v_got = 0.5 * tau * float(got @ got) + float(c @ got)
    v_ref = 0.5 * tau * float(ref @ ref) + float(c @ ref)
    assert v_got <= v_ref + 1e-14 * max(1.0, abs(v_ref)), (label, v_got, v_ref)
    assert np.all(np.abs(got - ref) <= 64 * np.spacing(region.half_width_m)), (label, got, ref)


# ----------------------------------------------------------------- states

REGIONS = (1.0, 2.5, 3.0)
M, K = 4, 4


def x_blind_channel(rng, paths=6):
    """Every path leaves at elevation 0, so the channel ignores x and lattice
    points that share a row tie exactly."""
    return ChannelRealization(
        paths=tuple(PathSet(np.zeros(paths), rng.uniform(0, 2 * np.pi, paths),
                            random_complex(rng, paths)) for _ in range(K)),
        noise_variance=NOISE_W)


def lattice_layout(rng, grid):
    """M distinct random lattice points: any two keep the spacing."""
    return grid[rng.permutation(len(grid))[:M]]


def random_state(rng, i):
    hw = REGIONS[i % 3]
    region = Region(hw, WAVELENGTH)
    real = x_blind_channel(rng) if i % 5 == 0 else \
        sample_channel(int(rng.integers(1 << 30)), M, K, int(rng.choice((5, 15))), NOISE_W)
    lattice = i % 2 == 1
    if lattice:
        positions = lattice_layout(rng, aps_grid(region))
    else:
        positions = uniform_line_layout(M, region) + rng.normal(0, 0.02 * WAVELENGTH, (M, 2))
        if i % 6 == 0:  # two antennas on one point: no QP can be set up
            positions[1] = positions[0]
    scale = 10.0 ** rng.uniform(-1, 1)
    P = random_complex(rng, (M, K), scale=scale)
    Z = random_complex(rng, (K, K), scale=scale * 10.0 ** rng.uniform(-1, 1))
    config = SolverConfig(
        region=region, max_sca_iter=int(rng.integers(1, 40)),
        eps_position=10.0 ** rng.uniform(-8, -3), eps_position_rel=rng.choice((0.0, 3e-5)),
        lattice=lattice)
    return real, config, positions, P, Z


def test_position_block_matches_reference_decision_for_decision():
    rng = np.random.default_rng(20261018)
    counts, events, qp_calls = {}, [], []

    def solver_qp(*args):
        # the solver's QP, recording copies of its inputs (the sweep mutates
        # the position rows they view) and its result
        t = solver_qp_step(*args)
        qp_calls.append(([np.array(a, copy=True) if isinstance(a, np.ndarray) else a
                          for a in args], t))
        return t

    def close(got, want, rtol):
        return np.abs(got - want).max() <= rtol * np.linalg.norm(want)

    seen_regions = carried = 0
    stuck_flags = []
    ref_counts = {}
    for i in range(240):
        real, config, positions, P, Z = random_state(rng, i)
        geo = RefGeometry(real)
        Hbar = channel_matrix(positions, real, WAVELENGTH).conj()
        seen_regions |= 1 << REGIONS.index(config.region.half_width)

        # two sweeps on one solve state, the second with a perturbed
        # precoder, so the second starts from the curvatures the first accepted
        pos_ref, H_ref, tau_loc_of = positions.copy(), Hbar.copy(), {}
        state = solver._SolveState(real, config)
        pos_new, H_new = positions.copy(), Hbar.copy()
        for sweep in range(2):
            if sweep:
                carried += len(tau_loc_of)
                P = P * (1.0 + 0.1 * random_complex(rng, P.shape))
            sweep_ref, before = {}, dict(state.steps)
            E_ref, obj_ref, stuck_ref = ref_sweep_positions(
                pos_ref, geo, P, Z, config.region, config.distance, config, H_ref, events,
                solver_qp, tau_loc_of, sweep_ref)
            E_new, obj_new = solver._sweep_positions(
                pos_new, state, P, Z, config, H_new, solver._residual(H_new, P, Z))
            sweep_new = {k: n - before[k] for k, n in state.steps.items() if n > before[k]}
            # the solver's sweep left an antenna stuck when its "stuck" count rose
            stuck_new = state.steps["stuck"] > before["stuck"]
            assert sweep_new == sweep_ref and stuck_new == stuck_ref, (i, sweep)
            assert state.tau_accepted == tau_loc_of, (i, sweep)
            if config.lattice:
                assert np.array_equal(pos_new, pos_ref), (i, sweep)
                assert np.array_equal(H_new, H_ref), (i, sweep)
                assert np.array_equal(E_new, E_ref) and obj_new == obj_ref, (i, sweep)
            else:
                assert np.abs(pos_new - pos_ref).max() <= 1e-12 * WAVELENGTH, (i, sweep)
                assert close(H_new, H_ref, 1e-12) and close(E_new, E_ref, 1e-12), (i, sweep)
            for key, n in sweep_ref.items():
                counts[key] = counts.get(key, 0) + sweep_new[key]
                ref_counts[key] = ref_counts.get(key, 0) + n
            stuck_flags.append(stuck_ref)
    # the states cover every branch of the sweep
    assert counts == ref_counts
    assert counts["free"] > 100 and counts["qp"] > 100 and counts["stuck"] > 0, counts
    assert counts["backtrack"] > 100 and carried > 100, (counts, carried)
    assert any(stuck_flags) and not all(stuck_flags)
    assert sum(events) >= 5, f"{sum(events)} tied improving lattice moves"
    assert seen_regions == 0b111
    for j, (args, t) in enumerate(qp_calls):
        assert_qp_agrees(args, t, j)
    assert len(qp_calls) > 100


def test_single_steps_match_reference():
    # the free-step test and the QP fallback alone, on states built to sit
    # on their boundaries: free steps ending on the box edge or exactly at
    # the spacing, neighbours on the antenna, empty neighbour sets
    rng = np.random.default_rng(7)
    region = Region(1.0, WAVELENGTH)
    a = region.half_width_m
    d = WAVELENGTH / 2
    statuses = set()
    for i in range(400):
        t_old = rng.uniform(-a, a, 2)
        tau = 10.0 ** rng.uniform(-2, 3)
        grad = rng.normal(0, 1, 2) * tau * a * rng.uniform(0.01, 2.0)
        n = int(rng.integers(0, 4))
        others = rng.uniform(-a, a, (n, 2))
        cand = t_old - grad / tau
        if i % 4 == 0 and n:
            others[0] = cand + d * np.array([np.cos(i), np.sin(i)])  # spacing edge
        elif i % 4 == 1:
            grad[0] = (t_old[0] - a) * tau  # lands near the right box face
        elif i % 4 == 2 and n:
            others[0] = t_old  # a neighbour on the antenna
        want, s_want = ref_step_from_gradient(t_old, grad, tau, region, d, others)
        got, s_got = solver._step_from_gradient(tuple(t_old.tolist()), tuple(grad.tolist()),
                                                tau, region, d, others.tolist())
        assert s_got == s_want, i
        statuses.add(s_want)
        if s_want == "qp":
            assert_qp_agrees((tau, grad, t_old, region, others, d), np.array(got), i)
        else:
            assert np.array_equal(np.array(got), want), i
        if s_want != "free":
            qp = solver_qp_step(tau, grad, t_old, region, others, d)
            assert_qp_agrees((tau, grad, t_old, region, others, d), qp, i)
    assert statuses == {"free", "qp", "stuck"}


def auxiliary_states():
    """Weak and strong users side by side, at the solver's noise scale and at
    unit noise: (H, P, targets, noise) of each state that has multipliers."""
    rng = np.random.default_rng(99)
    for i in range(300):
        K = int(rng.integers(1, 6))
        noise = NOISE_W if i % 2 else 1.0
        H = random_complex(rng, (K, 4), scale=np.sqrt(noise) * 10.0 ** rng.uniform(0, 3))
        P = random_complex(rng, (4, K)) * 10.0 ** rng.uniform(-3, 1, K)
        targets = SinrTargets(10.0 ** rng.uniform(-0.5, 0.5, K), 10.0 ** rng.uniform(-1, 2))
        try:
            want = ref_solve_auxiliary(H, P, targets, noise)
        except DegenerateUserError:
            continue
        yield i, (H, P, targets, noise), want


def test_auxiliary_matches_reference_bisection():
    multi = 0
    for i, args, (Z_ref, zeta_ref, gap_ref) in auxiliary_states():
        H, P, targets, noise = args
        Z, zeta, gap = solver.solve_auxiliary(*args)
        active = zeta_ref > 0
        assert np.array_equal(zeta > 0, active), i
        assert np.all(np.abs(zeta - zeta_ref) <= 1e-9 * zeta_ref), i
        scale = np.linalg.norm(Z_ref, axis=1)
        assert np.all(np.abs(Z - Z_ref).max(axis=1) <= 1e-9 * scale), i
        assert gap <= gap_ref, (i, gap, gap_ref)
        # each multiplier meets the reference's stopping test from the
        # feasible side: f(zeta) in [0, 1e-10 g sigma^2], or a point less
        # than 1e-14 below it is infeasible; f as the solver rounds it
        sig, interf = _signal_interference(H.conj() @ P)
        for k in np.flatnonzero(active):
            g = float(targets.thresholds[k])
            s, w = float(sig[k]), float(interf[k]) * g

            def f(z):
                a, b = 1.0 - z, 1.0 + z * g
                return s / (a * a) - w / (b * b) - g * noise
            z = float(zeta[k])
            assert f(z) >= 0.0, (i, k)
            assert f(z) <= 1e-10 * g * noise or f(z - 1e-14) < 0.0, (i, k)
        multi += np.count_nonzero(zeta) > 1
    assert multi > 50


def test_auxiliary_roots_take_few_evaluations(monkeypatch):
    # no root search runs to the cap, and they average at most 5 evaluations
    # of the root function on the states above
    most = []
    dual_root = solver._dual_root

    def recording(*args):
        out = dual_root(*args)
        most.append(out[2])
        return out
    monkeypatch.setattr(solver, "_dual_root", recording)
    counts, roots = {}, 0
    for _, args, (_, zeta_ref, _) in auxiliary_states():
        solver.solve_auxiliary(*args, counts=counts)
        roots += np.count_nonzero(zeta_ref)
    assert len(most) == roots > 600
    assert max(most) < solver.DUAL_MAX_EVALUATIONS
    assert counts["dual_evaluations"] == sum(most) <= 5 * roots


def test_majorizers_match_reference():
    rng = np.random.default_rng(31)
    for i in range(200):
        M_i, K_i = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        real = sample_channel(int(rng.integers(1 << 30)), M_i, K_i, int(rng.integers(1, 16)))
        P = random_complex(rng, (M_i, K_i), scale=10.0 ** rng.uniform(-3, 3))
        Z = random_complex(rng, (K_i, K_i), scale=10.0 ** rng.uniform(-3, 3))
        want = ref_majorizers(RefGeometry(real), P, Z, WAVELENGTH)
        got = _majorizers(_Geometry(real, WAVELENGTH), P, Z, WAVELENGTH)
        assert np.all(np.abs(got - want) <= 1e-12 * want), i
