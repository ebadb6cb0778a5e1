"""Reference computations made apart from fluidsar: channel, SINR and SAR
from first principles, and the exact optimum at a fixed antenna layout.

Nothing here imports fluidsar. Channels are rebuilt from the path angles and
gains of a ``PathSet``-like object (attributes ``elevation_aods``,
``azimuth_aods``, ``path_gains``).

The fixed-layout problem

    minimize  sum_k p_k^H R p_k   s.t.  |h_k^H p_k|^2 / (sum_{j!=k} |h_k^H p_j|^2 + s2) >= g_k

is solved by the virtual-uplink fixed point (Bengtsson & Ottersten 2001;
Wiesel, Eldar & Shamai 2006) in its interference-only form

    lam_k = g_k / h_k^H (R + sum_{j!=k} lam_j h_j h_j^H)^{-1} h_k .

With R = C C^H and whitened channels w_k = C^{-1} h_k, the quadratic form is a
ridge regression residual,

    w_k^H (I + sum_{j!=k} lam_j w_j w_j^H)^{-1} w_k
        = min_x ||w_k - W_{-k}^H x||^2 + sum_j |x_j|^2 / lam_j ,

which is solved as a least-squares problem. The matrices inside the inverse
have condition numbers near 1e15 at the targets used here (lam ~ 1e13); the
least-squares form never builds them, and its residual vector is the optimal
beam direction. The iteration starts at the first Yates iterate from zero,
lam_k = g_k / ||w_k||^2, and rises monotonically to the fixed point.
"""
from __future__ import annotations

import numpy as np


def channel(positions, paths, wavelength):
    """H (K, M): H[k, m] = sum_p f_p exp(-j 2pi/wl (x sin(th) cos(ph) + y cos(th)))."""
    pts = np.asarray(positions, dtype=float)
    rows = []
    for ps in paths:
        th = np.asarray(ps.elevation_aods, dtype=float)
        ph = np.asarray(ps.azimuth_aods, dtype=float)
        f = np.asarray(ps.path_gains, dtype=complex)
        rho = pts[:, :1] * (np.sin(th) * np.cos(ph))[None, :] + pts[:, 1:] * np.cos(th)[None, :]
        rows.append((np.exp(-2j * np.pi / wavelength * rho) * f[None, :]).sum(axis=1))
    return np.array(rows)


def sinrs(H, P, noise):
    """Per-user SINR: |h_k^H p_k|^2 / (sum_{j!=k} |h_k^H p_j|^2 + noise)."""
    G = np.abs(H.conj() @ P) ** 2
    sig = np.diag(G).copy()
    interf = np.array([sum(G[k, j] for j in range(G.shape[1]) if j != k)
                       for k in range(G.shape[0])])
    return sig / (interf + noise)


def sar(P, R):
    """sum_k p_k^H R p_k."""
    return float(sum(np.real(np.conj(P[:, k]) @ R @ P[:, k]) for k in range(P.shape[1])))


def min_spacing(layout):
    pts = np.asarray(layout, dtype=float)
    d = [np.hypot(*(pts[i] - pts[j])) for i in range(len(pts)) for j in range(i + 1, len(pts))]
    return min(d) if d else np.inf


def line_array(M, wavelength):
    """Half-wavelength line of M antennas centred on the origin along x."""
    x = (np.arange(M) - (M - 1) / 2.0) * wavelength / 2.0
    return np.column_stack([x, np.zeros(M)])


class FixedLayoutOptimum:
    """Exact minimum exposure at one fixed layout.

    ``sar_at(targets)`` returns the optimal exposure for per-user SINR
    targets; ``max_min_target(budget, weights)`` the largest common target
    that fits a budget. Fails loudly (``ArithmeticError``) when the fixed
    point does not settle or the power system has no positive solution.
    """

    def __init__(self, H, R, noise):
        self.noise = float(noise)
        C = np.linalg.cholesky(np.asarray(R, dtype=complex))
        self.W = np.linalg.solve(C, np.asarray(H, dtype=complex).T).T  # rows w_k = C^{-1} h_k

    def _residuals(self, lam):
        """Ridge residual vectors r_k and values s_k for every user."""
        W = self.W
        K, M = W.shape
        r = np.empty((K, M), dtype=complex)
        s = np.empty(K)
        for k in range(K):
            others = [j for j in range(K) if j != k]
            A = np.vstack([W[others].T, np.diag(1.0 / np.sqrt(lam[others])).astype(complex)])
            b = np.concatenate([W[k], np.zeros(len(others), dtype=complex)])
            x = np.linalg.lstsq(A, b, rcond=None)[0]
            r[k] = W[k] - W[others].T @ x
            s[k] = float(np.vdot(r[k], r[k]).real + np.sum(np.abs(x) ** 2 / lam[others]))
        return r, s

    def sar_at(self, targets, max_iter=400, rtol=1e-13):
        g = np.asarray(targets, dtype=float)
        lam = g / (np.abs(self.W) ** 2).sum(axis=1)
        for _ in range(max_iter):
            r, s = self._residuals(lam)
            new = g / s
            done = np.max(np.abs(new - lam) / new) < rtol
            lam = new
            if done:
                break
        else:
            raise ArithmeticError("virtual-uplink fixed point did not settle")
        r, _ = self._residuals(lam)
        V = r / np.linalg.norm(r, axis=1)[:, None]          # unit whitened beams
        A = np.abs(self.W.conj() @ V.T) ** 2                 # A[k, j] = |w_k^H v_j|^2
        F = -A * g[:, None]
        F[np.diag_indices_from(F)] = np.diag(A)
        q = np.linalg.solve(F, g * self.noise)               # per-beam powers
        if not np.all(q > 0):
            raise ArithmeticError("power system has no positive solution")
        return float(q.sum())   # ||v_k|| = 1 in whitened space: SAR = sum of powers

    def max_min_target(self, budget, weights, rtol=1e-10):
        """Largest uniform target t with sar_at(t * weights) <= budget.

        Illinois regula falsi on log SAR against log t, which is near linear,
        inside a doubling bracket.
        """
        w = np.asarray(weights, dtype=float)
        f = lambda t: np.log(self.sar_at(t * w) / budget)
        lo = hi = 1.0 / self.noise
        f_lo = f_hi = f(lo)
        while f_lo > 0:
            hi, f_hi = lo, f_lo
            lo /= 2.0
            f_lo = f(lo)
        while f_hi <= 0:
            lo, f_lo = hi, f_hi
            hi *= 2.0
            f_hi = f(hi)
        x_lo, x_hi = np.log(lo), np.log(hi)
        side = 0
        for _ in range(200):
            if x_hi - x_lo < rtol:
                break
            x = (x_lo * f_hi - x_hi * f_lo) / (f_hi - f_lo)
            fx = f(np.exp(x))
            if fx == 0.0:
                return float(np.exp(x))
            if fx < 0:
                x_lo, f_lo = x, fx
                if side == -1:
                    f_hi /= 2.0
                side = -1
            else:
                x_hi, f_hi = x, fx
                if side == 1:
                    f_lo /= 2.0
                side = 1
        else:
            raise ArithmeticError("budget bisection did not settle")
        return float(np.exp(x_lo))
