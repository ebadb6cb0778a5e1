"""Exact minimum exposure at a fixed antenna layout.

With the positions fixed, min sum_k p_k^H R p_k subject to the SINR floors g_k
is convex, and the virtual-uplink fixed point solves it exactly (Yates 1995;
Wiesel, Eldar & Shamai 2006):
    lam_k = g_k / h_k^H (R + sum_{j!=k} lam_j h_j h_j^H)^{-1} h_k .
R is positive definite, so it has the Cholesky factor R = C C^H that the
``SarModel`` keeps; with whitened channels w_k = C^{-1} h_k, the quadratic form is
the value of a ridge least-squares problem,
    min_x ||w_k - sum_{j!=k} x_j w_j||^2 + sum_{j!=k} |x_j|^2 / lam_j ,
whose residual is the optimal whitened beam v_k; the matrices inside the
inverse, conditioned near 1e15 at lam ~ 1e13, are never built. From the
first Yates iterate lam_k = g_k / ||w_k||^2 the iteration rises monotonically,
and it is bounded only when the targets can be met. The K x K power system
    |w_k^H v_k|^2 q_k - g_k sum_{j!=k} |w_k^H v_j|^2 q_j = g_k sigma^2
puts every SINR on its floor, and p_k = C^{-H} v_k sqrt(q_k) has exposure
q_k. ``bench/oracle.py`` computes the same optimum apart from this package.
"""
from __future__ import annotations

import functools

import numpy as np

from .exposure import SarModel

__all__ = ["optimal_precoder"]

MAX_ITER = 400  # fixed-point steps; a fixed point still rising after them is unbounded
RTOL = 1e-13    # relative change of every lam_k at which the fixed point has settled


@functools.lru_cache(maxsize=8)
def _index_tables(K: int):
    """``others`` (K, K-1), row k the users other than k, and the (K-1)
    identity: built once per K, read-only."""
    others = np.array([[j for j in range(K) if j != k] for k in range(K)],
                      dtype=int).reshape(K, K - 1)
    eye = np.eye(K - 1)
    others.flags.writeable = eye.flags.writeable = False
    return others, eye


def _ridge_system(W: np.ndarray):
    """Every user's ridge least-squares system (A, b) with the rows that do not
    depend on lam filled: A (K, M+K-1, K-1), whose last K-1 rows
    ``_ridge_residuals`` fills, and b (K, M+K-1, 1)."""
    K, M = W.shape
    others, _ = _index_tables(K)
    A = np.empty((K, M + K - 1, K - 1), dtype=complex)
    A[:, :M] = W[others].transpose(0, 2, 1)
    b = np.zeros((K, M + K - 1, 1), dtype=complex)
    b[:, :M, 0] = W
    return A, b


def _ridge_residuals(A: np.ndarray, b: np.ndarray, lam: np.ndarray):
    """Residual vectors r_k (K, M) and values s_k (K,) of every user's ridge
    least-squares problem, ``_ridge_system``'s (A, b) at lam, solved for all
    users at once by QR."""
    K, n, _ = A.shape
    M = n - K + 1
    others, eye = _index_tables(K)
    A[:, M:] = eye[None, :, :] / np.sqrt(lam[others])[:, None, :]
    Q, U = np.linalg.qr(A)
    x = np.linalg.solve(U, Q.conj().transpose(0, 2, 1) @ b)
    e = (b - A @ x)[:, :, 0]
    return e[:, :M], (np.abs(e) ** 2).sum(axis=1)


def optimal_precoder(H: np.ndarray, model: SarModel, thresholds: np.ndarray,
                     noise_variance: float) -> np.ndarray | None:
    """The (M, K) precoder of least exposure whose SINRs at the channel H
    (K, M) meet ``thresholds``, each with equality; None when no power
    allocation meets them (the fixed point does not settle, or the power
    system has no positive solution). All-zero thresholds give the zero
    precoder."""
    C = model.factor
    g = np.asarray(thresholds, dtype=float)
    if not np.any(g > 0):
        return np.zeros((model.n_antennas, g.size), dtype=complex)
    W = np.linalg.solve(C, np.asarray(H, dtype=complex).T).T  # rows w_k = C^{-1} h_k
    norms = (np.abs(W) ** 2).sum(axis=1)
    if not np.all(norms > 0):
        return None
    lam = g / norms
    system = _ridge_system(W)
    for _ in range(MAX_ITER):
        r, s = _ridge_residuals(*system, lam)
        if not np.all(s > g / np.finfo(float).max):  # else g / s is not finite
            return None
        new = g / s
        settled = np.max(np.abs(new - lam) / new) < RTOL
        lam = new
        if settled:
            break
    else:
        return None
    r, _ = _ridge_residuals(*system, lam)
    rnorm = np.linalg.norm(r, axis=1)
    if not np.all(rnorm > 0):
        return None
    V = r / rnorm[:, None]                        # unit whitened beams
    A = np.abs(W.conj().dot(V.T)) ** 2            # A[k, j] = |w_k^H v_j|^2
    F = -A * g[:, None]
    F[np.diag_indices_from(F)] = np.diag(A)
    try:
        q = np.linalg.solve(F, g * noise_variance)
    except np.linalg.LinAlgError:
        return None
    if not np.all(q > 0):
        return None
    return np.linalg.solve(C.conj().T, V.T) * np.sqrt(q)[None, :]
