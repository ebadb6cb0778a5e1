"""Quadratic exposure model: a positive definite SAR matrix, its budget, and
the exposure of a precoder."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ConfigurationError, _decode_complex, _JsonDoc

__all__ = [
    "SarModel",
    "sar_value",
    "paper_sar_matrix",
    "synthesize_sar_matrix",
    "identity_sar_model",
]

HERMITIAN_TOL = 1e-12
PD_RTOL = 1e-12  # smallest eigenvalue of R, relative to its largest, that counts as positive
# synthesized matrices keep every eigenvalue at or above this fraction of the largest
EIG_FLOOR = 1e-3


@dataclass(frozen=True)
class SarModel(_JsonDoc):
    """Hermitian positive definite coupling matrix R (W/kg per unit transmit
    power) plus budget Q0.

    ``synthetic`` marks matrices that were generated rather than measured, so
    reports can flag them. The model is the one place that checks R: it keeps
    R's smallest eigenvalue ``min_eig`` and its lower Cholesky factor
    ``factor`` (R = C C^H), each computed once, and refuses a matrix whose
    smallest eigenvalue is not above ``PD_RTOL`` times its largest.
    """

    matrix: np.ndarray
    budget: float
    synthetic: bool = False

    def __post_init__(self):
        R = np.asarray(self.matrix, dtype=complex)
        if R.ndim != 2 or R.shape[0] != R.shape[1] or R.size == 0:
            raise ConfigurationError("SAR matrix must be square and non-empty")
        scale = max(1.0, float(np.abs(R).max()))
        if np.abs(R - R.conj().T).max() > HERMITIAN_TOL * scale:
            raise ConfigurationError("SAR matrix is not Hermitian")
        eigs = np.linalg.eigvalsh(R)
        if not eigs[0] > PD_RTOL * eigs[-1]:
            raise ConfigurationError(
                f"SAR matrix is not positive definite (eigenvalues {eigs[0]:.3e} "
                f"to {eigs[-1]:.3e})")
        if not 0.0 < self.budget < np.inf:  # false for NaN too
            raise ConfigurationError("SAR budget must be a finite positive number")
        object.__setattr__(self, "matrix", R)
        object.__setattr__(self, "min_eig", float(eigs[0]))
        object.__setattr__(self, "factor", np.linalg.cholesky(R))

    @property
    def n_antennas(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SarModel":
        return cls(matrix=_decode_complex(doc["matrix"]), budget=doc["budget"],
                   synthetic=doc.get("synthetic", False))


def sar_value(precoder: np.ndarray, model: SarModel) -> float:
    """Total exposure sum_k p_k^H R p_k of an (M, K) precoder."""
    P = np.asarray(precoder, dtype=complex)
    if P.ndim == 1:
        P = P[:, None]
    if P.shape[0] != model.n_antennas:
        raise ConfigurationError("precoder row count must match the SAR matrix size")
    val = np.einsum("mk,mn,nk->", P.conj(), model.matrix, P)
    scale = max(1.0, abs(val.real))
    assert abs(val.imag) < 1e-10 * scale, "quadratic form of a Hermitian matrix must be real"
    return float(val.real)


_PAPER_R4 = np.array(
    [
        [1.6, -1.2j, -0.42, 0.0],
        [1.2j, 1.6, -1.2j, -0.42],
        [-0.42, 1.2j, 1.6, -1.2j],
        [0.0, -0.42, 1.2j, 1.6],
    ]
)


def paper_sar_matrix(budget: float = 1.6) -> SarModel:
    """The measured 4-antenna SAR matrix (banded: 1.6 diagonal, +/-1.2j, -0.42)."""
    return SarModel(matrix=_PAPER_R4.copy(), budget=budget, synthetic=False)


def _banded_pattern(M: int, diag: float, band1: float, band2: float) -> np.ndarray:
    R = np.zeros((M, M), dtype=complex)
    np.fill_diagonal(R, diag)
    for i in range(M - 1):
        R[i, i + 1] = -1j * band1
        R[i + 1, i] = 1j * band1
    for i in range(M - 2):
        R[i, i + 2] = band2
        R[i + 2, i] = band2
    return R


def synthesize_sar_matrix(M: int, rng_seed: int = 0, diag: float = 1.6,
                          band1: float = 1.2, band2: float = -0.42,
                          jitter: float = 0.0, budget: float = 1.6) -> SarModel:
    """Banded Hermitian matrix for antenna counts the measurement does not cover.

    Extends the measured pattern (positive diagonal, imaginary first
    off-diagonal, small negative real second off-diagonal) to M antennas,
    optionally jitters the band magnitudes (seeded, multiplicative, +/-jitter),
    then floors the eigenvalues at ``EIG_FLOOR`` times the largest: a physical
    SAR matrix is positive for any nonzero excitation. The pattern is
    indefinite from M = 5 on; up to M = 4 (ratio 4e-3) the floor changes nothing.
    """
    if M < 1:
        raise ConfigurationError("M must be >= 1")
    R = _banded_pattern(M, diag, band1, band2)
    if jitter > 0.0:
        rng = np.random.default_rng(rng_seed)
        scale = 1.0 + jitter * rng.uniform(-1.0, 1.0, size=(M, M))
        scale = (scale + scale.T) / 2.0  # keep the jittered matrix Hermitian
        R = R * scale
    eigs, vecs = np.linalg.eigh(R)
    clipped = np.clip(eigs, EIG_FLOOR * eigs[-1], None)
    R_psd = (vecs * clipped) @ vecs.conj().T
    R_psd = (R_psd + R_psd.conj().T) / 2.0
    return SarModel(matrix=R_psd, budget=budget, synthetic=True)


def identity_sar_model(M: int, budget: float) -> SarModel:
    """Identity coupling: the quadratic form reduces to total transmit power."""
    return SarModel(matrix=np.eye(M, dtype=complex), budget=budget, synthetic=True)
