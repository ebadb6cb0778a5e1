import json

import numpy as np
import pytest

from fluidsar.channel import ConfigurationError, _jsonable
from fluidsar.exposure import (
    SarModel,
    _banded_pattern,
    identity_sar_model,
    paper_sar_matrix,
    sar_value,
    synthesize_sar_matrix,
)

from conftest import random_complex


def test_paper_matrix_entries():
    R = paper_sar_matrix().matrix
    assert R[0, 0] == 1.6
    assert R[0, 1] == -1.2j and R[1, 0] == 1.2j
    assert R[0, 2] == -0.42 and R[2, 0] == -0.42
    assert R[0, 3] == 0.0 and R[3, 0] == 0.0
    assert R.shape == (4, 4)


def test_paper_matrix_hermitian_psd():
    model = paper_sar_matrix()
    R = model.matrix
    assert np.abs(R - R.conj().T).max() == 0.0
    eigs = np.linalg.eigvalsh(R)
    assert eigs.min() >= 0.0


def test_sar_zero_precoder():
    model = paper_sar_matrix()
    assert sar_value(np.zeros((4, 2), dtype=complex), model) == 0.0


def test_sar_single_basis_column():
    model = paper_sar_matrix()
    e1 = np.zeros((4, 1), dtype=complex)
    e1[0] = 1.0
    assert sar_value(e1, model) == pytest.approx(1.6, rel=1e-14)


def test_sar_two_element_column_cancels_imaginary_band():
    # (1, 1, 0, 0): the +-1.2j off-diagonal terms cancel, leaving 1.6 + 1.6
    model = paper_sar_matrix()
    p = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)[:, None]
    assert sar_value(p, model) == pytest.approx(3.2, rel=1e-14)


def test_sar_matches_hand_quadratic_form(rng):
    model = paper_sar_matrix()
    P = random_complex(rng, (4, 3))
    expected = 0.0
    for k in range(3):
        expected += (P[:, k].conj() @ model.matrix @ P[:, k]).real
    assert sar_value(P, model) == pytest.approx(expected, rel=1e-12)


def test_sar_scaling_quadratic(rng):
    model = paper_sar_matrix()
    P = random_complex(rng, (4, 4))
    c = 0.37 - 1.1j
    assert sar_value(c * P, model) == pytest.approx(abs(c) ** 2 * sar_value(P, model),
                                                    rel=1e-10)


def test_sar_nonnegative_and_phase_invariant(rng):
    model = paper_sar_matrix()
    for _ in range(25):
        P = random_complex(rng, (4, 4), scale=rng.uniform(0.1, 10))
        v = sar_value(P, model)
        assert v >= 0.0
        P2 = P * np.exp(1j * rng.uniform(0, 2 * np.pi, 4))[None, :]
        assert sar_value(P2, model) == pytest.approx(v, rel=1e-12)


def test_synthesize_scalar_degenerate():
    model = synthesize_sar_matrix(1)
    assert model.matrix.shape == (1, 1)
    assert model.matrix[0, 0] == pytest.approx(1.6)
    assert model.synthetic


def test_synthesize_matches_paper_pattern_at_m4():
    # the banded pattern at the measured parameters reproduces the printed
    # matrix (already PSD, so clipping does not change it)
    model = synthesize_sar_matrix(4)
    assert np.allclose(model.matrix, paper_sar_matrix().matrix, atol=1e-12)


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_synthesize_hermitian_psd(m):
    for seed in (0, 1, 2):
        model = synthesize_sar_matrix(m, rng_seed=seed, jitter=0.08)
        R = model.matrix
        assert np.abs(R - R.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(R).min() >= -1e-10


def test_synthesize_positive_definite_up_to_m9():
    # a physical SAR matrix is positive for any nonzero excitation; from M = 5
    # on, the banded pattern is singular or indefinite, and its eigenvalues are
    # floored at 1e-3 of the largest, below every eigenvalue up to M = 4
    for m in range(1, 10):
        eigs = np.linalg.eigvalsh(synthesize_sar_matrix(m).matrix)
        assert eigs[0] >= 0.999e-3 * eigs[-1], (m, eigs)
    # up to M = 4 the floor changes nothing: the matrices of an exact
    # eigenvalue reconstruction with a clip at zero
    for m in range(1, 5):
        R = _banded_pattern(m, 1.6, 1.2, -0.42)
        eigs, vecs = np.linalg.eigh(R)
        want = (vecs * np.clip(eigs, 0.0, None)) @ vecs.conj().T
        assert np.array_equal(synthesize_sar_matrix(m).matrix, (want + want.conj().T) / 2.0)


def test_synthesize_deterministic_per_seed():
    a = synthesize_sar_matrix(6, rng_seed=9, jitter=0.05)
    b = synthesize_sar_matrix(6, rng_seed=9, jitter=0.05)
    c = synthesize_sar_matrix(6, rng_seed=10, jitter=0.05)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, c.matrix)


def test_model_rejects_non_hermitian():
    bad = np.array([[1.0, 1.0j], [1.0j, 1.0]])
    with pytest.raises(ConfigurationError):
        SarModel(matrix=bad, budget=1.6)


def test_model_rejects_indefinite():
    bad = np.array([[1.0, 0.0], [0.0, -0.5]])
    with pytest.raises(ConfigurationError):
        SarModel(matrix=bad, budget=1.6)


def singular_sar_json(budget: float = 1.6) -> str:
    """A SAR model document whose matrix is PSD but singular (eigenvalues 0, 2)."""
    return json.dumps({"matrix": _jsonable(np.ones((2, 2), dtype=complex)),
                       "budget": budget, "synthetic": False})


def test_model_rejects_singular_psd_matrix():
    # PSD but singular, or nearly so: no Cholesky factor, no whitened channels
    for R in (np.ones((2, 2)), np.diag([1.0, 1e-13])):
        with pytest.raises(ConfigurationError, match="positive definite"):
            SarModel(matrix=R, budget=1.6)
    with pytest.raises(ConfigurationError, match="positive definite"):
        SarModel.from_json(singular_sar_json())


def test_model_keeps_factor_and_smallest_eigenvalue():
    for model in (paper_sar_matrix(), synthesize_sar_matrix(6, jitter=0.05),
                  identity_sar_model(3, 2.0)):
        R, C = model.matrix, model.factor
        assert np.array_equal(C, np.linalg.cholesky(R))
        assert np.allclose(C @ C.conj().T, R, rtol=0, atol=1e-12)
        assert model.min_eig == np.linalg.eigvalsh(R)[0] > 0


def test_model_rejects_nonpositive_budget():
    with pytest.raises(ConfigurationError):
        SarModel(matrix=np.eye(2), budget=0.0)


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), -float("inf")])
def test_model_rejects_a_budget_that_is_not_finite(budget):
    with pytest.raises(ConfigurationError, match="finite positive"):
        SarModel(matrix=np.eye(2), budget=budget)
    doc = json.loads(paper_sar_matrix().to_json())
    doc["budget"] = budget
    with pytest.raises(ConfigurationError, match="finite positive"):
        SarModel.from_json(json.dumps(doc))


def test_model_rejects_an_empty_matrix():
    for R in (np.zeros((0, 0)), np.zeros((0,))):
        with pytest.raises(ConfigurationError, match="non-empty"):
            SarModel(matrix=R, budget=1.0)


def test_identity_model_measures_power(rng):
    model = identity_sar_model(4, budget=2.0)
    P = random_complex(rng, (4, 3))
    assert sar_value(P, model) == pytest.approx(np.linalg.norm(P) ** 2, rel=1e-12)


def test_model_json_roundtrip():
    model = paper_sar_matrix(budget=0.8)
    back = SarModel.from_json(model.to_json())
    assert np.array_equal(back.matrix, model.matrix)
    assert back.budget == 0.8
    assert back.synthetic == model.synthetic
