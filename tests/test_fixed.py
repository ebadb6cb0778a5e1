"""The exact fixed-layout solve against the independent oracle, the K = 1
closed form and the penalty algorithm, and its failure cases."""
import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from fluidsar import fixed, solver
from fluidsar.baselines import solve_fpa
from fluidsar.channel import (
    ConfigurationError,
    Region,
    channel_matrix,
    sample_channel,
    sinr_all,
    uniform_line_layout,
)
from fluidsar.exposure import SarModel, paper_sar_matrix, sar_value, synthesize_sar_matrix
from fluidsar.fixed import optimal_precoder
from fluidsar.harness import derive_seed
from fluidsar.solver import SinrTargets, SolverConfig, solve_sar_min

from conftest import NOISE_W, WAVELENGTH, fast_config

BETA_REF = 1.0 / NOISE_W


def _load_oracle():
    # bench/oracle.py imports nothing from fluidsar; it is read, never changed
    path = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("fixed_layout_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


def acceptance_channel(trial):
    return sample_channel(derive_seed(909, trial), 4, 4, 15, NOISE_W)


def oracle_sar(realization, layout, model, beta0):
    H = oracle.channel(layout, realization.paths, WAVELENGTH)
    return oracle.FixedLayoutOptimum(H, model.matrix, NOISE_W).sar_at(
        np.full(realization.num_users, beta0))


def exact_sar(realization, layout, model, beta0):
    H = channel_matrix(layout, realization, WAVELENGTH)
    P = optimal_precoder(H, model, np.full(realization.num_users, beta0), NOISE_W)
    return sar_value(P, model)


# acceptance channel 4 (seed 75903749) is nearly rank-deficient at the line
# array (whitened singular values 56 to 0.1). There the oracle's SVD
# least squares reads 5.7e-9 above the optimum that 60-digit arithmetic gives,
# and this solve 2e-10 above it; it is checked on its own below
AGREEING = [0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11]


@pytest.mark.parametrize("beta", [0.3, 1.0, 10.0])
def test_agrees_with_the_oracle_on_acceptance_channels(beta):
    model = paper_sar_matrix()
    layout = uniform_line_layout(4, Region(1.0, WAVELENGTH))
    for trial in AGREEING:
        ch = acceptance_channel(trial)
        want = oracle_sar(ch, layout, model, beta * BETA_REF)
        got = exact_sar(ch, layout, model, beta * BETA_REF)
        assert abs(got - want) <= 1e-9 * want, (trial, got, want)


def test_ill_conditioned_channel_is_below_the_oracle():
    model = paper_sar_matrix()
    layout = uniform_line_layout(4, Region(1.0, WAVELENGTH))
    ch = acceptance_channel(4)
    want = oracle_sar(ch, layout, model, BETA_REF)
    got = exact_sar(ch, layout, model, BETA_REF)
    assert want * (1.0 - 1e-8) <= got <= want


def test_fixed_layout_solve_runs_no_penalty_iteration():
    model = paper_sar_matrix()
    targets = SinrTargets.uniform(4, BETA_REF)
    layout = uniform_line_layout(4, Region(1.0, WAVELENGTH))
    for trial in range(8):
        ch = acceptance_channel(trial)
        want = oracle_sar(ch, layout, model, BETA_REF)
        for rep in (solve_sar_min(ch, targets, model, SolverConfig(optimize_positions=False)),
                    solve_fpa(ch, model, "sar-min", targets=targets)):
            assert rep.outer_iterations == 0 and rep.inner_sweeps_total == 0
            assert rep.converged and rep.feasible and rep.status == "converged"
            assert rep.warnings == [] and rep.xi == 0.0
            assert np.array_equal(rep.layout, layout)
            tol = 1e-8 if trial == 4 else 1e-9
            assert abs(rep.sar - want) <= tol * want, (trial, rep.sar, want)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_single_user_closed_form(m):
    # SAR* = g sigma^2 / (h^H R^{-1} h)
    model = synthesize_sar_matrix(m)
    for seed in (1, 2, 3):
        ch = sample_channel(seed, m, 1, 5, NOISE_W)
        h = channel_matrix(uniform_line_layout(m, Region(1.0, WAVELENGTH)), ch, WAVELENGTH)
        g = (0.5 + seed) * BETA_REF
        want = g * NOISE_W / np.vdot(h[0], np.linalg.solve(model.matrix, h[0])).real
        P = optimal_precoder(h, model, np.array([g]), NOISE_W)
        assert sar_value(P, model) == pytest.approx(want, rel=1e-12)


def test_every_sinr_sits_on_its_floor():
    model = paper_sar_matrix()
    layout = uniform_line_layout(4, Region(1.0, WAVELENGTH))
    rng = np.random.default_rng(7)
    for trial in range(12):
        ch = acceptance_channel(trial)
        H = channel_matrix(layout, ch, WAVELENGTH)
        g = rng.uniform(0.2, 5.0, size=4) * BETA_REF
        P = optimal_precoder(H, model, g, NOISE_W)
        np.testing.assert_allclose(sinr_all(P, H, NOISE_W), g, rtol=1e-9)


def test_never_above_the_penalty_iterate(monkeypatch):
    # the penalty path's own precoder at its final layout, scaled up until its
    # worst SINR meets the floor, is a feasible point: the exact solve at that
    # layout is at or below it
    model = paper_sar_matrix()
    targets = SinrTargets.uniform(4, BETA_REF)
    exact = {}
    for trial in range(4):
        ch = acceptance_channel(trial)
        exact[trial] = solve_sar_min(ch, targets, model, fast_config())
    optimum = solver.optimal_precoder  # the unpatched solve
    monkeypatch.setattr(solver, "optimal_precoder", lambda *args: None)
    for trial, rep in exact.items():
        pen = solve_sar_min(acceptance_channel(trial), targets, model, fast_config())
        # without an exact answer the loop cannot stop on xi: the penalty
        # iterate is kept and flagged, and the path runs on past the point
        # where the unpatched solve stopped
        assert not pen.converged and not pen.feasible and "infeasible_targets" in pen.warnings
        assert list(pen.outer_trace)[:rep.outer_iterations] == list(rep.outer_trace)
        H = channel_matrix(pen.layout, acceptance_channel(trial), WAVELENGTH)
        G = np.abs(H.conj() @ pen.precoder) ** 2
        sig = np.diag(G).copy()
        np.fill_diagonal(G, 0.0)  # interference as an off-diagonal sum: no cancellation
        interf = G.sum(axis=1)
        scale = np.max(NOISE_W / (sig / targets.thresholds - interf))
        best = sar_value(optimum(H, model, targets.thresholds, NOISE_W), model)
        assert best <= scale * sar_value(pen.precoder, model), trial
        assert rep.sar == exact_sar(acceptance_channel(trial), rep.layout, model, BETA_REF)


def test_moving_layout_reports_the_optimum_of_its_layout():
    model = paper_sar_matrix()
    targets = SinrTargets.uniform(4, BETA_REF)
    for trial in (0, 1, 2):
        ch = acceptance_channel(trial)
        rep = solve_sar_min(ch, targets, model, fast_config())
        assert rep.converged and rep.feasible and rep.xi < 1e-7
        want = oracle_sar(ch, rep.layout, model, BETA_REF)
        assert abs(rep.sar - want) <= 1e-9 * want, (trial, rep.sar, want)


def test_infeasible_targets_are_flagged_without_warnings():
    # one antenna and two users: both SINRs reach 2 only if each user's power
    # is twice the other's, so no allocation meets them
    model = synthesize_sar_matrix(1)
    ch = sample_channel(3, 1, 2, 5, NOISE_W)
    targets = SinrTargets.uniform(2, 2.0)
    H = channel_matrix(uniform_line_layout(1, Region(1.0, WAVELENGTH)), ch, WAVELENGTH)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert optimal_precoder(H, model, targets.thresholds, NOISE_W) is None
        rep = solve_sar_min(ch, targets, model, fast_config(optimize_positions=False))
    assert rep.status == "infeasible" and not rep.converged and not rep.feasible
    assert rep.warnings == ["infeasible_targets"]
    assert np.linalg.norm(rep.precoder) > 0  # the start, not a silent zero


def test_infeasible_targets_stop_a_moving_layout_unconverged():
    # the same targets, which no layout of one antenna can meet: xi falls
    # below eps_outer, but without an exact solve the loop does not converge
    model = synthesize_sar_matrix(1)
    ch = sample_channel(3, 1, 2, 5, NOISE_W)
    cfg = fast_config()
    rep = solve_sar_min(ch, SinrTargets.uniform(2, 2.0), model, cfg)
    assert min(xi for _, _, xi, _, _ in rep.outer_trace) < cfg.eps_outer
    assert rep.status in ("max_outer", "plateau") and not rep.converged and not rep.feasible
    assert rep.warnings == ["infeasible_targets"]
    assert rep.outer_iterations > 0 and np.linalg.norm(rep.precoder) > 0


def test_zero_targets_give_the_zero_precoder():
    model = paper_sar_matrix()
    ch = acceptance_channel(0)
    H = channel_matrix(uniform_line_layout(4, Region(1.0, WAVELENGTH)), ch, WAVELENGTH)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        P = optimal_precoder(H, model, np.zeros(4), NOISE_W)
        rep = solve_sar_min(ch, SinrTargets.uniform(4, 0.0), model,
                            fast_config(optimize_positions=False))
    assert P.shape == (4, 4) and not P.any()
    assert rep.converged and rep.sar == 0.0 and not rep.precoder.any()


def test_non_positive_definite_matrix_is_rejected():
    # PSD but singular: no whitening exists, so no model is built
    with pytest.raises(ConfigurationError, match="positive definite"):
        SarModel(matrix=np.array([[1.0, 1.0], [1.0, 1.0]]), budget=1.6)


@pytest.mark.parametrize("K", [1, 2, 4, 6])
def test_index_tables_are_built_once_per_user_count(K):
    # every fixed-point step reads the same read-only tables: the users other
    # than each user, and the (K-1) identity
    others, eye = fixed._index_tables(K)
    assert fixed._index_tables(K)[0] is others and fixed._index_tables(K)[1] is eye
    assert others.shape == (K, K - 1)
    assert [sorted(set(row) | {k}) for k, row in enumerate(others.tolist())] == [list(range(K))] * K
    assert np.array_equal(eye, np.eye(K - 1))
    for table in (others, eye):
        with pytest.raises(ValueError):
            table[...] = 0
