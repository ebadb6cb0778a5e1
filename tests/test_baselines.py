import math

import numpy as np
import pytest

from fluidsar.balance import BalanceConfig
from fluidsar.baselines import (
    BaselineConfig,
    adaptive_backoff,
    central_grid_layout,
    solve_aps,
    solve_fpa,
    solve_without_sar,
)
from fluidsar.channel import (
    ConfigurationError,
    Region,
    aps_grid,
    channel_matrix,
    min_pairwise_distance,
    sample_channel,
    sinr_all,
    uniform_line_layout,
)
from fluidsar.exposure import paper_sar_matrix, sar_value, synthesize_sar_matrix
from fluidsar.solver import SinrTargets, SolverConfig, solve_sar_min

from conftest import NOISE_W, WAVELENGTH, fast_config

BAL = BalanceConfig(accuracy=1e11)


def small_channel(seed):
    return sample_channel(seed, 2, 2, 4, NOISE_W)


SMALL_MODEL = synthesize_sar_matrix(2, budget=1.6)


# ------------------------------------------------------------- without SAR

def test_without_sar_single_user_matched_filter():
    # K=1 power minimization: ||p||^2 = gbar sigma^2 / ||h||^2 at the optimum,
    # so the balance value satisfies beta* = Pt ||h||^2 / sigma^2 (up to eps1)
    real = sample_channel(31, 2, 1, 4, NOISE_W)
    cfg = fast_config(optimize_positions=False)
    res = solve_without_sar(real, 2, BaselineConfig(power_budget=2.0), cfg, BAL)
    H = channel_matrix(res.layout, real, WAVELENGTH)
    bound = 2.0 * np.linalg.norm(H[0]) ** 2 / NOISE_W
    assert res.beta_star <= bound
    assert res.beta_star >= 0.98 * bound
    # emitted power respects the budget
    assert np.linalg.norm(res.precoder) ** 2 <= 2.0 + 1e-9


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_power_budget_must_be_finite_and_positive(bad):
    with pytest.raises(ConfigurationError, match="power budget"):
        BaselineConfig(power_budget=bad)


def test_without_sar_trivial_budget():
    real = small_channel(7)
    res = solve_without_sar(real, 2, BaselineConfig(power_budget=1e-12),
                            fast_config(), BAL)
    assert res.beta_star <= 1e-10 / NOISE_W


# ------------------------------------------------------------- backoff

def test_backoff_factor_formula():
    real = small_channel(3)
    cfg = fast_config()
    nosar = solve_without_sar(real, 2, BaselineConfig(power_budget=2.0), cfg, BAL)
    model = synthesize_sar_matrix(2, budget=1.6)
    res = adaptive_backoff(real, model, BaselineConfig(power_budget=2.0), cfg, BAL,
                           unconstrained=nosar)
    sar_bar = sar_value(nosar.precoder, model)
    expected = min(1.0, 1.6 / sar_bar)
    assert res.alpha == pytest.approx(expected, rel=1e-12)
    assert np.allclose(res.precoder, expected * nosar.precoder)


def test_backoff_half_when_sar_double():
    # direct evaluation of the min formula: 3.2 exposure against a 1.6 budget
    real = small_channel(4)
    cfg = fast_config()
    nosar = solve_without_sar(real, 2, BaselineConfig(power_budget=2.0), cfg, BAL)
    sar_bar = sar_value(nosar.precoder, SMALL_MODEL)
    model = synthesize_sar_matrix(2, budget=sar_bar / 2.0)
    res = adaptive_backoff(real, model, BaselineConfig(power_budget=2.0), cfg, BAL,
                           unconstrained=nosar)
    assert res.alpha == pytest.approx(0.5, rel=1e-12)


def test_backoff_unit_alpha_when_within_budget():
    real = small_channel(5)
    cfg = fast_config()
    nosar = solve_without_sar(real, 2, BaselineConfig(power_budget=2.0), cfg, BAL)
    sar_bar = sar_value(nosar.precoder, SMALL_MODEL)
    model = synthesize_sar_matrix(2, budget=10 * sar_bar)
    res = adaptive_backoff(real, model, BaselineConfig(power_budget=2.0), cfg, BAL,
                           unconstrained=nosar)
    assert res.alpha == 1.0
    assert np.array_equal(res.precoder, nosar.precoder)


def test_backoff_safety_always_within_budget():
    cfg = fast_config()
    for seed in range(6):
        real = small_channel(40 + seed)
        model = synthesize_sar_matrix(2, budget=0.5)
        res = adaptive_backoff(real, model, BaselineConfig(power_budget=2.0), cfg, BAL)
        assert res.sar <= model.budget + 1e-9


# ------------------------------------------------------------- FPA

def test_fpa_layout_is_centered_line(paper_channel):
    model = paper_sar_matrix()
    rep = solve_fpa(paper_channel, model, "sar-min", fast_config(),
                    targets=SinrTargets.uniform(4, 1.0 / NOISE_W))
    assert np.allclose(rep.layout[:, 0] / WAVELENGTH, [-0.75, -0.25, 0.25, 0.75])
    assert np.allclose(rep.layout[:, 1], 0.0)


def test_fpa_requires_fitting_array():
    real = sample_channel(2, 6, 2, 3, NOISE_W)
    model = synthesize_sar_matrix(6)
    tight = fast_config(region=Region(half_width=0.5, wavelength=WAVELENGTH))
    with pytest.raises(ConfigurationError):
        solve_fpa(real, model, "sar-min", tight, targets=SinrTargets.uniform(2, 1.0))


def test_sar_min_refuses_missing_targets(paper_channel):
    # exposure minimization needs its SINR floors: refused by name, not an
    # AttributeError from inside the solve
    model = paper_sar_matrix()
    for solve in (solve_fpa, solve_aps):
        with pytest.raises(ConfigurationError, match="needs SinrTargets, got None"):
            solve(paper_channel, model, "sar-min")
    with pytest.raises(ConfigurationError, match="needs SinrTargets"):
        solve_sar_min(paper_channel, [1.0 / NOISE_W] * 4, model)


def test_fas_from_ula_never_worse_than_fpa(paper_channel):
    # position optimization started at the line array can only help
    model = paper_sar_matrix()
    targets = SinrTargets.uniform(4, 1.0 / NOISE_W)
    cfg = fast_config()
    for seed in (11, 12, 13):
        real = sample_channel(seed, 4, 4, 15, NOISE_W)
        fas = solve_sar_min(real, targets, model, cfg)
        fpa = solve_fpa(real, model, "sar-min", cfg, targets=targets)
        assert fas.sar <= fpa.sar + 1e-6


# ------------------------------------------------------------- APS

def test_aps_grid_counts(region):
    grid = aps_grid(region)
    assert grid.shape == (25, 2)  # 5 x 5 at half-wavelength spacing over [-l, l]
    assert math.comb(25, 4) == 12650
    assert min_pairwise_distance(grid[:2]) >= WAVELENGTH / 2 - 1e-12


@pytest.mark.parametrize("half_width", [1.0, 2.5, 3.0])
def test_aps_grid_is_symmetric(half_width):
    # the coordinates are exact multiples of lambda/2, so the lattice maps
    # onto itself, bit for bit, under x -> -x and under y -> -y
    grid = aps_grid(Region(half_width, WAVELENGTH))
    points = set(map(tuple, grid.tolist()))
    for flip in ([-1.0, 1.0], [1.0, -1.0]):
        assert set(map(tuple, (grid * flip).tolist())) == points


@pytest.mark.parametrize("half_width", [1.0, 2.5])
def test_central_grid_layout_is_the_innermost_cluster(half_width):
    # the centre, then its four neighbours in (x, y) order: the radius ties
    # are exact, so no rounding picks among them
    s = WAVELENGTH / 2
    layout = central_grid_layout(aps_grid(Region(half_width, WAVELENGTH)), 4, s)
    assert np.array_equal(layout, [[0.0, 0.0], [-s, 0.0], [0.0, -s], [0.0, s]])


def test_aps_grid_single_layout_equals_fixed_solve():
    # a grid with exactly M points leaves one candidate: the fixed-layout solve
    real = small_channel(6)
    cfg = fast_config(region=Region(half_width=0.25, wavelength=WAVELENGTH))
    grid = aps_grid(cfg.region)
    assert grid.shape[0] == 4
    # choose M = 4 to consume the full grid
    model4 = synthesize_sar_matrix(4, budget=1.6)
    real4 = sample_channel(6, 4, 2, 4, NOISE_W)
    # the full lattice is the only start (no row holds the array), and no
    # antenna has a free lattice point to move to
    targets = SinrTargets.uniform(2, 1.0 / NOISE_W)
    res = solve_aps(real4, model4, "sar-min", BaselineConfig(), cfg, targets=targets)
    assert res.evaluated == 1
    from dataclasses import replace
    direct = solve_sar_min(real4, targets, model4,
                           replace(cfg, optimize_positions=False),
                           initial_layout=grid)
    assert np.array_equal(res.layout, grid)
    assert res.sar == direct.sar


def test_aps_layouts_respect_spacing():
    real = small_channel(9)
    cfg = fast_config()
    res = solve_aps(real, SMALL_MODEL, "sar-min", BaselineConfig(), cfg,
                    targets=SinrTargets.uniform(2, 0.5 / NOISE_W))
    assert min_pairwise_distance(res.layout) >= WAVELENGTH / 2 - 1e-12


def test_fas_seeded_from_aps_winner_not_worse():
    # continuous refinement from the winning lattice placement can only reduce:
    # seed the full state (layout, exact precoder, penalty level) so the
    # descent continues from the winner instead of restarting the penalty
    # ramp. The winner ends on the exact solve at its layout, so the level is
    # the one a cold FAS solve of the same channel ends at
    from dataclasses import replace
    real = small_channel(10)
    cfg = fast_config()
    targets = SinrTargets.uniform(2, 1.0 / NOISE_W)
    aps = solve_aps(real, SMALL_MODEL, "sar-min", BaselineConfig(), cfg, targets=targets)
    cold = solve_sar_min(real, targets, SMALL_MODEL, cfg)
    seeded_cfg = replace(cfg, mu0=cold.final_mu * cfg.a ** 12)
    fas = solve_sar_min(real, targets, SMALL_MODEL, seeded_cfg,
                        initial_layout=aps.layout, initial_precoder=aps.precoder)
    assert fas.converged
    assert fas.sar <= aps.sar + 1e-6


@pytest.mark.parametrize("half_width", [1.0, 2.5, 3.0])
def test_aps_antennas_sit_on_lattice_points(half_width):
    # the search starts and stays on the lattice, from the lattice row nearest
    # the x-axis and from the innermost cluster
    cfg = fast_config(region=Region(half_width, WAVELENGTH))
    on = set(map(tuple, aps_grid(cfg.region).tolist()))
    real = sample_channel(3, 4, 4, 5, NOISE_W)
    targets = SinrTargets.uniform(4, 1.0 / NOISE_W)
    bal = BalanceConfig(accuracy=1e13, bracket=(0.0, 1e15))
    for objective in ("sar-min", "balance"):
        res = solve_aps(real, paper_sar_matrix(), objective, BaselineConfig(), cfg, bal, targets)
        assert set(map(tuple, res.layout.tolist())) <= on, objective


def test_aps_starts_from_the_cluster_alone_when_no_row_holds_the_array():
    # the half-wavelength lattice of +-0.5 wavelength has rows of 3 points
    cfg = fast_config(region=Region(0.5, WAVELENGTH))
    res = solve_aps(sample_channel(3, 4, 4, 5, NOISE_W), paper_sar_matrix(), "sar-min",
                    BaselineConfig(), cfg, targets=SinrTargets.uniform(4, 1.0 / NOISE_W))
    assert res.evaluated == 1
    on = set(map(tuple, aps_grid(cfg.region).tolist()))
    assert set(map(tuple, res.layout.tolist())) <= on


def test_aps_rejects_bad_objective():
    real = small_channel(1)
    with pytest.raises(ConfigurationError):
        solve_aps(real, SMALL_MODEL, "capacity", BaselineConfig(), fast_config())
    # the lattice search is the only method
    with pytest.raises(ConfigurationError, match="method"):
        solve_aps(real, SMALL_MODEL, "sar-min", BaselineConfig(), fast_config(),
                  targets=SinrTargets.uniform(2, 0.5 / NOISE_W), method="combinations")


def test_aps_settled_lattice_exit_keeps_every_result(monkeypatch):
    # a lattice path stops once its layout stood still and no lattice move can
    # improve it, and the exact solve takes over; without that exit it runs on
    # to the paper's xi rule. On the acceptance channels both give the same
    # bits, every balance probe the same verdict, and the exit saves outer
    # iterations
    from fluidsar import baselines, solver
    from fluidsar.harness import derive_seed
    from test_acceptance import BETA_REF, EXPERIMENT_SOLVER
    outer, ladders = [], []
    inner_loop, balance = solver.inner_loop, baselines.solve_sinr_balance

    def counting_inner_loop(*args, **kwargs):
        outer.append(1)
        return inner_loop(*args, **kwargs)

    def recording_balance(*args, **kwargs):
        res = balance(*args, **kwargs)
        ladders.append(res.ladder)
        return res
    monkeypatch.setattr(solver, "inner_loop", counting_inner_loop)
    monkeypatch.setattr(baselines, "solve_sinr_balance", recording_balance)
    model, targets = paper_sar_matrix(), SinrTargets.uniform(4, BETA_REF)
    bal = BalanceConfig(accuracy=1e13, bracket=(0.0, 1e15))

    def run():
        outer.clear()
        ladders.clear()
        results = []
        for trial in range(6):
            real = sample_channel(derive_seed(909, trial), 4, 4, 15, NOISE_W)
            for half_width in (1.0, 3.0):
                cfg = SolverConfig(region=Region(half_width, WAVELENGTH), **EXPERIMENT_SOLVER)
                for objective in ("sar-min", "balance"):
                    results.append(solve_aps(real, model, objective, BaselineConfig(), cfg,
                                             bal, targets))
        return results, len(outer), list(ladders)

    on, outer_on, ladders_on = run()
    monkeypatch.setattr(solver, "_lattice_settled", lambda *args: False)
    off, outer_off, ladders_off = run()
    for a, b in zip(on, off):
        assert (a.value, a.beta, a.sar) == (b.value, b.beta, b.sar)
        assert a.layout.tobytes() == b.layout.tobytes()
        assert a.precoder.tobytes() == b.precoder.tobytes()
    assert len(on) == 24 and ladders_on == ladders_off and len(ladders_on) == 24
    assert outer_on < 0.6 * outer_off  # 2,659 against 6,313 when written


# ------------------------------------------------------------- APS outbid cutoff

def acceptance_cases():
    """The acceptance channels 0-5 at +-1 and +-3 wavelengths, each with the
    lattice solver config that ``solve_aps`` runs."""
    from dataclasses import replace

    from fluidsar.harness import derive_seed
    from test_acceptance import EXPERIMENT_SOLVER
    for trial in range(6):
        real = sample_channel(derive_seed(909, trial), 4, 4, 15, NOISE_W)
        for half_width in (1.0, 3.0):
            cfg = SolverConfig(region=Region(half_width, WAVELENGTH), **EXPERIMENT_SOLVER)
            yield real, cfg, replace(cfg, optimize_positions=True, lattice=True)


ACCEPTANCE_BAL = BalanceConfig(accuracy=1e13, bracket=(0.0, 1e15))


def test_aps_balance_is_the_better_full_ladder_with_fewer_solves(monkeypatch):
    # the second start's ladder stops once a probe shows it cannot beat the
    # first: the result is that of two full ladders, bit for bit, and the
    # skipped probes are solves saved
    from fluidsar import balance, baselines
    starts, solves = [], []
    full, sar_min = baselines.solve_sinr_balance, balance.solve_sar_min

    def recording_balance(*args, **kwargs):
        starts.append(kwargs["initial_layout"])
        return full(*args, **kwargs)

    def counting_sar_min(*args, **kwargs):
        solves.append(1)
        return sar_min(*args, **kwargs)
    monkeypatch.setattr(baselines, "solve_sinr_balance", recording_balance)
    monkeypatch.setattr(balance, "solve_sar_min", counting_sar_min)
    model, fewer = paper_sar_matrix(), 0
    for real, cfg, lattice_cfg in acceptance_cases():
        starts.clear()
        solves.clear()
        aps = solve_aps(real, model, "balance", BaselineConfig(), cfg, ACCEPTANCE_BAL)
        aps_solves = len(solves)
        assert len(starts) == 2
        runs = [full(real, model, ACCEPTANCE_BAL, lattice_cfg, initial_layout=layout)
                for layout in starts]
        best = min(runs, key=lambda res: (-res.beta_star, res.layout.tolist()))
        assert aps.value == aps.beta == best.beta_star
        assert aps.layout.tobytes() == best.layout.tobytes()
        assert aps.precoder.tobytes() == best.precoder.tobytes()
        assert aps.best.ladder == best.ladder and aps.best.warnings == best.warnings
        assert aps_solves <= len(solves) - aps_solves
        fewer += aps_solves < len(solves) - aps_solves
    assert fewer >= 1


def lattice_ladder():
    """Channel 2 at +-3 wavelengths from the innermost lattice cluster: its
    config, start and full ladder, which fits probes between its infeasible
    ones."""
    from fluidsar.balance import solve_sinr_balance
    real, _, cfg = list(acceptance_cases())[5]
    start = central_grid_layout(aps_grid(cfg.region), 4, cfg.distance)
    res = solve_sinr_balance(real, paper_sar_matrix(), ACCEPTANCE_BAL, cfg,
                             initial_layout=start)
    return real, cfg, start, res


def test_beats_below_the_answer_changes_nothing():
    from fluidsar.balance import solve_sinr_balance
    real, cfg, start, res = lattice_ladder()
    assert res.beta_star > 0
    for beats in (0.0, 0.5 * res.beta_star, math.nextafter(res.beta_star, 0.0)):
        out = solve_sinr_balance(real, paper_sar_matrix(), ACCEPTANCE_BAL, cfg,
                                 initial_layout=start, beats=beats)
        assert out.ladder == res.ladder and out.warnings == res.warnings
        assert out.beta_star == res.beta_star
        assert out.precoder.tobytes() == res.precoder.tobytes()
        assert out.layout.tobytes() == res.layout.tobytes()


def test_beats_at_an_infeasible_probe_ends_the_ladder_there():
    # the ladder stops right after its first infeasible probe at or below
    # beats, and keeps its best fitting probe so far, or beta* 0
    from fluidsar.balance import solve_sinr_balance
    real, cfg, start, res = lattice_ladder()
    failed = [row[1] for row in res.ladder if not row[3]]
    answers = []
    for beats in failed + [2.0 * max(failed)]:
        out = solve_sinr_balance(real, paper_sar_matrix(), ACCEPTANCE_BAL, cfg,
                                 initial_layout=start, beats=beats)
        stop = next(i for i, row in enumerate(res.ladder) if not row[3] and row[1] <= beats)
        assert out.ladder == res.ladder[:stop + 1]
        assert "outbid" in out.warnings
        assert out.beta_star < beats
        assert out.beta_star == max((row[1] for row in out.ladder if row[3]), default=0.0)
        answers.append(out.beta_star)
    # cut before any probe fit, and after some did
    assert min(answers) == 0.0 < max(answers)
