import json
import tracemalloc

import numpy as np
import pytest

from fluidsar import solver
from fluidsar.baselines import solve_fpa
from fluidsar.channel import (
    Region,
    channel_matrix,
    min_pairwise_distance,
    sample_channel,
    sinr_all,
    uniform_line_layout,
)
from fluidsar.exposure import paper_sar_matrix, sar_value, synthesize_sar_matrix
from fluidsar.harness import derive_seed
from fluidsar.solver import (
    SinrTargets,
    SolverConfig,
    _ObjectiveTrace,
    _Rows,
    inner_loop,
    solve_auxiliary,
    solve_sar_min,
)

from conftest import NOISE_W, WAVELENGTH, fast_config


def segments(trace):
    """Group the (outer, label, value) inner trace by outer iteration."""
    by_outer = {}
    for outer, label, value in trace:
        if value is None:
            by_outer.setdefault(outer, []).append(None)  # recovery marker
        else:
            by_outer.setdefault(outer, []).append(value)
    return by_outer


def assert_monotone(trace, slack=1e-9):
    for outer, vals in segments(trace).items():
        prev = None
        for v in vals:
            if v is None:
                prev = None
                continue
            if prev is not None:
                assert v <= prev + slack * max(1.0, abs(prev)), \
                    f"objective increased within outer {outer}: {prev} -> {v}"
            prev = v


def run_inner_loop(channel, layout, P, Z, model, targets, mu, config, state=None,
                   outer_index=0):
    """One inner loop from ``layout`` on ``state``, by default a fresh solve
    state: the loop's result, then the state."""
    state = state or solver._SolveState(channel, config)
    Hbar = channel_matrix(layout, channel, config.wavelength).conj()
    return inner_loop(channel, layout, P, Z, model, targets, mu, config, state, Hbar,
                      outer_index), state


def test_inner_loop_converged_state_exits_quickly(paper_channel):
    cfg = fast_config()
    model = paper_sar_matrix()
    targets = SinrTargets.uniform(4, 1.0 / NOISE_W)
    rep = solve_sar_min(paper_channel, targets, model, cfg)
    # feeding the solution back in: single extra sweep, immediate exit
    (P, Z, pos, Hbar, sweeps, xi, sar), state = run_inner_loop(
        paper_channel, rep.layout, rep.precoder, rep.aux, model, targets,
        rep.final_mu, cfg)
    assert sweeps <= 2
    assert_monotone(state.trace)


def test_solve_paper_config_trace_monotone(paper_channel):
    model = paper_sar_matrix()
    rep = solve_sar_min(paper_channel, SinrTargets.uniform(4, 1.0 / NOISE_W), model,
                        fast_config())
    assert rep.converged
    assert rep.status == "converged"
    assert rep.xi < 1e-7
    assert_monotone(rep.inner_objective_trace)
    # outer xi trace decays
    xis = [row[2] for row in rep.outer_trace]
    assert xis[-1] <= xis[0]


def outer_reports(seed, beta0_list, cfg):
    """``solve_sar_min``'s reports at each target, on ``seed``'s M = K = 2,
    L = 3 channel and the synthetic SAR model that the sweeps use at M = 2."""
    real = sample_channel(seed, 2, 2, 3, NOISE_W)
    model = synthesize_sar_matrix(2, budget=1.6)
    return [solve_sar_min(real, SinrTargets.uniform(2, beta0), model, cfg)
            for beta0 in beta0_list]


def xi_halves_hold(rep):
    """Whether xi(2i) <= xi(i) for every i >= 10 along ``rep.outer_trace``."""
    xis = [row[2] for row in rep.outer_trace]
    return all(xis[2 * i] <= xis[i] for i in range(10, len(xis)) if 2 * i < len(xis))


def test_outer_trace_shape_and_exit():
    cfg = SolverConfig(mu0=1e-2, a=0.5, max_outer=60, max_inner=8, max_sca_iter=8,
                       eps_inner_rel=1e-3, eps_position_rel=1e-3)
    reports = outer_reports(5, [0.5 / NOISE_W, 4.0 / NOISE_W], cfg)
    for rep in reports:
        assert rep.converged
        assert rep.xi < 1e-7
        assert xi_halves_hold(rep)
        iters = [row[0] for row in rep.outer_trace]
        assert iters == sorted(iters)


def test_outer_iterations_grow_with_target():
    # stricter targets keep the coupling residual above the exit threshold
    # longer, so the outer loop runs more iterations
    cfg = SolverConfig(mu0=1e-2, a=0.5, max_outer=120, max_inner=8, max_sca_iter=8,
                       eps_inner_rel=1e-3, eps_position_rel=1e-3)
    reports = outer_reports(9, [0.5 / NOISE_W, 4.0 / NOISE_W, 1000.0 / NOISE_W], cfg)
    assert all(xi_halves_hold(rep) for rep in reports)
    iters = [rep.outer_iterations for rep in reports]
    assert iters == sorted(iters)
    assert iters[-1] > iters[0]


def test_outer_loop_stops_on_xi_once_the_exact_solve_exists(paper_channel, monkeypatch):
    # the paper's stopping rule: the first outer iteration with xi below
    # eps_outer whose layout the exact solve serves ends the loop, and the
    # precoder of that solve is the one emitted, with no second solve
    calls = []
    optimum = solver.optimal_precoder

    def counted(*args):
        calls.append(optimum(*args))
        return calls[-1]
    monkeypatch.setattr(solver, "optimal_precoder", counted)
    cfg = SolverConfig()
    rep = solve_sar_min(paper_channel, SinrTargets.uniform(4, 1.0 / NOISE_W),
                        paper_sar_matrix(), cfg)
    assert rep.converged and rep.feasible and rep.status == "converged"
    xis = [row[2] for row in rep.outer_trace]
    assert len(xis) == rep.outer_iterations and xis[-1] == rep.xi < cfg.eps_outer
    # one exact solve per outer iteration below eps_outer; every one before
    # the last found no precoder
    assert len(calls) == sum(xi < cfg.eps_outer for xi in xis)
    assert all(P is None for P in calls[:-1])
    assert rep.precoder is calls[-1]


def test_solve_single_user_single_antenna_closed_form():
    # SAR = r * gbar * sigma^2 / |h|^2 at the final layout
    model = synthesize_sar_matrix(1)
    r = model.matrix[0, 0].real
    for seed in (1, 2, 3):
        real = sample_channel(seed, 1, 1, 5, NOISE_W)
        beta0 = 2.0 / NOISE_W
        rep = solve_sar_min(real, SinrTargets.uniform(1, beta0), model, fast_config())
        assert rep.converged
        h = channel_matrix(rep.layout, real, WAVELENGTH)[0]
        expected = r * beta0 * NOISE_W / np.linalg.norm(h) ** 2
        assert rep.sar == pytest.approx(expected, rel=1e-6)


def test_solve_vanishing_targets_give_vanishing_power(paper_channel):
    model = paper_sar_matrix()
    tiny = solve_sar_min(paper_channel, SinrTargets.uniform(4, 1e-3 / NOISE_W), model,
                         fast_config())
    ref = solve_sar_min(paper_channel, SinrTargets.uniform(4, 1.0 / NOISE_W), model,
                        fast_config())
    assert tiny.converged
    assert tiny.sar < 2e-3 * ref.sar
    assert np.linalg.norm(tiny.precoder) < 0.1 * np.linalg.norm(ref.precoder)


def test_solve_feasibility_at_exit(paper_channel):
    model = paper_sar_matrix()
    targets = SinrTargets.uniform(4, 2.0 / NOISE_W)
    cfg = fast_config()
    rep = solve_sar_min(paper_channel, targets, model, cfg)
    assert rep.converged and rep.feasible
    assert rep.min_distance >= WAVELENGTH / 2 - 1e-9
    assert rep.in_region
    sinrs = sinr_all(rep.precoder, channel_matrix(rep.layout, paper_channel, WAVELENGTH),
                     NOISE_W)
    assert np.all(sinrs >= targets.thresholds * (1 - 1e-5))


def test_solve_rejects_infeasible_initial_layout(paper_channel):
    from fluidsar.channel import ConfigurationError
    model = paper_sar_matrix()
    bad = np.zeros((4, 2))  # all antennas on top of each other
    with pytest.raises(ConfigurationError):
        solve_sar_min(paper_channel, SinrTargets.uniform(4, 1.0), model,
                      fast_config(), initial_layout=bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_targets_refuse_values_that_are_not_finite(bad):
    # a NaN floor used to build and give a "converged" solve with SAR 0
    from fluidsar.channel import ConfigurationError
    with pytest.raises(ConfigurationError, match="beta0 must be a finite"):
        SinrTargets.uniform(4, bad)
    with pytest.raises(ConfigurationError, match="weights must be finite"):
        SinrTargets(np.array([1.0, bad, 1.0, 1.0]), 1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("overrides,match", [
    (dict(mu0=NAN), "mu0"), (dict(mu0=INF), "mu0"), (dict(mu0=0.0), "mu0"),
    (dict(eps_outer=NAN), "eps_outer"), (dict(eps_inner=-1e-4), "eps_inner"),
    (dict(eps_position=INF), "eps_position"), (dict(eps_inner_rel=NAN), "eps_inner_rel"),
    (dict(eps_position_rel=-1.0), "eps_position_rel"),
    (dict(max_outer=-3), "max_outer"), (dict(max_inner=0), "max_inner"),
    (dict(max_sca_iter=-1), "max_sca_iter"),
])
def test_solver_config_refuses_settings_no_solve_can_use(overrides, match):
    # mu0 = NaN used to fail deep inside the precoder step, eps_outer = NaN to
    # run silently to max_outer, and max_inner = 0 to end on a plateau with
    # no inner sweep
    from fluidsar.channel import ConfigurationError
    with pytest.raises(ConfigurationError, match=match):
        SolverConfig(**overrides)


def test_solver_config_takes_zero_thresholds_and_single_iterations():
    SolverConfig(eps_inner=0.0, eps_outer=0.0, eps_position=0.0, eps_inner_rel=0.0,
                 eps_position_rel=0.0, max_outer=1, max_inner=1, max_sca_iter=1)


def channel_with_a_silent_user():
    """``sample_channel(1, 4, 4, 15)`` with user 0's path gains set to zero:
    no precoder reaches that user."""
    from fluidsar.channel import ChannelRealization, PathSet
    ch = sample_channel(1, 4, 4, 15, NOISE_W)
    p0 = ch.paths[0]
    silent = PathSet(p0.elevation_aods, p0.azimuth_aods, np.zeros(15))
    return ChannelRealization((silent,) + ch.paths[1:], ch.noise_variance, ch.seed)


@pytest.mark.parametrize("move", [True, False])
def test_silent_user_is_reported_not_solved(move):
    # a moving solve cannot project the couplings even after the recovery
    # step and stops before any outer iteration; a fixed layout's exact
    # solve finds the targets infeasible
    rep = solve_sar_min(channel_with_a_silent_user(), SinrTargets.uniform(4, 1.0 / NOISE_W),
                        paper_sar_matrix(), SolverConfig(optimize_positions=move))
    if move:
        assert rep.status == "degenerate"
        assert rep.warnings == ["degenerate_user", "infeasible_targets"]
    else:
        assert rep.status == "infeasible"
        assert rep.warnings == ["infeasible_targets"]
    assert rep.outer_iterations == 0 and not rep.converged and not rep.feasible


def test_solve_nonconvergence_is_flagged_not_raised(paper_channel):
    # an impossibly low outer cap cannot converge; expect a flagged report
    model = paper_sar_matrix()
    cfg = fast_config(max_outer=2)
    rep = solve_sar_min(paper_channel, SinrTargets.uniform(4, 1.0 / NOISE_W), model, cfg)
    assert not rep.converged
    assert rep.status in ("max_outer", "plateau")


def test_solve_report_roundtrips_to_json(paper_channel):
    model = paper_sar_matrix()
    rep = solve_sar_min(paper_channel, SinrTargets.uniform(4, 0.5 / NOISE_W), model,
                        fast_config())
    doc = json.dumps(rep.to_json_dict())
    parsed = json.loads(doc)
    assert parsed["converged"] is True
    assert parsed["sar"] == rep.sar
    P = np.array([[complex(re, im) for re, im in row] for row in parsed["precoder"]])
    assert np.array_equal(P, rep.precoder)
    assert len(parsed["outer_trace"]) == rep.outer_iterations


def test_solve_report_counts_position_steps(paper_channel):
    model = paper_sar_matrix()
    targets = SinrTargets.uniform(4, 1.0 / NOISE_W)
    rep = solve_sar_min(paper_channel, targets, model, fast_config())
    steps = rep.position_steps
    assert set(steps) == {"free", "qp", "stuck", "backtrack"} and steps["free"] > 0
    # a step starts at no less than tau / 256, so it doubles at most 8 times,
    # and a stuck step never backtracks
    assert 0 < steps["backtrack"] <= 8 * (steps["free"] + steps["qp"])
    assert json.loads(json.dumps(rep.to_json_dict()))["position_steps"] == steps
    # an inner loop counts its steps on the solve state it is given
    _, state = run_inner_loop(paper_channel, uniform_line_layout(4, Region(1.0, WAVELENGTH)),
                              rep.precoder, rep.aux, model, targets, fast_config().mu0,
                              fast_config())
    counts = state.steps
    assert sum(counts.values()) > 0 and set(counts) == {"free", "qp", "stuck", "backtrack"}
    fixed = solve_sar_min(paper_channel, targets, model, fast_config(optimize_positions=False))
    assert fixed.position_steps == {"free": 0, "qp": 0, "stuck": 0, "backtrack": 0}


def test_solve_report_says_what_each_block_cost(paper_channel):
    model = paper_sar_matrix()
    targets = SinrTargets.uniform(4, 1.0 / NOISE_W)
    rep = solve_sar_min(paper_channel, targets, model, fast_config())
    assert rep.dual_evaluations > 0
    assert set(rep.block_seconds) == {"precoder", "auxiliary", "positions"}
    assert all(t > 0.0 for t in rep.block_seconds.values())
    assert sum(rep.block_seconds.values()) <= rep.wall_time_s
    # one precoder and one position block a sweep; the auxiliary block also
    # runs once at the start
    sweeps = rep.inner_sweeps_total
    assert rep.block_calls == {"precoder": sweeps, "auxiliary": sweeps + 1, "positions": sweeps}
    doc = json.loads(json.dumps(rep.to_json_dict()))
    assert doc["dual_evaluations"] == rep.dual_evaluations
    assert doc["block_seconds"] == rep.block_seconds
    assert doc["block_calls"] == rep.block_calls
    fixed = solve_sar_min(paper_channel, targets, model, fast_config(optimize_positions=False))
    assert fixed.dual_evaluations == 0
    assert fixed.block_seconds == {"precoder": 0.0, "auxiliary": 0.0, "positions": 0.0}
    assert fixed.block_calls == {"precoder": 0, "auxiliary": 0, "positions": 0}
    # a degenerate-user recovery calls the auxiliary block twice in its sweep
    layout, P, Z, model, targets = inner_loop_start(paper_channel, True)
    (*_, sweeps, _, _), state = run_inner_loop(paper_channel, layout, P, Z, model, targets,
                                               fast_config().mu0, fast_config())
    assert sum(label == "recovered" for _, label, _ in state.trace) == 1
    assert state.calls == {"precoder": sweeps, "auxiliary": sweeps + 1, "positions": sweeps}


def test_positions_disabled_keeps_layout(paper_channel):
    model = paper_sar_matrix()
    cfg = fast_config(optimize_positions=False)
    layout = uniform_line_layout(4, cfg.region)
    rep = solve_sar_min(paper_channel, SinrTargets.uniform(4, 1.0 / NOISE_W), model, cfg)
    assert np.array_equal(rep.layout, layout)
    assert rep.converged


def test_position_step_improves_over_fixed(paper_channel):
    model = paper_sar_matrix()
    targets = SinrTargets.uniform(4, 1.0 / NOISE_W)
    moving = solve_sar_min(paper_channel, targets, model, fast_config())
    fixed = solve_sar_min(paper_channel, targets, model,
                          fast_config(optimize_positions=False))
    assert moving.converged and fixed.converged
    assert moving.sar <= fixed.sar + 1e-6


@pytest.mark.parametrize("seed", [1072566324, 3513472310, 4160729243, 1626905243])
def test_paper_config_ends_below_the_line_array(seed):
    # acceptance channels on which the paper settings used to end 1.10-1.35x
    # above the fixed line array they start from: steps at the global
    # curvature bound crawled, and the penalty path closed before the
    # antennas got anywhere
    model = paper_sar_matrix()
    channel = sample_channel(seed, 4, 4, 15, NOISE_W)
    targets = SinrTargets.uniform(4, 1.0 / NOISE_W)
    fas = solve_sar_min(channel, targets, model, SolverConfig())
    fpa = solve_fpa(channel, model, "sar-min", targets=targets)
    assert fas.feasible and fpa.feasible
    assert fas.sar <= fpa.sar, (fas.sar, fpa.sar)


def test_degenerate_targets_zero_beta(paper_channel):
    # zero targets: the exposure minimum is the zero precoder, found exactly
    model = paper_sar_matrix()
    rep = solve_sar_min(paper_channel, SinrTargets.uniform(4, 0.0), model, fast_config())
    assert rep.converged
    assert rep.sar == 0.0
    assert np.allclose(rep.precoder, 0.0)


def inner_loop_start(channel, recover):
    """An inner-loop state at the line array: matched-filter precoder and its
    projected couplings, or zero couplings, whose zero precoder makes the
    first sweep recover every user."""
    model = paper_sar_matrix()
    targets = SinrTargets.uniform(4, 1.0 / NOISE_W)
    layout = uniform_line_layout(4, Region(1.0, WAVELENGTH))
    H = channel_matrix(layout, channel, WAVELENGTH)
    P = (H / np.linalg.norm(H, axis=1)[:, None]).T.conj()
    Z = np.zeros((4, 4), complex) if recover else solve_auxiliary(H, P, targets, NOISE_W)[0]
    return layout, P, Z, model, targets


def test_opening_projection_recovers_a_zero_column(paper_channel):
    # the matched-filter start with user 2's column zeroed cannot be
    # projected: the solve resets that column, projects again (a second
    # auxiliary call before any sweep) and then runs as usual
    layout, P, _, model, targets = inner_loop_start(paper_channel, False)
    P[:, 2] = 0.0
    rep = solve_sar_min(paper_channel, targets, model, fast_config(), initial_layout=layout,
                        initial_precoder=P)
    assert rep.converged and rep.warnings == []
    assert rep.block_calls["auxiliary"] == rep.inner_sweeps_total + 2


@pytest.mark.parametrize("shape,value", [((3, 4), 1.0), ((4, 4, 1), 1.0), ((4, 4), np.nan)])
@pytest.mark.parametrize("optimize_positions", [True, False])
def test_start_precoder_must_be_a_finite_m_by_k_array(paper_channel, shape, value,
                                                      optimize_positions):
    # refused by name before any solve runs, as a bad start layout is: not a
    # ValueError or TypeError from inside numpy, nor, for a NaN entry, a
    # misleading SolverError from the precoder block
    _, _, _, model, targets = inner_loop_start(paper_channel, False)
    cfg = fast_config(optimize_positions=optimize_positions)
    with pytest.raises(solver.ConfigurationError, match="finite \\(M, K\\) array"):
        solve_sar_min(paper_channel, targets, model, cfg,
                      initial_precoder=np.full(shape, value, dtype=complex))


@pytest.mark.parametrize("recover", [False, True])
def test_inner_loop_scores_sar_once_per_sweep(paper_channel, monkeypatch, recover):
    # only the precoder block and degenerate-user recovery change P, so one
    # SAR value serves every objective of a sweep
    calls = []
    sar_value_ = solver.sar_value
    monkeypatch.setattr(solver, "sar_value", lambda P, m: calls.append(1) or sar_value_(P, m))
    layout, P, Z, model, targets = inner_loop_start(paper_channel, recover)
    cfg = fast_config()
    (*_, sweeps, _, _), state = run_inner_loop(paper_channel, layout, P, Z, model, targets,
                                               cfg.mu0, cfg)
    recoveries = sum(label == "recovered" for _, label, _ in state.trace)
    assert sweeps > 1 and recoveries == recover
    assert len(calls) == sweeps + recoveries


def test_traces_read_back_as_appended(paper_channel):
    layout, P, Z, model, targets = inner_loop_start(paper_channel, True)
    cfg = fast_config()
    rows, compact = [], _ObjectiveTrace()
    for trace in (rows, compact):
        state = solver._SolveState(paper_channel, cfg)
        state.trace = trace
        run_inner_loop(paper_channel, layout, P, Z, model, targets, cfg.mu0, cfg, state, 7)
    assert rows[1] == (7, "recovered", None) and len(rows) > 4
    assert list(compact) == rows and len(compact) == len(rows)
    assert [compact[i] for i in range(-len(rows), len(rows))] == rows + rows
    outer = _Rows("idddi")
    for row in [(0, 1e-3, 2.5, 1.25, 3), (1, 1.1e-3, 0.1 + 0.2, np.float64(1 / 3), 4)]:
        outer.append(row)
    assert list(outer) == [(0, 1e-3, 2.5, 1.25, 3), (1, 1.1e-3, 0.1 + 0.2, 1 / 3, 4)]


def test_paper_config_report_is_small():
    # reference channel 2 of the exposure sweeps: a paper-config report of
    # about 130 outer and 2,300 inner trace rows; typed arrays keep them at a
    # few bytes a row. A warm-up solve of the same channel first fills
    # numpy's block cache and the interpreter's free lists, so that the
    # count below is the measured solve's, whatever ran before it
    channel = sample_channel(derive_seed(909, 2), 4, 4, 15, NOISE_W)
    model = paper_sar_matrix()
    targets = SinrTargets.uniform(4, 1.0 / NOISE_W)
    solve_sar_min(channel, targets, model, SolverConfig())
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        rep = solve_sar_min(channel, targets, model, SolverConfig())
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    retained = sum(d.size_diff for d in after.compare_to(before, "filename"))
    assert rep.outer_iterations > 100 and len(rep.inner_objective_trace) > 1000
    assert retained <= 50 * 1024, retained
