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


def test_inner_loop_converged_state_exits_quickly(paper_channel):
    cfg = fast_config()
    model = paper_sar_matrix()
    targets = SinrTargets.uniform(4, 1.0 / NOISE_W)
    rep = solve_sar_min(paper_channel, targets, model, cfg)
    # feeding the solution back in: single extra sweep, immediate exit
    trace = []
    P, Z, pos, Hbar, sweeps = inner_loop(
        paper_channel, rep.layout, rep.precoder, rep.aux, model, targets,
        rep.final_mu, cfg, trace=trace)
    assert sweeps <= 2
    assert_monotone(trace)


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
    # inner_loop fills a caller's dict the way it fills a trace list
    counts = {}
    inner_loop(paper_channel, uniform_line_layout(4, Region(1.0, WAVELENGTH)), rep.precoder,
               rep.aux, model, targets, fast_config().mu0, fast_config(), counts=counts)
    assert sum(counts.values()) > 0 and set(counts) <= {"free", "qp", "stuck", "backtrack"}
    fixed = solve_sar_min(paper_channel, targets, model, fast_config(optimize_positions=False))
    assert fixed.position_steps == {"free": 0, "qp": 0, "stuck": 0, "backtrack": 0}


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


@pytest.mark.parametrize("recover", [False, True])
@pytest.mark.parametrize("positions", [True, False])
def test_inner_loop_scores_sar_once_per_sweep(paper_channel, monkeypatch, recover, positions):
    # only the precoder block and degenerate-user recovery change P, so one
    # SAR value serves every objective of a sweep
    calls = []
    sar_value_ = solver.sar_value
    monkeypatch.setattr(solver, "sar_value", lambda P, m: calls.append(1) or sar_value_(P, m))
    layout, P, Z, model, targets = inner_loop_start(paper_channel, recover)
    trace = []
    cfg = fast_config(optimize_positions=positions)
    *_, sweeps = inner_loop(paper_channel, layout, P, Z, model, targets, cfg.mu0, cfg,
                            trace=trace)
    recoveries = sum(label == "recovered" for _, label, _ in trace)
    assert sweeps > 1 and recoveries == recover
    assert len(calls) == sweeps + recoveries


def test_traces_read_back_as_appended(paper_channel):
    layout, P, Z, model, targets = inner_loop_start(paper_channel, True)
    cfg = fast_config()
    rows, compact = [], _ObjectiveTrace()
    for trace in (rows, compact):
        inner_loop(paper_channel, layout, P, Z, model, targets, cfg.mu0, cfg, trace=trace,
                   outer_index=7)
    assert rows[1] == (7, "recovered", None) and len(rows) > 4
    assert list(compact) == rows and len(compact) == len(rows)
    assert [compact[i] for i in range(-len(rows), len(rows))] == rows + rows
    outer = _Rows("idddi")
    for row in [(0, 1e-3, 2.5, 1.25, 3), (1, 1.1e-3, 0.1 + 0.2, np.float64(1 / 3), 4)]:
        outer.append(row)
    assert list(outer) == [(0, 1e-3, 2.5, 1.25, 3), (1, 1.1e-3, 0.1 + 0.2, 1 / 3, 4)]


def test_paper_config_report_is_small(paper_channel):
    # a paper-config report holds about 250 outer and 1,900 inner trace
    # rows; typed arrays keep them at a few bytes a row
    model = paper_sar_matrix()
    targets = SinrTargets.uniform(4, 1.0 / NOISE_W)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        rep = solve_sar_min(paper_channel, targets, model, SolverConfig())
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    retained = sum(d.size_diff for d in after.compare_to(before, "filename"))
    assert rep.outer_iterations > 100 and len(rep.inner_objective_trace) > 1000
    assert retained <= 50 * 1024, retained
