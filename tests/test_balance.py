import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fluidsar import balance
from fluidsar.balance import (
    MAX_DESCENTS,
    MAX_EXPANSIONS,
    BalanceConfig,
    BalanceResult,
    default_upper_bracket,
    solve_sinr_balance,
)
from fluidsar.channel import (
    ChannelRealization,
    ConfigurationError,
    Region,
    channel_matrix,
    sample_channel,
    uniform_line_layout,
)
from fluidsar.exposure import SarModel, paper_sar_matrix, synthesize_sar_matrix
from fluidsar.solver import SinrTargets, SolveReport, SolverConfig, solve_sar_min

from conftest import NOISE_W, WAVELENGTH, fast_config


def desk_channel(seed, k=2, paths=4):
    return sample_channel(seed, 2, k, paths, NOISE_W)


DESK_MODEL = synthesize_sar_matrix(2, budget=1.6)


def test_upper_bracket_scalar_case():
    # M=K=1: beta_u = 4 Q0 |h|^2 / (r sigma^2 gamma)
    real = sample_channel(5, 1, 1, 3, NOISE_W)
    model = synthesize_sar_matrix(1, budget=0.9)
    layout = np.zeros((1, 2))
    h = channel_matrix(layout, real, WAVELENGTH)[0]
    got = default_upper_bracket(real, model, np.ones(1), layout, WAVELENGTH)
    expected = 4.0 * 0.9 * abs(h[0]) ** 2 / (1.6 * NOISE_W)
    assert got == pytest.approx(expected, rel=1e-12)


def test_upper_bracket_never_exits_top(paper_channel):
    # empirical audit on random desk instances: the bracket probe is over budget
    cfg = fast_config()
    for seed in range(8):
        real = desk_channel(seed)
        res = solve_sinr_balance(real, DESK_MODEL, BalanceConfig(accuracy=1e11), cfg)
        bracket_rows = [row for row in res.ladder if row[0] == "bracket"]
        assert not bracket_rows[-1][3]  # final bracket probe infeasible
        assert "bracket_exhausted" not in res.warnings


def test_bisection_iteration_count_and_width():
    real = desk_channel(3)
    cfg = fast_config()
    eps = 1e11
    res = solve_sinr_balance(real, DESK_MODEL, BalanceConfig(accuracy=eps), cfg)
    # effective bracket once the expansion phase settles: the last feasible
    # bracket probe (or 0) up to the first infeasible one
    bracket_rows = [row for row in res.ladder if row[0] == "bracket"]
    hi_eff = bracket_rows[-1][1]
    lo_eff = bracket_rows[-2][1] if len(bracket_rows) > 1 else 0.0
    n = math.ceil(math.log2((hi_eff - lo_eff) / eps))
    betas = [row[1] for row in res.ladder if row[0] == "bisect"]
    assert len(betas) == res.probes["bisect"]
    assert 0 < len(betas) < n
    # every probe sits on the grid of bisection down to eps
    for beta in betas:
        k = (beta - lo_eff) / (hi_eff - lo_eff) * 2 ** n
        assert abs(k - round(k)) < 1e-6
    # and the answer's cell is no wider than eps
    above = min(row[1] for row in res.ladder if row[1] > res.beta_star)
    assert not any(row[3] for row in res.ladder if row[1] == above)
    assert 0 < above - res.beta_star <= eps


def test_bisection_invariant_feasible_below_infeasible_above():
    real = desk_channel(7)
    res = solve_sinr_balance(real, DESK_MODEL, BalanceConfig(accuracy=1e11),
                             fast_config())
    feas = [b for _, b, _, ok, _ in res.ladder if ok]
    infeas = [b for _, b, _, ok, _ in res.ladder if not ok]
    assert res.beta_star == max(feas) if feas else res.beta_star == 0.0
    if feas and infeas:
        assert max(feas) <= min(infeas)
    assert "non_monotone_ladder" not in res.warnings


def test_every_ladder_fits_below_where_it_fails(monkeypatch):
    # each probe lies below every failing probe before it, so in every ladder
    # each fitting probe lies below every failing one: the FAS, APS (each
    # start's ladder, an outbid one included) and FPA balances of acceptance
    # channels at the benchmark's two balance points
    from fluidsar import baselines
    from fluidsar.harness import derive_seed
    from test_acceptance import EXPERIMENT_SOLVER

    results = []
    search = baselines.solve_sinr_balance
    monkeypatch.setattr(baselines, "solve_sinr_balance",
                        lambda *a, **kw: results.append(search(*a, **kw)) or results[-1])
    for trial in (0, 1, 2, 4):
        real = sample_channel(derive_seed(909, trial), 4, 4, 15, NOISE_W)
        for q0, half_width in ((1.6, 3.0), (0.1, 1.0)):
            model = paper_sar_matrix(budget=q0)
            cfg = SolverConfig(region=Region(half_width, WAVELENGTH), **EXPERIMENT_SOLVER)
            bal = BalanceConfig(accuracy=1e13, bracket=(0.0, 1e15 * q0 / 1.6))
            results.append(solve_sinr_balance(real, model, bal, cfg))
            baselines.solve_aps(real, model, "balance", None, cfg, bal)
            baselines.solve_fpa(real, model, "balance", cfg, bal)
    for res in results:
        fits = [beta for _, beta, _, ok, _ in res.ladder if ok]
        fails = [beta for _, beta, _, ok, _ in res.ladder if not ok]
        assert max(fits, default=-math.inf) < min(fails, default=math.inf), res.ladder
    # 8 FAS, 16 APS (two starts each) and 8 FPA ladders
    assert len(results) == 32 and all(res.ladder for res in results)
    assert any("outbid" in res.warnings for res in results)


def test_balance_solution_within_budget_and_attains_target():
    real = desk_channel(9)
    res = solve_sinr_balance(real, DESK_MODEL, BalanceConfig(accuracy=1e11),
                             fast_config())
    assert res.sar <= DESK_MODEL.budget + 1e-9
    H = channel_matrix(res.layout, real, WAVELENGTH)
    from fluidsar.channel import sinr_all
    sinrs = sinr_all(res.precoder, H, NOISE_W)
    assert np.min(sinrs) >= res.beta_star * (1 - 1e-5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_balance_config_refuses_settings_that_are_not_finite(bad):
    # accuracy=nan used to build and return beta* = 2.5e14 on channel seed 1
    with pytest.raises(ConfigurationError, match="accuracy must be a finite"):
        BalanceConfig(accuracy=bad)
    for bracket in ((0.0, bad), (bad, 1e15)):
        with pytest.raises(ConfigurationError, match="bracket"):
            BalanceConfig(accuracy=1e13, bracket=bracket)
    # weights take the targets' rule, 1-D, finite and positive; a NaN weight
    # used to build and fail only at the first probe's targets
    for weights in ([1, bad, 1, 1], [1, 1, 1, 0], [[1, 1], [1, 1]]):
        with pytest.raises(ConfigurationError, match="weights"):
            BalanceConfig(accuracy=1e13, weights=weights)


def test_balance_refuses_weights_of_another_user_count(monkeypatch):
    # three weights for two users used to fail in numpy's broadcasting, inside
    # the upper bracket; the balance refuses them before any probe
    def no_solve(*args, **kwargs):
        raise AssertionError("a probe ran on weights of the wrong count")
    monkeypatch.setattr(balance, "solve_sar_min", no_solve)
    with pytest.raises(ConfigurationError, match="weights and channel disagree"):
        solve_sinr_balance(desk_channel(1), DESK_MODEL,
                           BalanceConfig(accuracy=1e10, weights=[1.0, 1.0, 1.0]), fast_config())


def test_zero_budget_returns_zero():
    real = desk_channel(1)
    model = synthesize_sar_matrix(2, budget=1e-9)
    res = solve_sinr_balance(real, model, BalanceConfig(accuracy=1e10), fast_config())
    # vanishing budget: no meaningful SINR attainable
    assert res.beta_star <= 1e-9 * (1.0 / NOISE_W)


def test_fixed_layout_balance_never_refactors_the_sar_matrix(monkeypatch):
    calls = {"eigvalsh": 0, "cholesky": 0}

    def counted(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper
    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    model = synthesize_sar_matrix(2, budget=1.6)
    built = dict(calls)
    calls.update(eigvalsh=0, cholesky=0)
    res = solve_sinr_balance(desk_channel(1), model, BalanceConfig(accuracy=1e11),
                             fast_config(optimize_positions=False))
    assert res.beta_star > 0 and len(res.ladder) > 1
    assert calls == {"eigvalsh": 0, "cholesky": 0}
    assert built == {"eigvalsh": 1, "cholesky": 1}  # the model's own check


def test_budget_monotonicity():
    # larger budgets enlarge the feasible set
    cfg = fast_config()
    for seed in (2, 4):
        real = desk_channel(seed)
        low = solve_sinr_balance(real, synthesize_sar_matrix(2, budget=0.4),
                                 BalanceConfig(accuracy=1e11), cfg)
        high = solve_sinr_balance(real, synthesize_sar_matrix(2, budget=1.6),
                                  BalanceConfig(accuracy=1e11), cfg)
        assert high.beta_star >= low.beta_star - 1e11


def test_lemma_roundtrip_desk_scale():
    # beta0 -> min exposure Q -> balance at budget Q -> beta close to beta0.
    # Cold probes with positions fixed so both directions evaluate the same
    # deterministic map (free positions hop between local basins).
    cfg = fast_config(optimize_positions=False)
    failures = 0
    trials = 6
    for seed in range(trials):
        real = desk_channel(100 + seed)
        beta0 = (0.5 + 0.2 * seed) / NOISE_W
        fwd = solve_sar_min(real, SinrTargets.uniform(2, beta0), DESK_MODEL, cfg)
        assert fwd.converged
        q = fwd.sar
        eps1 = 5e-4 * beta0
        model_q = synthesize_sar_matrix(2, budget=q)
        back = solve_sinr_balance(real, model_q, BalanceConfig(accuracy=eps1), cfg)
        if abs(back.beta_star - beta0) > 2 * eps1:
            failures += 1
    assert failures == 0


def test_silent_user_balances_to_zero():
    # no probe can serve a user whose path gains are zero: the balance is
    # target 0, found without probing
    from test_solver import channel_with_a_silent_user
    res = solve_sinr_balance(channel_with_a_silent_user(), paper_sar_matrix(),
                             BalanceConfig(accuracy=1e13, bracket=(0.0, 1e15)))
    assert res.beta_star == 0.0
    assert res.warnings == ["no_feasible_probe"]
    assert res.ladder == [] and res.probes == {"bracket": 0, "bisect": 0, "descend": 0}


def test_fixed_layout_balance_exhausts_a_low_bracket():
    # every doubling of a bracket end far below the answer fits the budget:
    # after MAX_EXPANSIONS doublings the last end is returned, flagged
    res = solve_sinr_balance(sample_channel(1, 4, 4, 15, NOISE_W), paper_sar_matrix(),
                             BalanceConfig(accuracy=1e9, bracket=(0.0, 1e10)),
                             SolverConfig(optimize_positions=False))
    assert res.beta_star == 1e10 * 2 ** MAX_EXPANSIONS == 8e10
    assert res.warnings == ["bracket_exhausted"]
    assert res.probes == {"bracket": MAX_EXPANSIONS + 1, "bisect": 0, "descend": 0}
    assert res.sar <= res.budget


def test_balance_is_deterministic():
    real = desk_channel(21)
    cfg = fast_config()
    a = solve_sinr_balance(real, DESK_MODEL, BalanceConfig(accuracy=1e11), cfg)
    b = solve_sinr_balance(real, DESK_MODEL, BalanceConfig(accuracy=1e11), cfg)
    assert a.beta_star == b.beta_star
    assert np.array_equal(a.precoder, b.precoder)
    assert np.array_equal(a.layout, b.layout)


def test_descent_when_no_bisection_probe_fits():
    # an accuracy of 0.6x the bracket leaves room for one bisection probe at
    # half the bracket, which is over budget: the solver must descend below it
    # rather than fall back to a zero target
    real = desk_channel(3)
    cfg = fast_config()
    layout = uniform_line_layout(2, cfg.region)
    hi = default_upper_bracket(real, DESK_MODEL, np.ones(2), layout, WAVELENGTH)
    eps = 0.6 * hi
    res = solve_sinr_balance(real, DESK_MODEL, BalanceConfig(accuracy=eps), cfg)
    bisect_rows = [row for row in res.ladder if row[0] == "bisect"]
    assert bisect_rows and not any(row[3] for row in bisect_rows)
    # the answer is a descent probe, on the halvings of the bisection probe,
    # and the halving above it was probed and is over budget
    descend_rows = [row for row in res.ladder if row[0] == "descend"]
    assert (res.beta_star, True) in [(row[1], row[3]) for row in descend_rows]
    h = bisect_rows[-1][1]
    assert all(math.log2(h / row[1]) == round(math.log2(h / row[1])) >= 1
               for row in descend_rows)
    assert res.beta_star > 0
    assert "no_feasible_probe" not in res.warnings
    # the lowest infeasible probe is twice the answer: bracket width below eps
    lowest_infeasible = min(row[1] for row in res.ladder if not row[3])
    assert lowest_infeasible == 2 * res.beta_star
    assert lowest_infeasible - res.beta_star <= eps
    assert res.sar <= DESK_MODEL.budget + 1e-9
    from fluidsar.channel import sinr_all
    sinrs = sinr_all(res.precoder, channel_matrix(res.layout, real, WAVELENGTH), NOISE_W)
    assert np.min(sinrs) >= res.beta_star * (1 - 1e-5)


def test_no_feasible_probe_is_flagged(monkeypatch):
    # with the descent disabled nothing fits; the trivial fallback is not silent
    monkeypatch.setattr(balance, "MAX_DESCENTS", 0)
    real = desk_channel(3)
    cfg = fast_config()
    layout = uniform_line_layout(2, cfg.region)
    hi = default_upper_bracket(real, DESK_MODEL, np.ones(2), layout, WAVELENGTH)
    res = solve_sinr_balance(real, DESK_MODEL, BalanceConfig(accuracy=0.6 * hi), cfg)
    assert "no_feasible_probe" in res.warnings
    assert res.beta_star == 0.0
    assert not any(row[0] == "descend" for row in res.ladder)


def test_descent_below_refuted_lower_bracket_end():
    # a bracket whose lower end is over budget: the descent goes below it to
    # a halving b that fits, with 2b over budget, and the search resumes in
    # [b, 2b], so the answer fits the budget and the final gap to the lowest
    # infeasible probe is within the accuracy
    real = desk_channel(3)
    eps = 1e13
    res = solve_sinr_balance(real, DESK_MODEL,
                             BalanceConfig(accuracy=eps, bracket=(4e14, 6e15)),
                             fast_config())
    b = max(row[1] for row in res.ladder if row[0] == "descend" and row[3])
    assert any(row[1] == 2 * b and not row[3] for row in res.ladder)
    assert b <= res.beta_star < 2 * b
    assert 0 < res.beta_star < 4e14
    assert res.sar <= DESK_MODEL.budget + 1e-9
    lowest_infeasible = min(row[1] for row in res.ladder if not row[3])
    assert 0 < lowest_infeasible - res.beta_star <= eps
    assert "no_feasible_probe" not in res.warnings


# ------------------------------------------------------------------ ladder
# The probe ladder against the bisection it replaced, on stubbed probes:
# SAR(beta) = c beta^s is monotone, so both ladders must return the same
# target, and the new one must need far fewer probes.

class StubReport:
    """The fields of a SolveReport that the ladder reads."""

    def __init__(self, beta0, sar, converged=True):
        self.sar = sar
        self.converged = self.feasible = converged
        self.precoder = np.full((2, 2), beta0, dtype=complex)
        self.layout = np.zeros((2, 2))
        self.final_mu = 1.0
        self.warnings = []
        self.config = {"beta0": beta0}


def power_law(c, s):
    def stub(realization, targets, model, cfg, initial_layout=None, initial_precoder=None):
        return StubReport(targets.beta0, c * targets.beta0 ** s)
    return stub


def ladder_cases():
    """(c, s, BalanceConfig) cases: default and user brackets, roots inside,
    above (expansion) and below (refuted lower end, descent) the bracket."""
    rng = np.random.default_rng(61)
    real = desk_channel(3)
    layout = uniform_line_layout(2, Region(1.0, WAVELENGTH))
    hi = default_upper_bracket(real, DESK_MODEL, np.ones(2), layout, WAVELENGTH)
    cases = []
    for n in range(320):
        s = rng.uniform(1.0, 3.0)
        kind = n % 4
        if kind == 0:    # default bracket, root inside or up to 3 doublings above
            root = hi * 10.0 ** rng.uniform(-3.0, 0.9)
            cfg = BalanceConfig(accuracy=hi / rng.uniform(20.0, 2000.0))
        elif kind == 1:  # user bracket with a positive lower end holding the root
            lo = hi * 10.0 ** rng.uniform(-3.0, -1.0)
            root = lo * 10.0 ** rng.uniform(0.0, 1.0)
            cfg = BalanceConfig(accuracy=(hi - lo) / rng.uniform(20.0, 2000.0),
                                bracket=(lo, hi))
        elif kind == 2:  # refuted lower end: the root lies below the bracket
            lo = hi * 10.0 ** rng.uniform(-2.0, -1.0)
            root = lo * 10.0 ** rng.uniform(-3.0, -0.01)
            cfg = BalanceConfig(accuracy=lo * 10.0 ** rng.uniform(-3.0, -0.5),
                                bracket=(lo, hi))
        else:            # coarse accuracy from 0: the descent finds the answer
            root = hi * 10.0 ** rng.uniform(-5.0, -1.0)
            cfg = BalanceConfig(accuracy=hi * rng.uniform(0.05, 0.5))
        cases.append((DESK_MODEL.budget / root ** s, s, cfg))
    return real, cases


def test_ladder_matches_bisection_with_fewer_probes(monkeypatch):
    real, cases = ladder_cases()
    cfg = fast_config()
    probes = {"parent": 0, "new": 0}
    phases = set()
    for c, s, bal in cases:
        stub = power_law(c, s)
        monkeypatch.setattr(balance, "solve_sar_min", stub)
        monkeypatch.setitem(globals(), "solve_sar_min", stub)
        old = parent_solve_sinr_balance(real, DESK_MODEL, bal, cfg)
        new = solve_sinr_balance(real, DESK_MODEL, bal, cfg)
        assert new.beta_star == old.beta_star, (c, s, bal)
        assert new.warnings == old.warnings, (c, s, bal)
        assert np.array_equal(new.precoder, old.precoder)
        probes["parent"] += len(old.ladder)
        probes["new"] += len(new.ladder)
        phases.update(row[0] for row in new.ladder)
        assert len([r for r in new.ladder if r[0] == "descend"]) <= balance.MAX_DESCENTS
    assert phases == {"bracket", "bisect", "descend"}
    assert probes["new"] <= 0.65 * probes["parent"], probes



def test_fixed_layout_cold_ladder_matches_bisection():
    # cold probes at a fixed layout are a deterministic map of the target, so
    # the ladder must end on the probe bisection ends on, to the last bit
    cfg = fast_config(optimize_positions=False)
    cases = ((3, BalanceConfig(accuracy=1e11)),
             (7, BalanceConfig(accuracy=1e13, bracket=(4e14, 6e15))),
             (9, BalanceConfig(accuracy=2e15)))
    phases = set()
    for seed, bal in cases:
        real = desk_channel(seed)
        old = parent_solve_sinr_balance(real, DESK_MODEL, bal, cfg)
        new = solve_sinr_balance(real, DESK_MODEL, bal, cfg)
        assert new.beta_star == old.beta_star > 0, seed
        assert np.array_equal(new.precoder, old.precoder), seed
        assert new.sar == old.sar and new.warnings == old.warnings, seed
        assert len(new.ladder) < len(old.ladder), seed
        phases.update(row[0] for row in new.ladder)
    assert "descend" in phases


def test_non_monotone_sar_is_flagged(monkeypatch):
    # feasibility is monotone in the target, but the SAR falls from 9x to 2x
    # the budget at 3e14: a converged probe reads a lower SAR than one below it
    budget = DESK_MODEL.budget

    def stub(realization, targets, model, cfg, initial_layout=None, initial_precoder=None):
        beta = targets.beta0
        return StubReport(beta, budget * (beta / 1e14) ** 2 if beta < 3e14 else 2 * budget)
    monkeypatch.setattr(balance, "solve_sar_min", stub)
    res = solve_sinr_balance(desk_channel(3), DESK_MODEL,
                             BalanceConfig(accuracy=1e12, bracket=(0.0, 1e15)), fast_config())
    assert res.beta_star <= 1e14 < res.beta_star + 1e12
    assert "non_monotone_ladder" in res.warnings
    # the same curve without the fall is not flagged
    monkeypatch.setattr(balance, "solve_sar_min", power_law(budget / 1e28, 2.0))
    res = solve_sinr_balance(desk_channel(3), DESK_MODEL,
                             BalanceConfig(accuracy=1e12, bracket=(0.0, 1e15)), fast_config())
    assert "non_monotone_ladder" not in res.warnings


def test_ladder_stops_at_float_resolution(monkeypatch):
    # an accuracy below the float spacing of the targets (the CLI's default
    # 1e-4 at beta ~ 1e14) must not make the ladder probe one target again
    monkeypatch.setattr(balance, "solve_sar_min", power_law(DESK_MODEL.budget / 1e28, 2.0))
    res = solve_sinr_balance(desk_channel(3), DESK_MODEL,
                             BalanceConfig(accuracy=1e-4, bracket=(0.0, 1e15)), fast_config())
    betas = [row[1] for row in res.ladder]
    assert len(betas) == len(set(betas)) and len(betas) < 20, len(betas)
    # the last cell is two float spacings of the bracket's top end wide
    assert 0.0 <= 1e14 - res.beta_star <= 2.0 * math.ulp(1e15)


def test_rounding_dip_is_not_flagged(monkeypatch):
    # probes that fit read the same SAR up to rounding, as in
    # `solve sinr-balance --channel 5 --m 2 --k 2 --paths 3 --sar synth:2`,
    # where two fitting probes differ by 2e-13 relative; that is no
    # non-monotone ladder
    budget = DESK_MODEL.budget

    def stub(realization, targets, model, cfg, initial_layout=None, initial_precoder=None):
        beta = targets.beta0
        if beta >= 1e14:
            return StubReport(beta, 2.0 * budget)
        return StubReport(beta, 0.9 * budget * (1.0 - 2e-13 * (int(beta / 1e12) % 2)))
    monkeypatch.setattr(balance, "solve_sar_min", stub)
    res = solve_sinr_balance(desk_channel(3), DESK_MODEL,
                             BalanceConfig(accuracy=1e10, bracket=(0.0, 1e15)), fast_config())
    sars = [sar for _, _, sar, _, converged in sorted(res.ladder, key=lambda row: row[1])
            if converged]
    assert sars != sorted(sars)  # the ladder does read a dip
    assert "non_monotone_ladder" not in res.warnings


# The balance solver as it was before the Illinois ladder, verbatim: blind
# bisection of the bracket, then halving below the lowest infeasible probe.
def parent_solve_sinr_balance(realization: ChannelRealization, model: SarModel,
                       config: BalanceConfig | None = None,
                       solver_config: SolverConfig | None = None,
                       initial_layout: np.ndarray | None = None) -> BalanceResult:
    """Bisection on the SINR target; each probe is one exposure-min solve.

    Returns the largest probed target whose minimal exposure fits the budget.
    If no bisection probe fits, up to ``MAX_DESCENTS`` further probes halve the
    target below the lowest infeasible one (ladder phase ``"descend"``) until one
    fits, and bisection resumes above it when the gap to the infeasible probe
    exceeds the accuracy. If none fits, the result is the trivial solution at
    target 0 with the warning ``no_feasible_probe``.
    """
    t0 = time.perf_counter()
    config = config or BalanceConfig()
    solver_config = solver_config or SolverConfig()
    K = realization.num_users
    weights = np.ones(K) if config.weights is None else np.asarray(config.weights, dtype=float)
    budget = model.budget
    warnings: list[str] = []

    layout0 = uniform_line_layout(model.n_antennas, solver_config.region) \
        if initial_layout is None else np.array(initial_layout, dtype=float)

    ladder: list[tuple] = []
    best: SolveReport | None = None
    best_beta = 0.0
    # changed: probes warm-start by the solver config, as solve_sinr_balance's do
    warm_probes = solver_config.optimize_positions and not solver_config.lattice
    warm: SolveReport | None = None
    warm_beta = 0.0

    def probe(beta0: float, phase: str):
        nonlocal warm, warm_beta
        cfg = solver_config
        kwargs: dict = {"initial_layout": layout0}
        if warm is not None and warm_beta > 0 and beta0 > 0:
            # power-match the warm precoder to the new target scale, otherwise a
            # large restart penalty pins the probe at the previous power level
            kwargs = {
                "initial_layout": warm.layout,
                "initial_precoder": warm.precoder * np.sqrt(beta0 / warm_beta),
            }
            if warm.final_mu > solver_config.mu0:
                cfg = replace(solver_config, mu0=warm.final_mu)
        rep = solve_sar_min(realization, SinrTargets(weights, beta0), model, cfg, **kwargs)
        ok = rep.converged and rep.feasible and rep.sar <= budget
        ladder.append((phase, beta0, rep.sar, bool(ok), bool(rep.converged)))
        if warm_probes:
            warm = rep if rep.converged else None
            warm_beta = beta0
        return rep, ok

    if budget <= 0:
        # changed: no iterations field
        return BalanceResult(0.0, np.zeros((model.n_antennas, K), dtype=complex), layout0,
                             0.0, budget, None, ladder, ["zero_budget"],
                             time.perf_counter() - t0)

    if config.bracket is not None:
        beta_lo, beta_hi = config.bracket
    else:
        beta_lo = 0.0
        beta_hi = default_upper_bracket(realization, model, weights, layout0,
                                        solver_config.wavelength)

    rep, ok = probe(beta_hi, "bracket")
    expansions = 0
    while ok and expansions < MAX_EXPANSIONS:
        best, best_beta, beta_lo = rep, beta_hi, beta_hi
        beta_hi *= 2.0
        expansions += 1
        rep, ok = probe(beta_hi, "bracket")
    if ok:
        warnings.append("bracket_exhausted")
        return BalanceResult(beta_hi, rep.precoder, rep.layout, rep.sar, budget, rep,
                             ladder, warnings, time.perf_counter() - t0)  # changed, as above

    iterations = 0
    descents = 0
    while True:
        while beta_hi - beta_lo > config.accuracy:
            beta0 = 0.5 * (beta_lo + beta_hi)
            rep, ok = probe(beta0, "bisect")
            iterations += 1
            if ok:
                beta_lo = beta0
                best, best_beta = rep, beta0
            else:
                beta_hi = beta0
        if best is not None or descents == MAX_DESCENTS:
            break
        # the bracket closed before any probe fit the budget, which refutes
        # its lower end: halve below the lowest infeasible probe. Once a probe
        # b fits, the loop bisects what is left of [b, 2b]; from a bracket that
        # starts at 0 that is already narrower than the accuracy.
        beta_lo = 0.0
        beta0 = 0.5 * beta_hi
        rep, ok = probe(beta0, "descend")
        descents += 1
        if ok:
            beta_lo = beta0
            best, best_beta = rep, beta0
        else:
            beta_hi = beta0

    if best is None:
        # nothing fit even after the descent; emit the trivial solution
        warnings.append("no_feasible_probe")
        best = solve_sar_min(realization, SinrTargets(weights, 0.0), model,
                             solver_config, initial_layout=layout0)
        best_beta = 0.0

    # a feasible probe above an infeasible one means the probe curve was not
    # monotone in beta0; surface it rather than assume it away
    feas = [(b, ok) for _, b, _, ok, _ in ladder]
    worst_feasible = max((b for b, ok in feas if ok), default=None)
    best_infeasible = min((b for b, ok in feas if not ok), default=None)
    if worst_feasible is not None and best_infeasible is not None \
            and worst_feasible > best_infeasible:
        warnings.append("non_monotone_ladder")

    return BalanceResult(best_beta, best.precoder, best.layout, best.sar, budget,
                         best, ladder, warnings, time.perf_counter() - t0)  # changed, as above
