"""The benchmark's workloads: their inputs, their operations and the checks
made on every output.

Every workload runs a fixed set of operations per round on channels drawn as
the acceptance sweeps draw them, ``derive_seed(master_seed, trial)`` with the
master seed 909 by default. The set does not depend on the run's seed, so the
operations that fail do not either; the seed only shuffles the order in which
a round runs its tasks.

The program is called through module attributes (``solver.solve_sar_min``,
``harness.run_sweep``), so the tracer's wrappers see every call.
"""
from __future__ import annotations

import json
import math
import statistics

import numpy as np

import oracle
from fluidsar import balance, baselines, harness, solver
from fluidsar.balance import BalanceConfig
from fluidsar.baselines import BaselineConfig
from fluidsar.channel import Region, sample_channel
from fluidsar.exposure import paper_sar_matrix
from fluidsar.harness import ExperimentPlan, derive_seed
from fluidsar.solver import SinrTargets, SolverConfig

NOISE_W = 10.0 ** (-13.5)  # -105 dBm, the acceptance suite's noise power
WAVELENGTH = 0.01
BETA_REF = 1.0 / NOISE_W
M = K = 4
PATHS = 15
# the acceptance suite's sweep settings (tests/test_acceptance.py)
EXPERIMENT_SOLVER = dict(mu0=3e-3, a=0.7, max_outer=100, max_inner=10, max_sca_iter=48,
                         eps_inner_rel=3e-4, eps_position_rel=3e-5)
ACCURACY = 1e13
BRACKET = 1e15          # quoted at Q0 = 1.6 and scaled with the budget
POWER_BUDGET = 2.0

SAR_RTOL = 1e-4         # solve_sar_min sits 5e-6..1e-5 above the fixed-layout optimum
SINR_RTOL = 1e-5 + 1e-9  # the solver's feasibility slack, plus rounding
EXACT_RTOL = 1e-9       # quantities the program and the oracle compute alike


class Checks:
    """Collects independent-check errors and line-array optima for one run.

    Optima are cached by their inputs: every round repeats the same channels.
    """

    def __init__(self):
        self.errors: list[str] = []
        self._line: dict = {}

    def fail(self, label: str, msg: str):
        self.errors.append(f"{label}: {msg}")

    def layout(self, label, layout, half_width):
        pts = np.asarray(layout, dtype=float)
        if pts.shape != (M, 2):
            self.fail(label, f"layout shape {pts.shape}")
            return
        if oracle.min_spacing(pts) < WAVELENGTH / 2.0 * (1.0 - EXACT_RTOL):
            self.fail(label, f"spacing {oracle.min_spacing(pts):.6g} m below lambda/2")
        if np.abs(pts).max() > half_width * WAVELENGTH * (1.0 + EXACT_RTOL):
            self.fail(label, "antenna outside the region")

    def solution(self, label, paths, layout, precoder, R, target, budget=None,
                 reported_sar=None):
        """SINR floor, recomputed SAR and budget of one emitted design;
        returns the channel at its layout."""
        H = oracle.channel(layout, paths, WAVELENGTH)
        s = oracle.sinrs(H, precoder, NOISE_W)
        if target > 0 and s.min() < target * (1.0 - SINR_RTOL):
            self.fail(label, f"min SINR {s.min():.6e} below target {target:.6e}")
        q = oracle.sar(precoder, R)
        if reported_sar is not None and abs(q - reported_sar) > EXACT_RTOL * max(q, 1e-300):
            self.fail(label, f"reported SAR {reported_sar!r} but recomputed {q!r}")
        if budget is not None and q > budget * (1.0 + EXACT_RTOL):
            self.fail(label, f"SAR {q:.6e} above budget {budget}")
        return H

    def line_optimum(self, paths, R, key, target=None, budget=None):
        """Exact SAR at ``target`` (or the max-min target at ``budget``) of the
        half-wavelength line array."""
        key = (key, target, budget)
        if key not in self._line:
            H = oracle.channel(oracle.line_array(M, WAVELENGTH), paths, WAVELENGTH)
            opt = oracle.FixedLayoutOptimum(H, R, NOISE_W)
            self._line[key] = opt.sar_at(np.full(K, target)) if budget is None \
                else opt.max_min_target(budget, np.ones(K))
        return self._line[key]


class SarMinRef:
    """solve_sar_min at the paper settings on the 40 acceptance channels of
    the exposure sweeps."""

    name = "sarmin-ref"
    harness_pool = False
    CHANNELS = 40

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self.seeds = [derive_seed(master_seed, i) for i in range(self.CHANNELS)]
        self.channels = [sample_channel(s, M, K, PATHS, NOISE_W) for s in self.seeds]
        self.model = paper_sar_matrix()
        self.config = SolverConfig()
        self.targets = SinrTargets.uniform(K, BETA_REF)
        self.tasks = list(range(self.CHANNELS))

    def run(self, task):
        return [solver.solve_sar_min(self.channels[task], self.targets, self.model, self.config)]

    def label(self, task):
        return f"channel {task} (seed {self.seeds[task]})"

    def verdicts(self, task, outputs, checks):
        rep, label, ch, R = outputs[0], self.label(task), self.channels[task], self.model.matrix
        H = checks.solution(label, ch.paths, rep.layout, rep.precoder, R, BETA_REF,
                            reported_sar=rep.sar)
        checks.layout(label, rep.layout, self.config.region.half_width)
        own = oracle.FixedLayoutOptimum(H, R, NOISE_W).sar_at(np.full(K, BETA_REF))
        if abs(rep.sar - own) > SAR_RTOL * own:
            checks.fail(label, f"SAR {rep.sar:.8g} vs optimum {own:.8g} at its own layout")
        if not (rep.converged and rep.feasible):
            return [f"not converged ({rep.status})"]
        line = checks.line_optimum(ch.paths, R, (self.seeds[task], PATHS), target=BETA_REF)
        if rep.sar > line * (1.0 + SAR_RTOL):
            return [f"FAS SAR {rep.sar:.6g} above the line-array optimum {line:.6g}"]
        return [None]

    def fas_values(self, task, outputs):
        rep = outputs[0]
        return [rep.sar], [rep.beta_achieved * NOISE_W]

    def fingerprint(self, task, outputs):
        rep = outputs[0]
        return rep.sar, rep.precoder.tobytes(), rep.layout.tobytes()


class BalanceTrial:
    """One channel at one (budget, region) point through every balance scheme:
    FAS, lattice APS, the line array and power-only design with backoff."""

    name = "balance-trial"
    harness_pool = False
    TRIALS = (0, 1, 2, 4)              # trial 4 needs the descend phase at Q0 = 0.1
    POINTS = ((1.6, 3.0), (0.1, 1.0))  # (Q0 in W/kg, region half-width in wavelengths)

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self.seeds = {t: derive_seed(master_seed, t) for t in self.TRIALS}
        self.channels = {t: sample_channel(s, M, K, PATHS, NOISE_W)
                         for t, s in self.seeds.items()}
        self.models = [paper_sar_matrix(budget=q0) for q0, _ in self.POINTS]
        self.configs = [SolverConfig(region=Region(hw, WAVELENGTH), **EXPERIMENT_SOLVER)
                        for _, hw in self.POINTS]
        self.balance_configs = [BalanceConfig(accuracy=ACCURACY,
                                              bracket=(0.0, BRACKET * q0 / 1.6))
                                for q0, _ in self.POINTS]
        # the power-only design is budgeted in watts: its bracket is unscaled
        self.nosar_config = BalanceConfig(accuracy=ACCURACY, bracket=(0.0, BRACKET))
        self.tasks = [(t, p) for t in self.TRIALS for p in range(len(self.POINTS))]

    def label(self, task):
        t, p = task
        q0, hw = self.POINTS[p]
        return f"trial {t} (seed {self.seeds[t]}) at Q0={q0}, {hw} wavelengths"

    def run(self, task):
        t, p = task
        ch, model, cfg, bc = self.channels[t], self.models[p], self.configs[p], \
            self.balance_configs[p]
        base = BaselineConfig(power_budget=POWER_BUDGET, aps_cap=8, aps_seed=self.seeds[t])
        fas = balance.solve_sinr_balance(ch, model, bc, cfg)
        aps = baselines.solve_aps(ch, model, "balance", base, cfg, bc, method="alternating")
        fpa = baselines.solve_fpa(ch, model, "balance", cfg, bc)
        nosar = baselines.solve_without_sar(ch, M, base, cfg, self.nosar_config)
        backoff = baselines.adaptive_backoff(ch, model, base, cfg, bc, unconstrained=nosar)
        return [dict(fas=fas, aps=aps, fpa=fpa, nosar=nosar, backoff=backoff)]

    def verdicts(self, task, outputs, checks):
        t, p = task
        out = outputs[0]
        q0, hw = self.POINTS[p]
        ch, seed, R = self.channels[t], self.seeds[t], self.models[p].matrix
        label = self.label(task)
        reasons = []
        for scheme in ("fas", "fpa", "nosar"):
            if "no_feasible_probe" in out[scheme].warnings:
                reasons.append(f"{scheme}: no feasible probe")
        if "no_feasible_probe" in out["aps"].best.warnings:
            reasons.append("aps: no feasible probe")

        fas, aps, fpa = out["fas"], out["aps"], out["fpa"]
        for scheme, beta, res in (("fas", fas.beta_star, fas), ("aps", aps.beta, aps),
                                  ("fpa", fpa.beta_star, fpa)):
            lab = f"{label} {scheme}"
            H = checks.solution(lab, ch.paths, res.layout, res.precoder, R, beta,
                                budget=q0, reported_sar=res.sar)
            checks.layout(lab, res.layout, hw)
            if beta > 0:
                own = oracle.FixedLayoutOptimum(H, R, NOISE_W).max_min_target(q0, np.ones(K))
                if beta > own * (1.0 + SAR_RTOL):
                    checks.fail(lab, f"beta* {beta:.6e} above the optimum {own:.6e} "
                                     "at its own layout")
        line = checks.line_optimum(ch.paths, R, (seed, PATHS), budget=q0)
        if np.abs(fpa.layout - oracle.line_array(M, WAVELENGTH)).max() > 1e-12:
            checks.fail(f"{label} fpa", "layout is not the half-wavelength line array")
        if fpa.beta_star > line * (1.0 + SAR_RTOL) \
                or line - fpa.beta_star > ACCURACY + SAR_RTOL * line:
            checks.fail(f"{label} fpa", f"beta* {fpa.beta_star:.6e} vs line-array "
                                        f"optimum {line:.6e}")
        if fas.beta_star < line - ACCURACY:
            reasons.append(f"FAS beta* {fas.beta_star:.6e} below the line-array "
                           f"optimum {line:.6e}")

        nosar, bo = out["nosar"], out["backoff"]
        lab = f"{label} no-sar"
        checks.solution(lab, ch.paths, nosar.layout, nosar.precoder, np.eye(M),
                        nosar.beta_star, budget=POWER_BUDGET)
        checks.layout(lab, nosar.layout, hw)
        lab = f"{label} backoff"
        H = checks.solution(lab, ch.paths, bo.layout, bo.precoder, R, 0.0, budget=q0,
                            reported_sar=bo.sar)
        beta = oracle.sinrs(H, bo.precoder, NOISE_W).min()
        if abs(beta - bo.beta) > EXACT_RTOL * beta:
            checks.fail(lab, f"reported beta {bo.beta!r} but recomputed {beta!r}")
        return ["; ".join(reasons) if reasons else None]

    def fas_values(self, task, outputs):
        fas = outputs[0]["fas"]
        return [fas.sar], [fas.beta_star * NOISE_W]

    def fingerprint(self, task, outputs):
        return tuple((res.sar, res.precoder.tobytes(), res.layout.tobytes())
                     for res in outputs[0].values())


class AcceptanceMix:
    """The five acceptance plans, axes unchanged, one trial each, through
    run_sweep; an operation is one (point, trial) bundle."""

    name = "acceptance-mix"
    harness_pool = True
    TRIALS = 1

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        common = dict(trials=self.TRIALS, master_seed=master_seed, m=M, k=K, paths=PATHS,
                      noise_variance=NOISE_W, accuracy=ACCURACY, beta_bracket=BRACKET,
                      aps_cap=8, solver=dict(EXPERIMENT_SOLVER))
        specs = {
            "fig4": dict(objective="balance", sweep="q0", values=(0.1, 0.3, 0.9),
                         schemes=("fas", "no-sar", "backoff")),
            "fig5": dict(objective="balance", sweep="half_width", values=(1.0, 2.5, 3.0),
                         schemes=("fas", "aps", "fpa")),
            "fig6_L5": dict(objective="balance", sweep="q0", values=(0.4, 1.6),
                            schemes=("fas", "aps", "fpa"), paths=5),
            "fig7": dict(objective="sar-min", sweep="beta0",
                         values=(0.5 * BETA_REF, BETA_REF, 2 * BETA_REF, 4 * BETA_REF),
                         schemes=("fas", "aps", "fpa"), beta0=BETA_REF),
            "fig8": dict(objective="sar-min", sweep="half_width", values=(1.0, 2.5, 3.0),
                         schemes=("fas", "aps", "fpa"), beta0=BETA_REF),
        }
        self.plans = {name: ExperimentPlan(**{**common, **spec}) for name, spec in specs.items()}
        self.tasks = list(self.plans)
        self.R = paper_sar_matrix().matrix
        self._channels: dict = {}

    def label(self, task):
        return f"plan {task}"

    def run(self, task):
        """One sweep; its bundles are the operations, in row order."""
        record = harness.run_sweep(self.plans[task])
        bundles: dict = {}
        for row in record.rows:
            bundles.setdefault((row["point_index"], row["trial"]), []).append(row)
        return [(record, rows) for rows in bundles.values()]

    def _channel(self, seed, paths):
        if (seed, paths) not in self._channels:
            self._channels[seed, paths] = sample_channel(seed, M, K, paths, NOISE_W)
        return self._channels[seed, paths]

    def verdicts(self, task, outputs, checks):
        plan = self.plans[task]
        self._check_aggregates(task, outputs[0][0], checks)
        return [self._bundle_verdict(plan, rows, checks) for _, rows in outputs]

    def _bundle_verdict(self, plan, rows, checks):
        first = rows[0]
        value = plan.values[first["point_index"]]
        q0, beta0, paths = plan.q0, plan.beta0, plan.paths
        if plan.sweep == "q0":
            q0 = value
        elif plan.sweep == "beta0":
            beta0 = value
        seed = first["seed"]
        ch, R = self._channel(seed, paths), self.R
        label = f"{plan.sweep}={value:.6g} trial {first['trial']} (seed {seed})"
        if seed != derive_seed(plan.master_seed, first["trial"]):
            checks.fail(label, "row seed differs from derive_seed")
        reasons = [f"{r['scheme']} status {r['status']} {r.get('error', '')}".rstrip()
                   for r in rows if r["status"] != "ok"]
        by_scheme = {r["scheme"]: r for r in rows if r["status"] == "ok"}
        if plan.objective == "sar-min":
            line = checks.line_optimum(ch.paths, R, (seed, paths), target=beta0)
            for scheme, r in by_scheme.items():
                if r["beta"] < beta0 * (1.0 - SINR_RTOL):
                    checks.fail(f"{label} {scheme}", f"beta {r['beta']:.6e} below target")
            if "fpa" in by_scheme and abs(by_scheme["fpa"]["sar"] - line) > SAR_RTOL * line:
                checks.fail(f"{label} fpa", f"SAR {by_scheme['fpa']['sar']:.8g} vs "
                                            f"line-array optimum {line:.8g}")
            fas = by_scheme.get("fas")
            if fas is not None and fas["sar"] > line * (1.0 + SAR_RTOL):
                reasons.append(f"FAS SAR {fas['sar']:.6g} above the line-array "
                               f"optimum {line:.6g}")
        else:
            line = checks.line_optimum(ch.paths, R, (seed, paths), budget=q0)
            for scheme, r in by_scheme.items():
                if r.get("sar") is not None and r["sar"] > q0 * (1.0 + EXACT_RTOL):
                    checks.fail(f"{label} {scheme}", f"SAR {r['sar']:.6e} above budget")
            fpa = by_scheme.get("fpa")
            if fpa is not None and (fpa["beta"] > line * (1.0 + SAR_RTOL)
                                    or line - fpa["beta"] > ACCURACY + SAR_RTOL * line):
                checks.fail(f"{label} fpa", f"beta* {fpa['beta']:.6e} vs line-array "
                                            f"optimum {line:.6e}")
            fas = by_scheme.get("fas")
            if fas is not None and fas["beta"] < line - ACCURACY:
                reasons.append(f"FAS beta* {fas['beta']:.6e} below the line-array "
                               f"optimum {line:.6e}")
        return f"{label}: " + "; ".join(reasons) if reasons else None

    @staticmethod
    def _check_aggregates(task, record, checks):
        """Means, standard errors and counts recomputed from the rows."""
        for agg in record.aggregates:
            rows = [r for r in record.rows if r["sweep_value"] == agg["sweep_value"]
                    and r["scheme"] == agg["scheme"]]
            vals = [r["value_metric"] for r in rows
                    if r["status"] == "ok" and r.get("value_metric") is not None]
            n = len(vals)
            label = f"{task} aggregate {agg['scheme']} at {agg['sweep_value']:.6g}"
            if agg["trials"] != n or agg["failures"] != sum(r["status"] != "ok" for r in rows):
                checks.fail(label, "trial or failure count differs from the rows")
            mean = math.fsum(vals) / n if n else None
            stderr = statistics.stdev(vals) / math.sqrt(n) if n > 1 else 0.0
            if (mean is None) != (agg["mean"] is None) or \
                    (mean is not None and abs(agg["mean"] - mean) > EXACT_RTOL * abs(mean)):
                checks.fail(label, f"mean {agg['mean']!r} vs {mean!r}")
            if abs(agg["stderr"] - stderr) > EXACT_RTOL * max(abs(mean or 0.0), stderr):
                checks.fail(label, f"stderr {agg['stderr']!r} vs {stderr!r}")

    def fas_values(self, task, outputs):
        fas = [r for _, rows in outputs for r in rows
               if r["scheme"] == "fas" and r["status"] == "ok"]
        if self.plans[task].objective == "sar-min":
            return [r["sar"] for r in fas], []
        return [], [r["beta"] * NOISE_W for r in fas]

    def fingerprint(self, task, outputs):
        record = outputs[0][0]
        return json.dumps(record.rows, sort_keys=True), record.to_csv()


WORKLOADS = {w.name: w for w in (SarMinRef, BalanceTrial, AcceptanceMix)}
