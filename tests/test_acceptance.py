"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line. The Monte Carlo ordering/shape criteria share one set of
session-scoped sweep records; trials use common random numbers across schemes
and along the sweep axis. Records cache to tests/.acceptance_cache so a rerun
of the suite reuses finished sweeps (delete the directory for a cold run).

A cache key hashes the plan together with a digest of the package sources
(src/fluidsar/*.py), so a record written by older code is never read back:
after any change to the package the first run is cold. Each record stores
that digest, and writing a cold record deletes the records of every other
digest, so the directory holds only what the current sources can read. A
cold sweep runs its trials on min(2, cpu count) worker processes unless
FAS_THREADS says otherwise; results do not depend on the worker count
(criterion 10). Each
record stores the core-seconds of the cold sweep that wrote it (wall time
times the cores it could use), and a cache hit reports that figure, so the
time bound of criterion 7 holds on warm runs too and is no looser in
parallel than serial.
"""
import contextlib
import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import fluidsar
from fluidsar.balance import BalanceConfig, solve_sinr_balance
from fluidsar.channel import (
    Region,
    channel_matrix,
    min_pairwise_distance,
    sample_channel,
    sinr_all,
)
from fluidsar.exposure import paper_sar_matrix, synthesize_sar_matrix
from fluidsar.harness import ExperimentPlan, RunRecord, run_sweep, worker_count
from fluidsar.solver import (
    SinrTargets,
    SolverConfig,
    position_gradient,
    position_majorizer,
    position_objective,
    solve_auxiliary,
    solve_sar_min,
)

from conftest import NOISE_W, WAVELENGTH, fast_config, random_complex
from test_solver import assert_monotone
from test_solver_steps import aux_objective, zeta_grid_oracle

EXPERIMENT_SOLVER = dict(mu0=3e-3, a=0.7, max_outer=100, max_inner=10, max_sca_iter=48,
                         eps_inner_rel=3e-4, eps_position_rel=3e-5)
BETA_REF = 1.0 / NOISE_W  # target scale at which the coupling terms are O(1)


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({name}): PASS")


def pooled_gap(rec, value, hi, lo):
    """mean(hi) - mean(lo) minus one pooled standard error."""
    a = rec.aggregate(value, hi)
    b = rec.aggregate(value, lo)
    assert a["trials"] > 0 and b["trials"] > 0
    return (a["mean"] - b["mean"]) - np.sqrt(a["stderr"] ** 2 + b["stderr"] ** 2)


# ------------------------------------------------------------------ 1

def test_criterion_1_gradient_oracle():
    with criterion(1, "gradient vs finite differences"):
        rng = np.random.default_rng(101)
        region = Region(1.0, WAVELENGTH)
        step = 1e-6 * WAVELENGTH
        t0 = time.perf_counter()
        worst = 0.0
        for i in range(100):
            real = sample_channel(1000 + i, 4, 4, 15, NOISE_W)
            pos = rng.uniform(-region.half_width_m, region.half_width_m, (4, 2))
            P = random_complex(rng, (4, 4))
            Z = random_complex(rng, (4, 4))
            m = int(rng.integers(4))
            g = position_gradient(m, pos, real, P, Z, WAVELENGTH)
            fd = np.zeros(2)
            for d in range(2):
                up = pos.copy(); up[m, d] += step
                dn = pos.copy(); dn[m, d] -= step
                fd[d] = (position_objective(up, real, P, Z, WAVELENGTH)
                         - position_objective(dn, real, P, Z, WAVELENGTH)) / (2 * step)
            rel = np.linalg.norm(g - fd) / (np.linalg.norm(fd) + 1e-12)
            worst = max(worst, rel)
            assert rel <= 1e-5
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"gradient oracle took {elapsed:.1f}s"
        print(f"  worst relative gradient error {worst:.2e} in {elapsed:.2f}s")


# ------------------------------------------------------------------ 2

def test_criterion_2_majorization():
    with criterion(2, "surrogate majorizes the objective"):
        rng = np.random.default_rng(202)
        region = Region(1.0, WAVELENGTH)
        hstep = 1e-5 * WAVELENGTH
        for i in range(100):
            real = sample_channel(2000 + i, 4, 4, 15, NOISE_W)
            pos = rng.uniform(-region.half_width_m, region.half_width_m, (4, 2))
            P = random_complex(rng, (4, 4))
            Z = random_complex(rng, (4, 4))
            m = int(rng.integers(4))
            base = position_objective(pos, real, P, Z, WAVELENGTH)
            g = position_gradient(m, pos, real, P, Z, WAVELENGTH)
            tau = position_majorizer(m, pos, real, P, Z, WAVELENGTH)
            # random perturbation within one wavelength
            delta = rng.uniform(-1, 1, 2)
            delta *= rng.uniform(0, WAVELENGTH) / max(np.linalg.norm(delta), 1e-12)
            moved = pos.copy(); moved[m] += delta
            lhs = position_objective(moved, real, P, Z, WAVELENGTH)
            rhs = base + g @ delta + 0.5 * tau * (delta @ delta)
            assert lhs <= rhs + 1e-9
            # equality at the expansion point
            same = pos.copy()
            assert position_objective(same, real, P, Z, WAVELENGTH) == base
            # tau dominates the FD-estimated Hessian
            Hm = np.zeros((2, 2))
            for d in range(2):
                up = pos.copy(); up[m, d] += hstep
                dn = pos.copy(); dn[m, d] -= hstep
                Hm[:, d] = (position_gradient(m, up, real, P, Z, WAVELENGTH)
                            - position_gradient(m, dn, real, P, Z, WAVELENGTH)) / (2 * hstep)
            assert tau >= np.linalg.eigvalsh((Hm + Hm.T) / 2).max()


# ------------------------------------------------------------------ 3

def test_criterion_3_single_user_closed_form():
    with criterion(3, "M=K=1 closed form"):
        model = synthesize_sar_matrix(1)
        r = model.matrix[0, 0].real
        for seed in (1, 2, 3, 4):
            real = sample_channel(seed, 1, 1, 5, NOISE_W)
            beta0 = (0.5 + seed) / NOISE_W
            rep = solve_sar_min(real, SinrTargets.uniform(1, beta0), model,
                                SolverConfig())
            assert rep.converged
            h = channel_matrix(rep.layout, real, WAVELENGTH)[0]
            expected = r * beta0 * NOISE_W / np.linalg.norm(h) ** 2
            assert abs(rep.sar - expected) <= 1e-6 * expected


# ------------------------------------------------------------------ 4

def test_criterion_4_dual_step_oracle():
    with criterion(4, "auxiliary step vs zeta grid search"):
        rng = np.random.default_rng(404)
        for i in range(100):
            K = 4
            H = random_complex(rng, (K, 4))
            P = random_complex(rng, (4, K), scale=0.3)
            beta0 = rng.uniform(0.5, 3.0)
            targets = SinrTargets.uniform(K, beta0)
            Z, zeta, _ = solve_auxiliary(H, P, targets, 1.0)
            C = H.conj() @ P
            for k in range(K):
                got = aux_objective(C[k], Z[k])
                want = zeta_grid_oracle(C[k], k, beta0, 1.0)
                assert abs(got - want) <= 1e-6 * max(1.0, want)


# ------------------------------------------------------------------ 5

def test_criterion_5_convergence_paper_config():
    with criterion(5, "paper-config convergence"):
        model = paper_sar_matrix()
        cfg = SolverConfig()  # mu0=1e-3, a=0.9, eps4=1e-7, caps 500/200/30
        ok = 0
        iters = []
        for seed in range(20):
            real = sample_channel(5000 + seed, 4, 4, 15, NOISE_W)
            rep = solve_sar_min(real, SinrTargets.uniform(4, BETA_REF), model, cfg)
            assert_monotone(rep.inner_objective_trace, slack=1e-9)
            if rep.converged and rep.xi < 1e-7 and rep.outer_iterations <= 500:
                ok += 1
                iters.append(rep.outer_iterations)
        assert ok >= 19, f"only {ok}/20 trials converged"
        print(f"  {ok}/20 converged, outer iterations {min(iters)}-{max(iters)}")


# ------------------------------------------------------------------ 6

def test_criterion_6_lemma_roundtrip():
    # Both directions must evaluate the same deterministic minimization map,
    # so the probes run cold and the antenna placement is held fixed: with
    # free positions, probes at different targets land in different local
    # basins and the inversion property cannot be observed at this tolerance.
    with criterion(6, "balance/minimization round trip"):
        cfg = fast_config(optimize_positions=False)
        model = synthesize_sar_matrix(2, budget=1.6)
        rng = np.random.default_rng(606)
        for trial in range(20):
            real = sample_channel(6000 + trial, 2, 2, 4, NOISE_W)
            beta0 = rng.uniform(0.3, 2.0) / NOISE_W
            fwd = solve_sar_min(real, SinrTargets.uniform(2, beta0), model, cfg)
            assert fwd.converged
            eps1 = 5e-4 * beta0
            back = solve_sinr_balance(
                real, synthesize_sar_matrix(2, budget=fwd.sar),
                BalanceConfig(accuracy=eps1, warm_start=False), cfg)
            assert abs(back.beta_star - beta0) <= 2 * eps1, \
                f"trial {trial}: {back.beta_star:.6e} vs {beta0:.6e}"


# ------------------------------------------------------------------ sweeps

CACHE_DIR = Path(__file__).parent / ".acceptance_cache"


def source_digest(root: Path = Path(fluidsar.__file__).parent) -> str:
    """Digest of the package sources: file names and bytes, sorted by name."""
    h = hashlib.sha1()
    for path in sorted(root.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def sweep_workers() -> int:
    """Worker processes for a cold sweep: FAS_THREADS if set, else up to 2."""
    if os.environ.get("FAS_THREADS", "").strip():
        return worker_count()
    return min(2, os.cpu_count() or 1)


def _run_plan(name="", **kwargs):
    """Run one sweep plan, or replay the record that the current sources wrote.

    Returns the record and the core-seconds of the cold sweep behind it: its
    wall time times the cores its workers could use.
    """
    defaults = dict(trials=20, master_seed=909, m=4, k=4, paths=15,
                    noise_variance=NOISE_W, accuracy=1e13, beta_bracket=1e15,
                    aps_cap=8, solver=dict(EXPERIMENT_SOLVER))
    defaults.update(kwargs)
    plan = ExperimentPlan(**defaults)
    source = source_digest()
    key = json.dumps({"plan": plan.to_json_dict(), "source": source}, sort_keys=True)
    digest = hashlib.sha1(key.encode()).hexdigest()[:16]
    cache = CACHE_DIR / f"{digest}.json"
    if cache.exists():
        doc = json.loads(cache.read_text())
        elapsed, workers, cores = doc.pop("elapsed_s"), doc.pop("workers"), doc.pop("cores")
        doc.pop("source", None)
        print(f"  [{name}] cached ({digest}): swept in {elapsed:.0f}s "
              f"with {workers} worker(s) on {cores} core(s)")
        return RunRecord.from_json_dict(doc), elapsed * cores
    workers = sweep_workers()
    t0 = time.perf_counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("FAS_THREADS", str(workers))
        rec = run_sweep(plan)
    elapsed = time.perf_counter() - t0
    cores = min(workers, os.cpu_count() or 1)
    CACHE_DIR.mkdir(exist_ok=True)
    for old in CACHE_DIR.glob("*.json"):  # other sources' records: no key reaches them
        with contextlib.suppress(ValueError):
            if json.loads(old.read_text()).get("source") == source:
                continue
        old.unlink()
    doc = rec.to_json_dict()
    doc.update(elapsed_s=elapsed, workers=workers, cores=cores, source=source)
    cache.write_text(json.dumps(doc, indent=2))
    print(f"  [{name}] swept in {elapsed:.0f}s with {workers} worker(s) "
          f"on {cores} core(s)")
    return rec, elapsed * cores


def test_cache_key_follows_every_source_file(tmp_path):
    src = Path(fluidsar.__file__).parent
    for path in src.glob("*.py"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    base = source_digest(tmp_path)
    assert base == source_digest(src)
    for path in sorted(tmp_path.glob("*.py")):
        original = path.read_bytes()
        path.write_bytes(original + b"\n")
        assert source_digest(tmp_path) != base, path.name
        path.write_bytes(original)
    assert source_digest(tmp_path) == base


def test_cold_record_deletes_records_of_other_sources(tmp_path, monkeypatch):
    monkeypatch.setitem(globals(), "CACHE_DIR", tmp_path)
    (tmp_path / "old.json").write_text(json.dumps({"source": "0" * 40}))
    (tmp_path / "legacy.json").write_text("{}")
    (tmp_path / "torn.json").write_text('{"rows": [')
    (tmp_path / "kept.json").write_text(json.dumps({"source": source_digest()}))
    plan = dict(name="tiny", objective="sar-min", sweep="beta0", values=(BETA_REF,),
                schemes=("fpa",), beta0=BETA_REF, trials=1, m=2, k=2, paths=3)
    rec, _ = _run_plan(**plan)
    written = sorted(p.name for p in tmp_path.glob("*.json"))
    assert len(written) == 2 and "kept.json" in written
    written.remove("kept.json")
    assert json.loads((tmp_path / written[0]).read_text())["source"] == source_digest()
    assert _run_plan(**plan)[0].rows == rec.rows  # read back from the record


@pytest.fixture(scope="session")
def sweep_records():
    records = {}
    elapsed = {}
    records["fig4"], elapsed["fig4"] = _run_plan(
        name="fig4",
        objective="balance", sweep="q0", values=(0.1, 0.3, 0.9),
        schemes=("fas", "no-sar", "backoff"))
    # the budget sweep at L=15 is covered by the region sweep's points; the
    # path-count contrast comes from the L=5 budget sweep
    records["fig5"], elapsed["fig5"] = _run_plan(
        name="fig5",
        objective="balance", sweep="half_width", values=(1.0, 2.5, 3.0),
        schemes=("fas", "aps", "fpa"))
    records["fig6_L5"], elapsed["fig6_L5"] = _run_plan(
        name="fig6_L5",
        objective="balance", sweep="q0", values=(0.4, 1.6),
        schemes=("fas", "aps", "fpa"), paths=5)
    # the exposure sweeps are cheap; more trials tighten the heavy-tailed means
    records["fig7"], elapsed["fig7"] = _run_plan(
        name="fig7",
        objective="sar-min", sweep="beta0",
        values=(0.5 * BETA_REF, BETA_REF, 2 * BETA_REF, 4 * BETA_REF),
        schemes=("fas", "aps", "fpa"), beta0=BETA_REF, trials=40)
    records["fig8"], elapsed["fig8"] = _run_plan(
        name="fig8",
        objective="sar-min", sweep="half_width", values=(1.0, 2.5, 3.0),
        schemes=("fas", "aps", "fpa"), beta0=BETA_REF, trials=40)
    records["_elapsed"] = elapsed
    return records


@pytest.mark.slow
def test_criterion_7_orderings(sweep_records):
    with criterion(7, "scheme orderings by one pooled stderr"):
        total = sum(sweep_records["_elapsed"].values())
        assert total < 300.0, f"ordering sweeps took {total:.0f} core-seconds"
        # balance: FAS >= APS >= FPA on the region and budget sweeps
        for name in ("fig5", "fig6_L5"):
            rec = sweep_records[name]
            for value in rec.plan["values"]:
                assert pooled_gap(rec, value, "fas", "aps") > 0, (name, value, "fas>aps")
                assert pooled_gap(rec, value, "aps", "fpa") > 0, (name, value, "aps>fpa")
        # exposure: FAS <= APS <= FPA
        for name in ("fig7", "fig8"):
            rec = sweep_records[name]
            for value in rec.plan["values"]:
                assert pooled_gap(rec, value, "aps", "fas") > 0, (name, value, "aps>fas")
                assert pooled_gap(rec, value, "fpa", "aps") > 0, (name, value, "fpa>aps")
        # proposed beats backoff, with the relative gap shrinking in the budget
        rec = sweep_records["fig4"]
        values = rec.plan["values"]
        for value in values:
            assert pooled_gap(rec, value, "fas", "backoff") > 0, (value, "fas>backoff")
        relgaps = {}
        for value in values:
            pairs = {}
            for row in rec.rows:
                if row["sweep_value"] == value and row["status"] == "ok":
                    if row["scheme"] == "fas":
                        assert row["value_metric"] > 0, (
                            f"fig4 Q0={value} trial {row['trial']} seed {row['seed']}: "
                            f"FAS beta_star {row['value_metric']}")
                    pairs.setdefault(row["trial"], {})[row["scheme"]] = row["value_metric"]
            per_trial = [1.0 - p["backoff"] / p["fas"] for p in pairs.values()
                         if "fas" in p and "backoff" in p]
            relgaps[value] = (np.mean(per_trial),
                              np.std(per_trial, ddof=1) / np.sqrt(len(per_trial)))
        first, last = relgaps[values[0]], relgaps[values[-1]]
        assert first[0] - last[0] > np.hypot(first[1], last[1]), \
            f"relative backoff gap did not shrink: {relgaps}"
        print(f"  sweeps took {total:.0f} core-seconds; backoff relative gap "
              f"{first[0]:.3f} -> {last[0]:.3f}")


@pytest.mark.slow
def test_criterion_8_shapes(sweep_records):
    with criterion(8, "curve shapes"):
        # exposure strictly increasing in the target for every scheme
        rec = sweep_records["fig7"]
        for scheme in ("fas", "aps", "fpa"):
            means = [rec.aggregate(v, scheme)["mean"] for v in rec.plan["values"]]
            assert all(b > a for a, b in zip(means, means[1:])), (scheme, means)
        # region-size curves flatten by 2.5 wavelengths: < 2% change to 3.0
        rec = sweep_records["fig5"]
        m25 = rec.aggregate(2.5, "fas")["mean"]
        m30 = rec.aggregate(3.0, "fas")["mean"]
        assert abs(m30 - m25) / m25 < 0.02, (m25, m30)
        # and the balance value grows with the region before saturating
        # (trend assertion with statistical slack: local optima wobble)
        a10 = rec.aggregate(1.0, "fas")
        assert m25 >= a10["mean"] - np.hypot(a10["stderr"],
                                             rec.aggregate(2.5, "fas")["stderr"])
        rec = sweep_records["fig8"]
        s25 = rec.aggregate(2.5, "fas")["mean"]
        s30 = rec.aggregate(3.0, "fas")["mean"]
        assert abs(s30 - s25) / s25 < 0.02, (s25, s30)
        b10 = rec.aggregate(1.0, "fas")
        assert s25 <= b10["mean"] + np.hypot(b10["stderr"],
                                             rec.aggregate(2.5, "fas")["stderr"])


# ------------------------------------------------------------------ 9

def test_criterion_9_safety_invariants():
    with criterion(9, "safety invariants on emitted solutions"):
        cfg = fast_config()
        model = paper_sar_matrix(budget=1.6)
        dmin = WAVELENGTH / 2
        region = cfg.region

        def check_layout(layout):
            assert min_pairwise_distance(layout) >= dmin - 1e-9
            assert region.contains(layout, tol=1e-9)

        for seed in range(4):
            real = sample_channel(9000 + seed, 4, 4, 15, NOISE_W)
            # minimization: targets attained, layout feasible
            targets = SinrTargets.uniform(4, BETA_REF)
            rep = solve_sar_min(real, targets, model, cfg)
            assert rep.converged
            check_layout(rep.layout)
            H = channel_matrix(rep.layout, real, WAVELENGTH)
            sinrs = sinr_all(rep.precoder, H, NOISE_W)
            assert np.all(sinrs >= targets.thresholds * (1 - 1e-5))
            # balancing: budget respected as well
            res = solve_sinr_balance(real, model, BalanceConfig(accuracy=1e11), cfg)
            assert res.sar <= model.budget + 1e-9
            check_layout(res.layout)
            Hb = channel_matrix(res.layout, real, WAVELENGTH)
            sb = sinr_all(res.precoder, Hb, NOISE_W)
            assert np.min(sb) >= res.beta_star * (1 - 1e-5)
            # backoff: scaled solution never exceeds the budget
            from fluidsar.baselines import BaselineConfig, adaptive_backoff
            bo = adaptive_backoff(real, model, BaselineConfig(), cfg,
                                  BalanceConfig(accuracy=1e11))
            assert bo.sar <= model.budget + 1e-9
            check_layout(bo.layout)


# ------------------------------------------------------------------ 10

def test_criterion_10_deterministic_csv(tmp_path, monkeypatch):
    with criterion(10, "byte-identical CSV under any worker count"):
        def plan(path):
            return ExperimentPlan(
                objective="sar-min", sweep="beta0",
                values=(0.5 * BETA_REF, BETA_REF), trials=2, master_seed=31,
                schemes=("fas", "fpa"), m=2, k=2, paths=3, beta0=BETA_REF,
                solver=dict(EXPERIMENT_SOLVER), out_csv=path)
        monkeypatch.delenv("FAS_THREADS", raising=False)
        run_sweep(plan(str(tmp_path / "serial.csv")))
        monkeypatch.setenv("FAS_THREADS", "2")
        run_sweep(plan(str(tmp_path / "pool2.csv")))
        monkeypatch.setenv("FAS_THREADS", "3")
        run_sweep(plan(str(tmp_path / "pool3.csv")))
        serial = (tmp_path / "serial.csv").read_bytes()
        assert serial == (tmp_path / "pool2.csv").read_bytes()
        assert serial == (tmp_path / "pool3.csv").read_bytes()
