"""The benchmark under bench/ calls the program through its public names:
``solve_aps(..., method=...)``, ``BaselineConfig(aps_cap=, aps_seed=)``,
``ExperimentPlan(aps_cap=)`` and the functions its tracer wraps. These tests
run one operation of each workload through that workload's own checks, so a
change of those names or of what they return fails here, not first in a
benchmark run. They only read bench/. The three APS names there (``method``,
``aps_cap`` and ``aps_seed``) are inert: the program accepts them and acts on none.
"""
import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracer  # noqa: E402
import workloads  # noqa: E402

MASTER_SEED = 909  # the benchmark's default channel family
# one operation per workload: a paper-settings solve, one channel through every
# balance scheme, and the fig4 plan (FAS, no-SAR and backoff) through a serial
# run_sweep
TASKS = {"sarmin-ref": 0, "balance-trial": (0, 0), "acceptance-mix": "fig4"}


def test_every_traced_layer_resolves():
    for name, modname, attr in tracer.LAYERS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), name


def run_and_check(name, task):
    wl = workloads.WORKLOADS[name](MASTER_SEED)
    assert task in wl.tasks
    outputs = wl.run(task)
    checks = workloads.Checks()
    verdicts = wl.verdicts(task, outputs, checks)
    assert checks.errors == []
    assert len(verdicts) == len(outputs) and all(v is None for v in verdicts), verdicts
    sars, betas = wl.fas_values(task, outputs)
    assert sars or betas
    assert wl.fingerprint(task, outputs)


@pytest.mark.parametrize("name", sorted(TASKS))
def test_one_operation_passes_its_workload_checks(name, monkeypatch):
    monkeypatch.delenv("FAS_THREADS", raising=False)
    run_and_check(name, TASKS[name])


def test_pooled_sweep_passes_its_workload_checks(monkeypatch):
    # the benchmark runs its sweeps on a pool of 2 workers: fig5 (FAS, APS and
    # FPA over the region) through run_sweep's process pool
    monkeypatch.setenv("FAS_THREADS", "2")
    run_and_check("acceptance-mix", "fig5")


def test_traced_operation_reaches_every_solver_layer():
    # the per-layer figures time the blocks through the module attributes the
    # tracer wraps: a solve that stops calling one of them by that name
    # reads 0 there
    wl = workloads.WORKLOADS["sarmin-ref"](MASTER_SEED)
    tr = tracer.Tracer()
    tr.op = 0
    tr.install()
    try:
        wl.run(TASKS["sarmin-ref"])
    finally:
        tr.restore()
    calls = tr.summary()["calls"]
    for name in ("solver.solve_auxiliary", "solver.solve_precoder", "solver.inner_loop",
                 "exposure.sar_value"):
        assert calls.get(name, 0) > 0, name
    # every inner sweep runs each block once, by its traced name
    sweeps = calls["solver.solve_precoder"]
    assert calls["solver.solve_auxiliary"] >= sweeps and calls["exposure.sar_value"] >= sweeps
