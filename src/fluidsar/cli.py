"""Command-line harness: single solves, baselines, sweeps and traces."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from .balance import BalanceConfig
from .baselines import BaselineConfig
from .channel import (DEFAULT_NOISE_W, ChannelRealization, ConfigurationError, Region,
                      dbm_to_watts, sample_channel)
from .exposure import SarModel, paper_sar_matrix, synthesize_sar_matrix
from .harness import ExperimentPlan, _sar_model, run_sweep, solve_scheme
from .solver import SinrTargets, SolverConfig, solve_sar_min


def _load_channel(args) -> ChannelRealization:
    spec = args.channel
    if spec.startswith("seed:"):
        spec = spec[len("seed:"):]
    if spec.lstrip("+-").isdigit():
        noise = dbm_to_watts(args.noise_dbm) if args.noise_dbm is not None else DEFAULT_NOISE_W
        return sample_channel(int(spec), args.m, args.k, args.paths, noise)
    with open(spec) as fh:
        return ChannelRealization.from_json(fh.read())


def _load_sar(args, m: int) -> SarModel:
    """The model of ``--sar``, which must be of ``m`` antennas."""
    spec = args.sar
    budget = args.q0 if getattr(args, "q0", None) is not None else 1.6
    if spec == "paper4":
        model = paper_sar_matrix(budget=budget)
    elif spec.startswith("file:"):
        with open(spec[len("file:"):]) as fh:
            model = SarModel.from_json(fh.read())
        if budget != model.budget and getattr(args, "q0", None) is not None:
            model = SarModel(model.matrix, budget, model.synthetic)
    elif spec.startswith("synth:") and spec[len("synth:"):].isdigit():
        model = synthesize_sar_matrix(int(spec[len("synth:"):]), budget=budget)
    else:
        raise ConfigurationError(f"unknown --sar spec {spec!r}")
    if model.n_antennas != m:
        raise ConfigurationError(f"--sar {spec} has {model.n_antennas} antennas, not --m {m}")
    return model


def float_list(text: str) -> list:  # argparse names this type in its error
    return [float(x) for x in text.split(",")]


# the solver's flags: every SolverConfig field with a numeric default
SOLVER_FLAGS = [f for f in fields(SolverConfig) if type(f.default) in (int, float)]


def _add_solver_flags(p, names=None):
    for f in SOLVER_FLAGS:
        if names is None or f.name in names:
            p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=None)


def _solver_kwargs(args) -> dict:
    """The solver flags given on the command line."""
    return {f.name: getattr(args, f.name) for f in SOLVER_FLAGS
            if getattr(args, f.name, None) is not None}


def _solver_config(args) -> SolverConfig:
    region = Region(half_width=args.half_width, wavelength=args.wavelength)
    return SolverConfig(region=region, **_solver_kwargs(args))


def _write(args, text: str, end: str = "\n"):
    """``text`` to the ``--out`` file, or ``text + end`` to standard output."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text + end)


def _write_report(args, doc: dict):
    _write(args, json.dumps(doc, indent=2))


def _add_common(p):
    p.add_argument("--channel", required=True,
                   help="channel JSON path, or an integer seed (sampled on the fly)")
    p.add_argument("--m", type=int, default=4, help="number of transmit antennas")
    p.add_argument("--k", type=int, default=4, help="number of users")
    p.add_argument("--paths", type=int, default=15, help="propagation paths per user")
    p.add_argument("--noise-dbm", type=float, default=None, help="noise power in dBm")
    p.add_argument("--half-width", type=float, default=1.0,
                   help="region half-width in wavelengths")
    p.add_argument("--wavelength", type=float, default=0.01)
    p.add_argument("--weights", type=float_list, help="comma-separated SINR weights")
    _add_solver_flags(p)
    p.add_argument("--save-channel", default=None, help="also write the channel JSON here")
    p.add_argument("--out", default=None, help="write the report JSON here")


def _weights(args, k: int) -> np.ndarray:
    return np.ones(k) if args.weights is None else np.array(args.weights)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fluidsar",
                                     description="SAR-aware fluid-antenna precoding designs")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the proposed designs")
    solve_sub = solve.add_subparsers(dest="problem", required=True)

    p_min = solve_sub.add_parser("sar-min", help="minimize exposure under SINR floors")
    _add_common(p_min)
    p_min.add_argument("--beta0", type=float, required=True, help="SINR target scale")
    p_min.add_argument("--sar", default="paper4")
    p_min.add_argument("--q0", type=float, default=None,
                       help="budget recorded on the model (reports only)")

    p_bal = solve_sub.add_parser("sinr-balance", help="max-min SINR under the SAR budget")
    _add_common(p_bal)
    p_bal.add_argument("--q0", type=float, default=1.6, help="SAR budget (W/kg)")
    p_bal.add_argument("--sar", default="paper4")
    p_bal.add_argument("--eps1", type=float, default=1e-4, help="bisection accuracy")

    base = sub.add_parser("baseline", help="comparison schemes")
    base_sub = base.add_subparsers(dest="scheme", required=True)
    for name in ("no-sar", "backoff", "aps", "fpa"):
        p = base_sub.add_parser(name)
        _add_common(p)
        p.add_argument("--q0", type=float, default=1.6)
        p.add_argument("--sar", default="paper4")
        p.add_argument("--eps1", type=float, default=1e-4)
        p.add_argument("--power-budget", type=float, default=2.0)
        if name in ("aps", "fpa"):
            p.add_argument("--objective", choices=("balance", "sar-min"), default="balance")
            p.add_argument("--beta0", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep plan")
    p_sweep.add_argument("--plan", required=True, help="plan JSON path")

    p_trace = sub.add_parser("trace", help="stopping-indicator trajectories")
    p_trace.add_argument("--seed", type=int, required=True)
    p_trace.add_argument("--beta0", type=float_list, required=True, help="comma-separated targets")
    p_trace.add_argument("--m", type=int, default=4)
    p_trace.add_argument("--k", type=int, default=4)
    p_trace.add_argument("--paths", type=int, default=15)
    p_trace.add_argument("--noise-dbm", type=float, default=None)
    _add_solver_flags(p_trace, ("mu0", "a"))
    p_trace.add_argument("--out", default=None, help="write the trace CSV here")

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ConfigurationError, OSError, json.JSONDecodeError) as err:
        # bad input ends as argparse ends it, in one line and status 2 (1: not converged)
        parser.exit(2, f"{parser.prog}: error: {err}\n")


def _run(args) -> int:
    """Run the parsed command; returns the exit status."""
    if args.command == "sweep":
        with open(args.plan) as fh:
            plan = ExperimentPlan.from_json(fh.read())
        record = run_sweep(plan)
        sys.stdout.write(record.to_csv())
        return 0

    if args.command == "trace":
        noise = dbm_to_watts(args.noise_dbm) if args.noise_dbm is not None else DEFAULT_NOISE_W
        realization = sample_channel(args.seed, args.m, args.k, args.paths, noise)
        # the sweeps' model at the default budget, which an exposure minimization never reads
        model, cfg = _sar_model(args.m, 1.6), SolverConfig(**_solver_kwargs(args))
        lines = ["beta0,iteration,xi"]
        for beta0 in args.beta0:
            rep = solve_sar_min(realization, SinrTargets.uniform(args.k, beta0), model, cfg)
            lines += [f"{beta0:.12g},{it},{xi:.12g}" for it, _, xi, _, _ in rep.outer_trace]
        _write(args, "\n".join(lines) + "\n", end="")
        return 0

    realization = _load_channel(args)
    if args.save_channel:
        with open(args.save_channel, "w") as fh:
            fh.write(realization.to_json())
    cfg = _solver_config(args)
    weights = _weights(args, realization.num_users)
    # a command without --eps1 or --power-budget runs no design that reads it
    bal = BalanceConfig(accuracy=getattr(args, "eps1", 1e-4), weights=weights)
    bcfg = BaselineConfig(power_budget=getattr(args, "power_budget", 2.0))
    if args.command == "solve":
        scheme, objective = "fas", "sar-min" if args.problem == "sar-min" else "balance"
    else:
        scheme, objective = args.scheme, getattr(args, "objective", "balance")
    beta0 = getattr(args, "beta0", None)
    targets = SinrTargets(weights, beta0) if beta0 is not None else None
    if objective == "sar-min" and targets is None:
        raise ConfigurationError("--beta0 is required for the sar-min objective")
    # the power-only design reads only the antenna count of the sweeps' model
    model = _sar_model(args.m, 1.6) if scheme == "no-sar" else _load_sar(args, args.m)
    res = solve_scheme(scheme, objective, realization, model, cfg, bal, targets, bcfg, bal)
    kind = args.problem if scheme == "fas" else f"baseline-{scheme}"
    orientation = {"orientation": "x-axis"} if scheme == "fpa" else {}
    _write_report(args, {"kind": kind, **orientation, **res.to_json_dict()})
    return 1 if kind == "sar-min" and not res.converged else 0


if __name__ == "__main__":
    sys.exit(main())
