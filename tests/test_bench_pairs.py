"""The verdicts of ``tools/bench_pairs.py::summarise`` on synthetic runs."""
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

OPS = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
SAR = {"name": "fas_sar_mean_wkg", "unit": "W/kg", "better": "lower", "bound": 0.02}
PARENT = [10.0, 11.0, 12.0, 10.5, 11.5, 10.8, 11.2, 10.2, 11.8, 10.9]


def runs(metric, parent, change):
    return [{"parent": {metric: p}, "change": {metric: c}} for p, c in zip(parent, change)]


def test_a_clear_gain_is_a_gain():
    out = bench_pairs.summarise(runs("ops_per_s", PARENT, [1.3 * v for v in PARENT]), OPS)
    assert out["change_wins"] == 10 and out["parent_wins"] == 0
    assert out["gain"] and not out["worse_than_bound"] and not out["unresolved"]
    assert out["change_over_parent"] == pytest.approx(1.3)


def test_a_loss_beyond_the_bound_is_worse_than_bound():
    out = bench_pairs.summarise(runs("ops_per_s", PARENT, [0.6 * v for v in PARENT]), OPS)
    assert out["parent_wins"] == 10
    assert out["worse_than_bound"] and not out["gain"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [4.0, 16.0, 6.0, 14.0, 8.0, 12.0, 10.0, 9.0, 11.0, 13.0]
    change = [v * 1.05 for v in parent[::-1]]
    out = bench_pairs.summarise(runs("ops_per_s", parent, change), OPS)
    assert out["unresolved"] and not out["gain"] and not out["worse_than_bound"]


def test_rounding_is_a_tie_not_a_gain():
    # a value that moves in its 15th digit on every pair, with no spread at
    # the parent, is ten ties: no side wins and nothing is claimed
    parent = [0.08125] * 10
    change = [v * (1.0 - 9e-15) for v in parent]
    out = bench_pairs.summarise(runs("fas_sar_mean_wkg", parent, change), SAR)
    assert out["change_wins"] == 0 and out["parent_wins"] == 0
    assert not out["gain"] and not out["worse_than_bound"] and not out["unresolved"]
    # a move above the tie tolerance still counts
    out = bench_pairs.summarise(runs("fas_sar_mean_wkg", parent, [v * (1.0 - 1e-6)
                                                                  for v in parent]), SAR)
    assert out["change_wins"] == 10 and out["gain"]
