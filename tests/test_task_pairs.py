"""The summary of ``tools/task_pairs.py`` on synthetic task timings."""
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "task_pairs", Path(__file__).resolve().parents[1] / "tools" / "task_pairs.py")
task_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(task_pairs)


def test_summary_of_a_uniform_gain():
    there = [0.10, 0.20, 0.40, 0.05, 0.30, 0.15, 0.25, 0.35]
    s = task_pairs.summarise([(0.9 * t, t) for t in there])
    assert s["runs"] == 8 and s["here_faster"] == 8 and s["there_faster"] == 0
    assert s["here_s"] == pytest.approx(0.9 * sum(there))
    assert s["there_s"] == pytest.approx(sum(there))
    assert s["total_ratio"] == pytest.approx(0.9)
    assert s["ratio_q1"] == pytest.approx(0.9)
    assert s["ratio_median"] == pytest.approx(0.9)
    assert s["ratio_q3"] == pytest.approx(0.9)


def test_totals_weigh_long_tasks_and_ties_count_for_neither_side():
    # one long task twice as slow outweighs three short ones twice as fast
    pairs = [(2.0, 1.0), (0.05, 0.1), (0.05, 0.1), (0.05, 0.1), (0.3, 0.3)]
    s = task_pairs.summarise(pairs)
    assert s["total_ratio"] == pytest.approx(2.45 / 1.6)
    assert s["ratio_median"] == pytest.approx(0.5)
    assert s["ratio_q1"] == pytest.approx(0.5) and s["ratio_q3"] == pytest.approx(1.0)
    assert (s["here_faster"], s["there_faster"]) == (3, 1)
    text = task_pairs.report(s, "0123456789ab")
    assert "ratio 1.5312" in text and "median 0.5000" in text
    assert "faster here: 3, faster at 0123456789ab: 1" in text
