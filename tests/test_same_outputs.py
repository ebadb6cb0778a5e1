"""The comparison of ``tools/same_outputs.py`` on synthetic task digests and reports."""
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "same_outputs", Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_differing_lists_changed_and_one_sided_tasks():
    ours = {"channel 0": "aa", "channel 1": "bb", "plan fig4": "cc"}
    assert same_outputs.differing(ours, dict(ours)) == []
    theirs = {"channel 0": "aa", "channel 1": "b0", "plan fig5": "dd"}
    assert same_outputs.differing(ours, theirs) == ["channel 1", "plan fig4", "plan fig5"]


def test_sweep_plans_are_the_acceptance_sweeps():
    # the five acceptance plans at the acceptance suite's trial counts, built
    # and counted without running a trial
    plans = same_outputs.sweep_plans(Path(__file__).resolve().parents[1])
    assert sorted(plans) == ["fig4", "fig5", "fig6_L5", "fig7", "fig8"]
    assert {name: plan.trials for name, plan in plans.items()} == {
        "fig4": 20, "fig5": 20, "fig6_L5": 20, "fig7": 40, "fig8": 40}
    # one row per point, trial and scheme; a scheme sweep runs one scheme a point
    rows = sum(plan.trials * len(plan.values) * (1 if plan.sweep == "scheme" else len(plan.schemes))
               for plan in plans.values())
    assert rows == 1320


def test_strip_clocks_drops_clock_readings_at_every_depth():
    # a balance report nests solve reports, each with its own clocks; every
    # other key keeps its value and its place
    doc = {"kind": "sinr-balance", "wall_time_s": 0.5, "beta_star": 2.0,
           "ladder": [[1.0, True], {"wall_time_s": 0.1, "xi": 1e-9}],
           "solution": {"block_seconds": {"precoder": 0.2}, "block_calls": {"precoder": 3},
                        "outer_trace": [[0, 0.01, 1e-3]], "wall_time_s": 0.4}}
    stripped = same_outputs.strip_clocks(doc)
    assert stripped == {
        "kind": "sinr-balance", "beta_star": 2.0,
        "ladder": [[1.0, True], {"xi": 1e-9}],
        "solution": {"block_calls": {"precoder": 3}, "outer_trace": [[0, 0.01, 1e-3]]}}
    assert list(stripped) == ["kind", "beta_star", "ladder", "solution"]
    assert list(stripped["solution"]) == ["block_calls", "outer_trace"]
    assert doc["wall_time_s"] == 0.5 and "block_seconds" in doc["solution"]  # left as it was
