"""The comparison of ``tools/same_outputs.py`` on synthetic task digests."""
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
