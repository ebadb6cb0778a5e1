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
