"""tools/compare_reference.py: the CI check that re-recorded answers did not drift."""

import copy
import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_reference.py"
_SPEC = importlib.util.spec_from_file_location("compare_reference", _PATH)
compare_reference = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_reference)

COMMITTED = {
    "recorded_with": {"qtremble": "0.1.0", "numpy": "2.0", "python": "3.11"},
    "verdicts": {"SH C:C 2/2 kappa=1": [False], "SH C:C 2/2 kappa=5": [True]},
    "classical": {"EG": {"equilibria": [{"kind": "strict", "profile": ["C", "C"]}],
                         "thp": {"C,C": True}}},
    "threshold": {"SH C:C 2/2": {"kappa_star": 1.6084, "holds_at_lo": False,
                                 "holds_at_hi": True, "scan_range": [0.5, 2.1],
                                 "tol": 1e-6}},
}


def recorded(edit):
    doc = copy.deepcopy(COMMITTED)
    edit(doc)
    return doc


@pytest.mark.parametrize("edit", [
    lambda d: None,
    lambda d: d["recorded_with"].update(numpy="2.4"),
    lambda d: d["threshold"]["SH C:C 2/2"].update(kappa_star=1.6084 + 9e-7),
], ids=["same", "versions", "kappa_star_within_tol"])
def test_accepted(edit):
    assert compare_reference.differences(COMMITTED, recorded(edit)) == []


@pytest.mark.parametrize("edit", [
    lambda d: d["verdicts"].update({"SH C:C 2/2 kappa=1": [True]}),
    lambda d: d["verdicts"].pop("SH C:C 2/2 kappa=5"),
    lambda d: d["classical"]["EG"]["thp"].update({"C,C": False}),
    lambda d: d["threshold"]["SH C:C 2/2"].update(holds_at_lo=True),
    lambda d: d["threshold"]["SH C:C 2/2"].update(kappa_star=1.6084 + 2e-6),
    lambda d: d["threshold"]["SH C:C 2/2"].update(kappa_star=float("nan")),
    lambda d: d["threshold"].pop("SH C:C 2/2"),
], ids=["verdict", "missing_verdict", "classical", "holds_at_lo", "kappa_star", "nan",
        "missing_threshold"])
def test_rejected(edit):
    assert len(compare_reference.differences(COMMITTED, recorded(edit))) == 1
