"""The pairs runner's summary: medians, quartiles and wins per metric, from fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

_SPEC = [
    {"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "trial_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _runs(rates, p50s):
    return [{"trials_per_s": r, "trial_ms_p50": p} for r, p in zip(rates, p50s)]


def test_summary_of_five_pairs():
    """Medians and linearly interpolated quartiles of each side, and the pairs the change won in
    each metric's direction, a tie winning nothing."""
    parent = _runs([100.0, 110.0, 90.0, 120.0, 105.0], [0.6, 0.5, 0.7, 0.4, 0.55])
    change = _runs([120.0, 110.0, 95.0, 150.0, 100.0], [0.5, 0.5, 0.6, 0.3, 0.45])
    summary = _load_script().summarize(parent, change, _SPEC)
    assert list(summary) == ["trials_per_s", "trial_ms_p50"]

    rate = summary["trials_per_s"]
    assert rate["parent"] == [100.0, 110.0, 90.0, 120.0, 105.0]
    assert (rate["parent_median"], rate["change_median"]) == (105.0, 110.0)
    assert rate["parent_quartiles"] == [100.0, 110.0]
    assert rate["change_quartiles"] == [100.0, 120.0]
    assert rate["wins"] == 3 and rate["pairs"] == 5  # 110 = 110 is a tie, 100 < 105 a loss
    assert rate["median_change"] == pytest.approx(110.0 / 105.0 - 1)
    assert rate["median_gap_exceeds_parent_iqr"] is False  # a gap of 5 against an IQR of 10

    p50 = summary["trial_ms_p50"]
    assert (p50["parent_median"], p50["change_median"]) == (0.55, 0.5)
    assert p50["parent_quartiles"] == pytest.approx([0.5, 0.6])
    assert p50["wins"] == 4  # lower is better; 0.5 = 0.5 is a tie
    assert p50["better"] == "lower" and p50["unit"] == "ms"


def test_summary_gap_beyond_the_parent_spread():
    """Ten pairs in which the change is lower by a tenth: the median gap exceeds the parent's
    interquartile range, and every pair is a win."""
    parent = _runs([1.0] * 10, [0.50, 0.52, 0.48, 0.51, 0.49, 0.50, 0.53, 0.47, 0.50, 0.50])
    change = _runs([1.0] * 10, [p["trial_ms_p50"] - 0.1 for p in parent])
    summary = _load_script().summarize(parent, change, _SPEC)
    assert summary["trial_ms_p50"]["wins"] == 10
    assert summary["trial_ms_p50"]["median_gap_exceeds_parent_iqr"] is True
    assert summary["trials_per_s"]["wins"] == 0


def test_summary_needs_matched_pairs():
    script = _load_script()
    with pytest.raises(ValueError, match="one change run per pair"):
        script.summarize(_runs([1.0], [1.0]), [], _SPEC)
    with pytest.raises(ValueError, match="at least one pair"):
        script.summarize([], [], _SPEC)
