"""The paired-run verdict of ``scripts/ab_pairs.py`` on synthetic numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)
verdict = ab_pairs.verdict

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.0]


def test_clear_gain_on_a_higher_is_better_metric():
    change = [value * 1.25 for value in PARENT]
    assert verdict(PARENT, change, "higher", 0.25) == "gain"


def test_gain_on_a_lower_is_better_metric():
    change = [value * 0.8 for value in PARENT]
    assert verdict(PARENT, change, "lower", 0.25) == "gain"


def test_eight_wins_of_ten_is_not_a_gain():
    change = [value * 1.2 for value in PARENT[:8]] + PARENT[8:]
    assert ab_pairs.wins(PARENT, change, "higher") == 8
    assert verdict(PARENT, change, "higher", 0.25) == "within bound"


def test_ties_count_for_neither_side():
    assert ab_pairs.wins(PARENT, PARENT, "higher") == 0
    assert verdict(PARENT, list(PARENT), "higher", 0.25) == "within bound"


def test_gap_inside_the_parent_iqr_is_not_a_gain():
    parent = [80.0, 120.0] * 5  # IQR 40
    change = [value + 1.0 for value in parent]  # wins 10/10, gap 1
    assert ab_pairs.wins(parent, change, "higher") == 10
    assert verdict(parent, change, "higher", 0.5) == "within bound"


def test_worse_past_bound():
    change = [value * 0.7 for value in PARENT]
    assert verdict(PARENT, change, "higher", 0.25) == "worse past bound"
    slower = [value * 1.3 for value in PARENT]
    assert verdict(PARENT, slower, "lower", 0.25) == "worse past bound"


def test_small_loss_is_within_bound():
    change = [value * 0.95 for value in PARENT]
    assert verdict(PARENT, change, "higher", 0.25) == "within bound"


def test_wide_spread_is_unresolved():
    parent = [60.0, 140.0, 70.0, 130.0, 100.0] * 2
    change = [140.0, 60.0, 130.0, 70.0, 100.0] * 2
    assert verdict(parent, change, "higher", 0.25) == "unresolved"


def test_wide_spread_with_every_change_run_better_is_not_unresolved():
    parent = [50.0, 60.0, 90.0, 95.0, 100.0] * 2  # IQR 35 around 90
    change = [100.5, 100.6, 100.7, 100.8, 100.9] * 2  # gap 10.7 < IQR
    assert verdict(parent, change, "higher", 0.1) == "within bound"
    change[0] = 99.0  # one change run no longer beats every parent run
    assert verdict(parent, change, "higher", 0.1) == "unresolved"


def test_without_a_bound_only_gain_is_judged():
    change = [value * 1.25 for value in PARENT]
    assert verdict(PARENT, change, "higher", None) == "gain"
    assert verdict(PARENT, PARENT, "higher", None) == "no gain"


def test_mismatched_sides_are_rejected():
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT[:3], "higher", 0.25)
