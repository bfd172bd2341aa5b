import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_quartiles_interpolate_between_sorted_values():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_compare_counts_pairs_won_by_direction():
    parent = [1.0, 1.2, 1.1, 1.3, 1.0]
    change = [0.8, 1.3, 0.9, 1.3, 0.7]     # lower in pairs 1, 3 and 5; a tie
    st = bench_pairs.compare(parent, change, "lower")
    assert st["wins"] == 3 and st["pairs"] == 5
    assert st["parent"] == (1.0, 1.1, 1.2)
    assert st["change"] == (0.8, 0.9, 1.3)
    assert st["relative_change"] == pytest.approx(-0.2 / 1.1)
    assert st["parent_spread"] == pytest.approx(0.2)
    # the same numbers where higher is better: the tie still counts for neither
    assert bench_pairs.compare(parent, change, "higher")["wins"] == 1


def test_compare_refuses_unpaired_runs():
    with pytest.raises(ValueError):
        bench_pairs.compare([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        bench_pairs.compare([], [], "lower")
