import statistics

import pytest

import stats


def test_percentile_interpolates_between_ranks():
    values = [10.0, 20.0, 30.0, 40.0]
    assert stats.percentile(values, 0) == 10.0
    assert stats.percentile(values, 100) == 40.0
    assert stats.percentile(values, 50) == 25.0
    assert stats.percentile(values, 99) == pytest.approx(39.7)
    assert stats.percentile(reversed(values), 25) == 17.5


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_median_matches_statistics():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
    assert stats.median(values) == statistics.median(values)


def test_quartiles_and_iqr_match_the_acceptance_rule():
    values = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == [q1, mid, q3]
    assert stats.iqr(values) == q3 - q1
    assert stats.relative_spread(values) == (q3 - q1) / mid


def test_single_value_has_no_spread():
    assert stats.quartiles([3.0]) == [3.0, 3.0, 3.0]
    assert stats.relative_spread([3.0]) == 0.0
    assert stats.iqr([2.0, 2.0, 2.0]) == 0.0
