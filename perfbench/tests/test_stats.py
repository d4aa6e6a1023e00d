import pytest

from perfbench import stats


def test_percentile_is_nearest_rank_with_its_sample_count():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    summary = stats.summarize(values)
    assert summary == {"p50": 50.0, "p99": 99.0, "n": 100}


def test_percentile_of_few_samples_is_a_measured_value():
    # Below 100 samples the p99 is the maximum, never an interpolation.
    assert stats.percentile([3.0, 1.0, 2.0], 0.99) == 3.0
    assert stats.percentile([3.0, 1.0, 2.0], 0.50) == 2.0
    assert stats.summarize([])["n"] == 0
    assert stats.percentile([], 0.99) == 0.0


def test_self_time_subtracts_nested_children():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 4.0, 0),    # child
        (2.0, 3.0, 1),    # grandchild
        (5.0, 9.0, 0),    # second child
    ]
    assert stats.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    # A replica fan-out: two shard calls in flight at once.
    spans = [(0.0, 10.0, -1), (1.0, 6.0, 0), (2.0, 8.0, 0)]
    assert stats.self_times(spans)[0] == pytest.approx(3.0)


def test_self_times_sum_to_the_root_duration():
    spans = [(0.0, 5.0, -1), (0.5, 2.0, 0), (2.5, 4.5, 0), (3.0, 4.0, 2)]
    assert sum(stats.self_times(spans)) == pytest.approx(5.0)


def test_union_length():
    assert stats.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert stats.union_length([]) == 0


def test_error_frac_counts_busy_typed_errors_and_mismatches():
    assert stats.error_frac(200, errors=1, busy=2, mismatches=3) == 0.03
    assert stats.error_frac(10, 0, 0, 0) == 0.0
    with pytest.raises(ValueError):
        stats.error_frac(0, 0, 0, 0)


def test_due_time_latency_includes_generator_lateness():
    due, sent, done = 1.0, 1.3, 1.5
    assert stats.due_latency(due, done) == pytest.approx(0.5)
    assert stats.lateness(due, sent) == pytest.approx(0.3)
    assert stats.lateness(due, 0.9) == 0.0


def test_quartile_spread_is_relative_to_the_median():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    spread = stats.quartile_spread([9.0, 10.0, 10.0, 11.0])
    assert spread == pytest.approx((10.75 - 9.25) / 10.0)
