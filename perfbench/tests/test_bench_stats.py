"""Quick tests for the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench_stats import (  # noqa: E402
    check_digests,
    count_failures,
    percentile,
    self_times,
    spread,
    tail_percentile,
    tail_value,
)


class TestTailRule:
    def test_known_sample_counts(self):
        assert tail_percentile(40) == 75.0
        assert tail_percentile(120) == pytest.approx(91.6667, abs=1e-4)
        assert tail_percentile(20) == 50.0

    @pytest.mark.parametrize("n", [11, 12, 36, 40, 41, 96, 120, 500])
    def test_exactly_ten_samples_lie_beyond(self, n):
        xs = [float(i) for i in range(n)]
        _, value = tail_value(xs)
        assert sum(1 for x in xs if x > value) == 10

    def test_one_step_higher_leaves_fewer_than_ten(self):
        xs = [float(i) for i in range(40)]
        p = tail_percentile(len(xs))
        higher = percentile(xs, p + 100.0 / len(xs))
        assert sum(1 for x in xs if x > higher) < 10

    @pytest.mark.parametrize("n", [0, 5, 10])
    def test_too_few_samples_raise(self, n):
        with pytest.raises(ValueError):
            tail_percentile(n)

    def test_percentile_matches_linear_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert percentile([5.0, 1.0, 3.0], 100) == 5.0


class TestSelfTime:
    def test_nested_children(self):
        spans = [
            ("outer", 0.0, 10.0, -1),
            ("mid", 1.0, 4.0, 0),
            ("inner", 2.0, 3.0, 1),
        ]
        assert self_times(spans) == pytest.approx([7.0, 2.0, 1.0])

    def test_back_to_back_children(self):
        spans = [
            ("outer", 0.0, 10.0, -1),
            ("a", 1.0, 3.0, 0),
            ("b", 3.0, 6.0, 0),
        ]
        assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0])

    def test_overlapping_children_are_not_double_counted(self):
        spans = [
            ("outer", 0.0, 10.0, -1),
            ("a", 1.0, 5.0, 0),
            ("b", 4.0, 6.0, 0),
        ]
        assert self_times(spans)[0] == pytest.approx(5.0)

    def test_self_times_partition_the_top_span(self):
        spans = [
            ("outer", 0.0, 10.0, -1),
            ("a", 1.0, 3.0, 0),
            ("a2", 1.5, 2.0, 1),
            ("b", 3.0, 6.0, 0),
            ("next", 11.0, 12.0, -1),
        ]
        assert sum(self_times(spans)) == pytest.approx(11.0)


class TestDigests:
    def test_agreeing_repeats_matching_golden_pass(self):
        assert check_digests(["a", "a"], "a") == []

    def test_repeats_that_disagree_fail(self):
        assert check_digests(["a", "b"], None)

    def test_golden_mismatch_fails(self):
        problems = check_digests(["a", "a"], "b")
        assert len(problems) == 1 and "golden" in problems[0]

    def test_no_golden_only_checks_agreement(self):
        assert check_digests(["c"], None) == []


class TestFailureCounting:
    def test_infeasible_cells_are_answers_not_failures(self):
        assert count_failures(["ok", "infeasible", "infeasible"]) == (3, 0)

    def test_errors_and_timeouts_fail(self):
        assert count_failures(["ok", "error", "timeout", "infeasible"]) == (4, 2)


class TestSpread:
    def test_quartile_distance_over_median(self):
        s = spread([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s["median"] == 3.0
        assert s["spread"] == pytest.approx((s["q3"] - s["q1"]) / 3.0)
