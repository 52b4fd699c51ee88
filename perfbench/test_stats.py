"""Self-tests for the harness arithmetic, on synthetic input.

    python3 -m pytest perfbench/test_stats.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402
from stats import Span  # noqa: E402


class TestSelfTime:
    def test_overlapping_children_count_once(self):
        spans = [
            Span(1, None, "batch", 0.0, 10.0),
            Span(2, 1, "apply", 1.0, 4.0),
            Span(3, 1, "carry", 3.0, 6.0),  # overlaps apply by 1
            Span(4, 1, "refine", 8.0, 9.0),
        ]
        own = stats.self_times(spans)
        assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
        assert own[2] == pytest.approx(3.0)

    def test_child_sticking_out_is_clipped(self):
        spans = [Span(1, None, "a", 0.0, 2.0), Span(2, 1, "b", 1.5, 3.0)]
        assert stats.self_times(spans)[1] == pytest.approx(1.5)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [
            Span(1, None, "batch", 0.0, 10.0),
            Span(2, 1, "refine", 0.0, 6.0),
            Span(3, 2, "flow", 1.0, 5.0),
        ]
        by_name = stats.self_time_by_name(spans)
        assert by_name == pytest.approx({"batch": 4.0, "refine": 2.0, "flow": 4.0})

    def test_coverage_is_share_in_child_layers(self):
        spans = [
            Span(1, None, "batch", 0.0, 10.0),
            Span(2, 1, "apply", 0.0, 9.0),
            Span(3, None, "batch", 20.0, 30.0),
        ]
        assert stats.coverage(spans, "batch") == pytest.approx(9.0 / 20.0)


class TestQuantile:
    def test_nearest_rank_and_count_beyond(self):
        values = list(range(1, 1001))  # 1..1000, shuffled order is irrelevant
        q = stats.quantile(values[::-1], 0.99)
        assert (q.value, q.samples, q.beyond) == (990, 1000, 10)

    def test_small_sample_has_too_few_beyond_p99(self):
        q = stats.quantile([float(v) for v in range(240)], 0.99)
        assert q.beyond == 2  # why TAB-SERVE's p99 could not be trusted

    def test_median_rank(self):
        assert stats.quantile([5, 1, 3], 0.5).value == 3
        assert stats.quantile([4, 1, 3, 2], 0.5).value == 2

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            stats.quantile([], 0.5)


def _steady(seconds=3.0):
    """In-flight depth sampled every 50 ms, wobbling around 20."""
    return [(k * 0.05, 20 + k % 3) for k in range(int(seconds / 0.05))]


def _growing(excess, seconds=3.0):
    """Depth growing by ``excess`` requests per second."""
    return [(k * 0.05, int(10 + excess * k * 0.05))
            for k in range(int(seconds / 0.05))]


class TestLadderRule:
    def test_flat_backlog_passes(self):
        verdict = stats.judge_step(100.0, [20.0] * 300, 0, 1.0, _steady(), 3.0)
        assert verdict.passed and verdict.valid

    def test_growing_backlog_fails(self):
        verdict = stats.judge_step(100.0, [20.0] * 300, 0, 1.0,
                                   _growing(excess=10.0), 3.0)
        assert verdict.valid and not verdict.passed
        assert verdict.slope == pytest.approx(10.0, rel=0.05)

    def test_drain_after_sending_is_ignored(self):
        samples = _steady() + [(3.0 + k * 0.05, 0) for k in range(20)]
        verdict = stats.judge_step(100.0, [20.0] * 300, 0, 1.0, samples, 3.0)
        assert verdict.passed

    def test_ramp_from_an_empty_queue_is_ignored(self):
        ramp = [(k * 0.05, min(40, 8 * k)) for k in range(60)]  # 3 s, flat at 40
        verdict = stats.judge_step(100.0, [20.0] * 300, 0, 1.0, ramp, 3.0)
        assert verdict.passed
        assert abs(verdict.slope) < 1e-9

    def test_p99_over_limit_fails(self):
        latencies = [20.0] * 980 + [stats.P99_LIMIT_MS + 1.0] * 20
        verdict = stats.judge_step(100.0, latencies, 0, 1.0, _steady(), 3.0)
        assert not verdict.passed and verdict.valid

    def test_any_failure_fails(self):
        verdict = stats.judge_step(100.0, [20.0] * 300, 1, 1.0, _steady(), 3.0)
        assert not verdict.passed

    def test_late_generator_makes_step_invalid(self):
        verdict = stats.judge_step(100.0, [20.0] * 300, 0,
                                   stats.LATE_BOUND_MS + 1.0, _steady(), 3.0)
        assert not verdict.valid and not verdict.passed

    def test_bisection_finds_highest_passing_rung(self):
        for boundary in range(2, 9):
            probed = []

            def passes(rung):
                probed.append(rung)
                return rung <= boundary

            assert stats.highest_passing(2, 9, passes) == boundary
            assert len(probed) <= 3  # log2 of the six rungs above high

    def test_bisection_below_a_failed_high_rung(self):
        assert stats.highest_passing(2, 4, lambda rung: False) == 2
        assert stats.highest_passing(2, 4, lambda rung: True) == 3

    def test_bisection_below_a_failed_mid_rung_may_find_none(self):
        assert stats.highest_passing(-1, 2, lambda rung: rung < 1) == 0
        assert stats.highest_passing(-1, 2, lambda rung: False) == -1
