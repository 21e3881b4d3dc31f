"""The percentile rule, block-median throughput and spread."""

import pytest

from perfbench import stats


class TestPercentile:
    def test_nearest_rank(self):
        ordered = list(range(1, 101))
        assert stats.percentile(ordered, 50) == 50
        assert stats.percentile(ordered, 99) == 99
        assert stats.percentile(ordered, 100) == 100
        assert stats.percentile([7.0], 99) == 7.0

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)


class TestTailRule:
    """Highest percentile with at least ten samples beyond it."""

    @pytest.mark.parametrize("samples, expected", [
        (1000, 99),      # exactly ten beyond p99
        (999, 98),       # nine beyond p99 is not enough
        (500, 98),
        (300, 96),
        (100000, 99),    # capped for the gated metric
        (20, 50),
        (5, 50),         # too small for any tail: the median
    ])
    def test_supported_percentile(self, samples, expected):
        assert stats.tail_pct(samples) == expected

    def test_ten_samples_lie_beyond(self):
        for samples in (250, 1000, 4321):
            pct = stats.tail_pct(samples, cap=100)
            ordered = list(range(samples))
            beyond = samples - 1 - ordered.index(
                stats.percentile(ordered, pct))
            assert beyond >= stats.TAIL_SAMPLES

    def test_cap_can_be_lifted(self):
        assert stats.tail_pct(100000, cap=100) == 99
        assert stats.tail_pct(1000000, cap=100) == 99


class TestBlockThroughput:
    def test_median_block_ignores_one_stalled_block(self):
        ops = [100] * 5
        seconds = [1.0, 1.0, 10.0, 1.0, 1.0]
        assert stats.median_rate(ops, seconds) == 100.0
        assert stats.rate_spread(ops, seconds) == pytest.approx(10.0)

    def test_single_block_is_total_over_elapsed(self):
        assert stats.median_rate([1000], [4.0]) == 250.0
        assert stats.rate_spread([1000], [4.0]) == 1.0


class TestSpread:
    def test_iqr_share_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        # quantiles(n=4) -> 11.75, 14.5, 17.25
        assert stats.iqr_share(values) == pytest.approx(5.5 / 14.5)

    def test_one_run_has_no_spread(self):
        assert stats.iqr_share([3.0]) == 0.0
