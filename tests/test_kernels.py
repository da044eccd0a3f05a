"""Tag-stream kernels against brute-force oracles."""

import numpy as np
import pytest

from entnetsim import _kernels

import helpers


def random_stream(rng, n, spread):
    return np.sort(rng.integers(0, spread, size=n, dtype=np.int64))


class TestDeadTime:
    def test_against_sequential_scan(self):
        rng = np.random.default_rng(123)
        for trial in range(40):
            n = int(rng.integers(0, 400))
            tags = random_stream(rng, n, 5_000)
            dead = int(rng.integers(0, 60))
            kept = _kernels.dead_time_prune(tags, dead)
            expected = helpers.brute_dead_time(tags, dead)
            np.testing.assert_array_equal(kept, expected)

    def test_kept_set_properties(self):
        rng = np.random.default_rng(7)
        tags = random_stream(rng, 10_000, 200_000)
        dead = 37
        kept = _kernels.dead_time_prune(tags, dead)
        kept_tags = tags[kept]
        # no accepted pair closer than the dead time
        assert np.all(np.diff(kept_tags) >= dead)
        # every dropped tag is within the dead window of an accepted one
        dropped = np.setdiff1d(np.arange(tags.size), kept)
        for i in dropped[:: max(1, dropped.size // 50)]:
            prev = kept_tags[kept_tags <= tags[i]]
            assert prev.size and tags[i] - prev[-1] < dead

    def test_zero_dead_time_keeps_all(self):
        tags = np.array([5, 5, 6, 7], dtype=np.int64)
        np.testing.assert_array_equal(_kernels.dead_time_prune(tags, 0),
                                      np.arange(4))

    def test_empty(self):
        assert _kernels.dead_time_prune(np.empty(0, dtype=np.int64), 10).size == 0


class TestGreedyMatch:
    def test_against_brute_force(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            na, nb = rng.integers(0, 300, size=2)
            a = random_stream(rng, na, 20_000)
            b = random_stream(rng, nb, 20_000)
            half = int(rng.integers(1, 200))
            offset = int(rng.integers(-300, 300))
            ia, ib = _kernels.greedy_match(a, b, offset, half)
            ea, eb = helpers.brute_greedy_match(a, b, offset, half)
            np.testing.assert_array_equal(ia, ea)
            np.testing.assert_array_equal(ib, eb)

    def test_one_to_one(self):
        rng = np.random.default_rng(3)
        a = random_stream(rng, 5_000, 100_000)
        b = random_stream(rng, 5_000, 100_000)
        ia, ib = _kernels.greedy_match(a, b, 0, 64)
        assert np.unique(ia).size == ia.size
        assert np.unique(ib).size == ib.size
        assert np.all(np.abs(b[ib] - a[ia]) <= 64)

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        ia, ib = _kernels.greedy_match(empty, empty, 0, 10)
        assert ia.size == 0 and ib.size == 0


class TestHistogram:
    def test_against_brute_force(self):
        rng = np.random.default_rng(99)
        for trial in range(40):
            na, nb = rng.integers(0, 250, size=2)
            a = random_stream(rng, na, 30_000)
            b = random_stream(rng, nb, 30_000)
            bw = int(rng.integers(1, 300))
            n_bins = int(rng.integers(1, 40))
            offset = int(rng.integers(-500, 500))
            got = _kernels.correlation_histogram(a, b, offset, bw, n_bins)
            expected = helpers.brute_histogram(a, b, offset, bw, n_bins)
            np.testing.assert_array_equal(got, expected)

    def test_counts_total_matches_pairs_in_range(self):
        rng = np.random.default_rng(5)
        a = random_stream(rng, 2_000, 1_000_000)
        b = random_stream(rng, 2_000, 1_000_000)
        bw, n_bins = 128, 33
        counts = _kernels.correlation_histogram(a, b, 0, bw, n_bins)
        span = bw * n_bins
        lo = -(span // 2)
        in_range = 0
        for t in a:
            in_range += int(np.count_nonzero((b - t >= lo) & (b - t < lo + span)))
        assert counts.sum() == in_range

    def test_rejects_bad_bins(self):
        a = np.array([1], dtype=np.int64)
        with pytest.raises(ValueError):
            _kernels.correlation_histogram(a, a, 0, 0, 10)

