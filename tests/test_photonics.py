"""Component models: conversions, source sampling, detector response."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entnetsim import build_plan, sim
from entnetsim.photonics import (ContractViolation, DetectorConfig,
                                 DispersionConfig, SourceConfig,
                                 db_to_transmittance, detector_response_traced,
                                 wavelength_shift_nm_per_ghz)
from entnetsim.plan import ItuChannel

import helpers


class TestDbConversion:
    def test_zero_loss(self):
        assert db_to_transmittance(0.0) == 1.0

    def test_splitter_loss(self):
        # 10^(-1.04), the measured multi-port splitter insertion loss
        assert db_to_transmittance(10.4) == pytest.approx(0.09120108393559097,
                                                          rel=1e-12)

    def test_wdm_loss(self):
        assert db_to_transmittance(0.5) == pytest.approx(0.8912509381337456,
                                                         rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            db_to_transmittance(-0.1)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0, 100), st.floats(0, 100))
    def test_losses_add_transmittances_multiply(self, a, b):
        assert db_to_transmittance(a + b) == pytest.approx(
            db_to_transmittance(a) * db_to_transmittance(b), rel=1e-12)


class TestDispersionShift:
    """The shift the engine's arrival transform applies, through the
    per-path oracle that TestArrivalTransform ties to it bit for bit."""

    def test_zero_detuning(self):
        cfg = DispersionConfig()
        shift = helpers.ref_dispersion_time_shift(np.zeros(1), ItuChannel(40),
                                                  +1, cfg)
        np.testing.assert_array_equal(shift, [0.0])

    def test_half_band_shift_near_1545(self):
        # 1980 ps/nm at +50 GHz detuning: the grid conversion is about
        # 0.8 nm per 100 GHz near 1545 nm, so close to -792 ps nominally
        cfg = DispersionConfig(magnitude_ps_per_nm=1980.0)
        shift = helpers.ref_dispersion_time_shift(50.0, ItuChannel(40), +1,
                                                  cfg)
        exact = 1980.0 * wavelength_shift_nm_per_ghz(ItuChannel(40)) * 50.0
        assert shift == pytest.approx(exact, rel=1e-12)
        assert shift == pytest.approx(-792.0, rel=0.01)

    def test_conversion_coefficient_is_0p8_nm_per_100ghz(self):
        coef = wavelength_shift_nm_per_ghz(ItuChannel(40))
        assert abs(coef) * 100 == pytest.approx(0.8, rel=0.005)

    def test_sign_flip_negates_exactly(self):
        cfg = DispersionConfig()
        rng = np.random.default_rng(1)
        det = rng.uniform(-50, 50, size=100)
        plus = helpers.ref_dispersion_time_shift(det, ItuChannel(35), +1, cfg)
        minus = helpers.ref_dispersion_time_shift(det, ItuChannel(35), -1, cfg)
        np.testing.assert_array_equal(plus, -minus)


class TestPairStream:
    """The engine's pair emission for one resource: each outcome's count
    as sim._outcome_counts draws it, and its events as sim._draw_events
    draws them. Determinism and zero and negative durations are checked
    on run_scenario in test_sim.TestRunScenario."""

    @staticmethod
    def events(source, duration_ps, seed, materialize):
        plan = build_plan(1, 2, ItuChannel(40))
        sys_cfg = sim.SystemConfig(source=source)
        return [(u, v, n, sim._draw_events(rng, n, source, duration_ps,
                                           v in materialize,
                                           sim._Scratch(n, truth=False))
                 if n and (u in materialize or v in materialize) else None)
                for pair, u, v, n, rng in sim._outcome_counts(
                    sys_cfg, plan, duration_ps, seed)
                if pair == plan.resources[0]]

    def test_poisson_count_within_5_sigma(self):
        # counted only: the outcome counts of a resource sum to its
        # Poisson emission count, and no event is drawn
        cfg = SourceConfig(pair_rate_hz=1e6)
        events = self.events(cfg, 10 ** 12, 11, materialize=set())
        assert all(block is None for _, _, _, block in events)
        mean, sigma = 1e6, math.sqrt(1e6)
        assert abs(sum(n for _, _, n, _ in events) - mean) < 5 * sigma

    def test_times_sorted_detuning_in_band(self):
        cfg = SourceConfig(pair_rate_hz=1e5, bandwidth_ghz=100)
        duration_ps = 5 * 10 ** 10
        events = self.events(cfg, duration_ps, 9, materialize={0, 1})
        blocks = [block for _, _, _, block in events if block is not None]
        assert blocks
        for times, detuning, _, _, _ in blocks:
            assert np.all(np.diff(times) >= 0)
            assert times[0] >= 0 and times[-1] < duration_ps
            assert np.all(np.abs(detuning) <= 50.0)


class TestDetectorResponse:
    def test_identity_configuration(self):
        cfg = DetectorConfig(efficiency=1.0, dark_rate_hz=0.0, jitter_ps=0.0,
                             dead_time_ps=0)
        arrivals = np.array([10.0, 500.0, 900.0])
        tags, _ = detector_response_traced(arrivals, cfg, 1e-9,
                                           np.random.default_rng(0))
        np.testing.assert_array_equal(tags, np.array([10, 500, 900]))

    def test_dead_time_drops_second_arrival(self):
        cfg = DetectorConfig(efficiency=1.0, dark_rate_hz=0.0, jitter_ps=0.0,
                             dead_time_ps=50_000)
        arrivals = np.array([0.0, 10_000.0])  # 10 ns apart, 50 ns dead time
        tags, _ = detector_response_traced(arrivals, cfg, 1e-6,
                                           np.random.default_rng(0))
        np.testing.assert_array_equal(tags, np.array([0]))

    def test_dark_counts_poisson(self):
        cfg = DetectorConfig(efficiency=1.0, dark_rate_hz=100.0, jitter_ps=0.0,
                             dead_time_ps=0)
        tags, _ = detector_response_traced(np.empty(0), cfg, 10.0,
                                           np.random.default_rng(5))
        mean, sigma = 1000.0, math.sqrt(1000.0)
        assert abs(tags.size - mean) < 5 * sigma
        assert np.all((tags >= 0) & (tags < 10e12))

    def test_thinning_unbiased(self):
        cfg = DetectorConfig(efficiency=0.7, dark_rate_hz=0.0, jitter_ps=0.0,
                             dead_time_ps=0)
        n = 200_000
        arrivals = np.arange(n, dtype=float) * 1e6
        tags, _ = detector_response_traced(arrivals, cfg,
                                           n * 1e6 / 1e12 + 1.0,
                                           np.random.default_rng(17))
        sigma = math.sqrt(n * 0.7 * 0.3)
        assert abs(tags.size - 0.7 * n) < 5 * sigma

    def test_dead_time_pruning_matches_oracle(self):
        cfg = DetectorConfig(efficiency=1.0, dark_rate_hz=0.0, jitter_ps=0.0,
                             dead_time_ps=130)
        rng = np.random.default_rng(23)
        arrivals = np.sort(rng.uniform(0, 1e6, size=10_000))
        tags, _ = detector_response_traced(arrivals, cfg, 1e-6,
                                           np.random.default_rng(0))
        rounded = np.rint(arrivals).astype(np.int64)
        rounded = np.unique(rounded)  # response dedupes equal-ps tags
        expected = rounded[helpers.brute_dead_time(rounded, 130)]
        np.testing.assert_array_equal(tags, expected)

    def test_unsorted_input_rejected(self):
        cfg = DetectorConfig()
        with pytest.raises(ContractViolation):
            detector_response_traced(np.array([5.0, 1.0]), cfg, 1.0,
                                     np.random.default_rng(0))

    def test_jitter_perturbs_timestamps(self):
        cfg = DetectorConfig(efficiency=1.0, dark_rate_hz=0.0, jitter_ps=30.0,
                             dead_time_ps=0)
        arrivals = np.arange(1000, dtype=float) * 1e6 + 5e5
        tags, _ = detector_response_traced(arrivals, cfg, 1.1e-3,
                                           np.random.default_rng(3))
        residuals = tags - np.rint(arrivals).astype(np.int64)
        assert 20.0 < residuals.std() < 40.0

    def test_traced_origin_maps_back(self):
        cfg = DetectorConfig(efficiency=0.5, dark_rate_hz=1e6, jitter_ps=0.0,
                             dead_time_ps=0)
        arrivals = np.arange(100, dtype=float) * 1e4
        tags, origin = detector_response_traced(arrivals, cfg, 1e-6,
                                                np.random.default_rng(8))
        photon = origin >= 0
        np.testing.assert_array_equal(tags[photon],
                                      arrivals[origin[photon]].astype(np.int64))

    def test_out_of_range_tags_dropped(self):
        cfg = DetectorConfig(efficiency=1.0, dark_rate_hz=0.0, jitter_ps=0.0,
                             dead_time_ps=0)
        # the window is [0, 1000) ps: a tag at exactly 0 stays, one at
        # exactly the duration goes
        arrivals = np.array([-5.0, 0.0, 10.0, 1000.0, 2e6])
        tags, origin = detector_response_traced(arrivals, cfg, 1e-9,
                                                np.random.default_rng(0))
        np.testing.assert_array_equal(tags, np.array([0, 10]))
        np.testing.assert_array_equal(origin, np.array([1, 2]))

    def test_equal_picoseconds_keep_earlier_arrival(self):
        # with no dead time, two arrivals that round to one picosecond
        # still give one tag, traced to the earlier arrival
        cfg = DetectorConfig(efficiency=1.0, dark_rate_hz=0.0, jitter_ps=0.0,
                             dead_time_ps=0)
        arrivals = np.array([10.2, 10.4, 20.0])
        tags, origin = detector_response_traced(arrivals, cfg, 1e-9,
                                                np.random.default_rng(0))
        np.testing.assert_array_equal(tags, np.array([10, 20]))
        np.testing.assert_array_equal(origin, np.array([0, 2]))


class TestConfigValidation:
    def test_efficiency_range(self):
        with pytest.raises(ValueError):
            DetectorConfig(efficiency=1.2)

    def test_negative_dark_rate(self):
        with pytest.raises(ValueError):
            DetectorConfig(dark_rate_hz=-1)

    def test_negative_pair_rate(self):
        with pytest.raises(ValueError):
            SourceConfig(pair_rate_hz=0)

    def test_negative_dispersion_magnitude(self):
        with pytest.raises(ValueError):
            DispersionConfig(magnitude_ps_per_nm=-1)
