"""QKD post-processing: encoding, sifting, information estimates, rates,
and the nonlocal dispersion-cancellation properties end to end."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entnetsim import ItuChannel, build_plan
from entnetsim.analysis import link_matrix
from entnetsim.doqkd import (FrameConfig, QkdConfig, SiftedKeyMaterial,
                             analyze_link, basis_sift, bin_encode,
                             binary_entropy, estimate_qber,
                             monitor_broadening, mutual_information,
                             secure_key_rate, sift_frames,
                             timing_spread_iqr_ps)
from entnetsim.rates import jitter_floor_iqr_ps, monitor_expected_iqr_ps
from entnetsim.sim import run_scenario

import helpers
from test_sim import light_system

FRAMES16 = FrameConfig(frame_length_ps=1024, bins_per_frame=8, guard_band_ps=16)


def monitor_reach_window(res, ua, ub, qkd):
    """The LinkWindow of users ua and ub of a run at zero delays, matched
    at qkd.window_ps and reaching qkd's monitor half-window."""
    streams = {u: res.user_stream(u) for u in (ua, ub)}
    return link_matrix(streams, [(ua, ub)], {}, qkd.window_ps,
                       qkd.monitor_window_ps // 2)[(ua, ub)]


def material_from(symbols_a, symbols_b, d=8, discards=None):
    n = len(symbols_a)
    return SiftedKeyMaterial(frame_index=np.arange(n, dtype=np.int64),
                             symbol_a=np.asarray(symbols_a, dtype=np.int64),
                             symbol_b=np.asarray(symbols_b, dtype=np.int64),
                             bins_per_frame=d,
                             discards=discards or {})


def symmetric_material(q_num, q_den, per_cell, d=8):
    """Exact-count symmetric channel: per symbol, per_cell*(q_den-q_num)
    agreeing pairs and per_cell*q_num errors spread evenly over the d-1
    wrong symbols (requires q_num divisible by d-1)."""
    sa, sb = [], []
    for i in range(d):
        sa += [i] * per_cell * (q_den - q_num)
        sb += [i] * per_cell * (q_den - q_num)
        for j in range(d):
            if j != i:
                sa += [i] * (per_cell * q_num // (d - 1))
                sb += [j] * (per_cell * q_num // (d - 1))
    return material_from(sa, sb, d)


class TestFrameConfig:
    def test_bin_width(self):
        assert FRAMES16.bin_width_ps == 128

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            FrameConfig(bins_per_frame=6)

    def test_inexact_frame_split_rejected(self):
        with pytest.raises(ValueError):
            FrameConfig(frame_length_ps=1028, bins_per_frame=8)

    def test_wide_guard_rejected(self):
        with pytest.raises(ValueError):
            FrameConfig(guard_band_ps=64)

    @pytest.mark.parametrize("cls, name", [
        (FrameConfig, "frame_length_ps"), (QkdConfig, "window_ps"),
        (QkdConfig, "monitor_window_ps")])
    def test_zero_length_names_its_argument(self, cls, name):
        with pytest.raises(ValueError, match=rf"^{name}:"):
            cls(**{name: 0})


def encode(tags, frames=FRAMES16):
    """bin_encode's (frame, symbol, guard) of each tag, as Python tuples."""
    return list(zip(*(a.tolist() for a in bin_encode(np.array(tags), frames))))


class TestBinEncode:
    def test_tag_zero_guarded_boundary(self):
        assert encode([0]) == [(0, 0, True)]

    def test_tag_1000_symbol_seven(self):
        assert encode([1000]) == [(0, 7, False)]

    def test_tag_1030_next_frame_guarded(self):
        # 6 ps past the frame boundary, inside the 16 ps guard
        assert encode([1030]) == [(1, 0, True)]

    def test_guard_band_edges(self):
        # 16 is exactly at the guard edge, 112 is bin_width - guard
        guards = [g for _, _, g in encode([16, 15, 112, 113],
                                          FrameConfig(guard_band_ps=16))]
        assert guards == [False, True, False, True]

    def test_vectorized_matches_scalar(self):
        """The array encoding equals per-tag integer arithmetic."""
        tags = np.arange(0, 4096, 17)
        assert encode(tags) == [
            (t // 1024, t % 1024 // 128, not 16 <= t % 128 <= 112)
            for t in tags.tolist()]


class TestBasisSift:
    def test_classification(self):
        key, mon = basis_sift(np.array([0, 0, 1, 1]), np.array([1, 0, 0, 1]))
        np.testing.assert_array_equal(key, [True, False, True, False])
        np.testing.assert_array_equal(mon, [False, True, False, True])

    def test_key_fraction_near_half_on_simulated_link(self):
        plan = build_plan(1, 2, ItuChannel(40))
        sys_cfg = light_system(pair_rate=2e5, disp_mag=1980.0, jitter=20.0,
                               corr=2.0)
        res = run_scenario(plan, sys_cfg, 1.0, seed=6, collect_truth=False)
        qkd = QkdConfig()
        rep = analyze_link(monitor_reach_window(res, 0, 1, qkd),
                           qkd, 1.0, monitor_expected_ps=1576.0)
        key = rep.counts["key_pairs"]
        mon = rep.monitor.n_pairs
        assert 0.4 < key / (key + mon) < 0.6


class TestSiftFrames:
    def test_centered_pairs_all_kept(self):
        centers = np.arange(10, dtype=np.int64) * 1024 + 64  # bin-0 centers
        material = sift_frames(centers, centers.copy(), FRAMES16)
        assert len(material) == 10
        np.testing.assert_array_equal(material.symbol_a, material.symbol_b)
        assert sum(material.discards.values()) == 0
        assert np.all(np.diff(material.frame_index) > 0)

    def test_guard_straddling_pair_discarded(self):
        a = np.array([64, 1024 + 127], dtype=np.int64)  # second tag at boundary
        b = np.array([64, 1024 + 129], dtype=np.int64)
        material = sift_frames(a, b, FRAMES16)
        assert len(material) == 1
        assert material.discards["guard_band"] == 1

    def test_multi_event_frame_discarded(self):
        a = np.array([64, 192, 2048 + 64], dtype=np.int64)  # two in frame 0
        material = sift_frames(a, a.copy(), FRAMES16)
        assert len(material) == 1
        assert material.discards["multi_event_frame"] == 2

    def test_frame_mismatch_discarded(self):
        a = np.array([1024 - 64], dtype=np.int64)
        b = np.array([1024 + 64], dtype=np.int64)
        material = sift_frames(a, b, FRAMES16)
        assert len(material) == 0
        assert material.discards["frame_mismatch"] == 1


class TestQber:
    def test_identical_sequences(self):
        m = material_from([0, 1, 2, 3], [0, 1, 2, 3])
        assert estimate_qber(m) == 0.0

    def test_one_error_in_hundred(self):
        sa = [0] * 100
        sb = [0] * 99 + [1]
        assert estimate_qber(material_from(sa, sb)) == pytest.approx(0.01)

    def test_uniform_accidentals_near_seven_eighths(self):
        rng = np.random.default_rng(14)
        n = 20_000
        m = material_from(rng.integers(0, 8, n), rng.integers(0, 8, n))
        p = 7.0 / 8.0
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(estimate_qber(m) - p) < 5 * sigma

    def test_empty_material_rejected(self):
        with pytest.raises(ValueError):
            estimate_qber(material_from([], []))


class TestMutualInformation:
    def test_perfect_uniform_exactly_three_bits(self):
        symbols = np.repeat(np.arange(8), 100)
        m = material_from(symbols, symbols.copy())
        assert mutual_information(m) == pytest.approx(3.0, abs=1e-12)

    def test_independent_uniform_near_zero(self):
        rng = np.random.default_rng(15)
        n = 64_000
        m = material_from(rng.integers(0, 8, n), rng.integers(0, 8, n))
        assert mutual_information(m) < 0.02  # plug-in bias only

    def test_symmetric_channel_closed_form(self):
        # Q = 2/16 with exact per-cell counts: the plug-in estimate equals
        # log2(8) - h2(Q) - Q*log2(7) up to float rounding
        m = symmetric_material(q_num=2, q_den=16, per_cell=7)
        q = estimate_qber(m)
        assert q == pytest.approx(0.125)
        expected = 3.0 - binary_entropy(q) - q * math.log2(7)
        assert mutual_information(m) == pytest.approx(expected, rel=1e-12)

    def test_warns_on_tiny_sample(self):
        m = material_from([0, 1], [0, 1])
        with pytest.warns(UserWarning):
            mutual_information(m)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 4, 8, 16]).flatmap(lambda d: st.tuples(
        st.just(d), st.lists(st.tuples(st.integers(0, d - 1),
                                        st.integers(0, d - 1)),
                             min_size=1, max_size=400))))
    def test_matches_add_at_oracle(self, case):
        d, pairs = case
        sa, sb = zip(*pairs)
        m = material_from(sa, sb, d=d)
        assert (mutual_information(m).hex()
                == helpers.ref_mutual_information(m).hex())


class TestSecureKeyRate:
    def mk_monitor(self):
        return monitor_broadening(np.linspace(-800, 800, 100), 790.0)

    def test_perfect_uniform_secret_three_bits(self):
        symbols = np.repeat(np.arange(8), 100)
        m = material_from(symbols, symbols.copy())
        rep = secure_key_rate(m, sifted_rate_sym_s=10.0, beta=1.0,
                              monitor=self.mk_monitor())
        assert rep.secret_fraction_bits == pytest.approx(3.0, abs=1e-12)
        assert rep.secure_rate_bps == pytest.approx(30.0, abs=1e-9)

    def test_high_qber_clamps_to_zero(self):
        m = symmetric_material(q_num=8, q_den=16, per_cell=7)  # Q = 0.5
        rep = secure_key_rate(m, sifted_rate_sym_s=100.0, beta=0.9,
                              monitor=self.mk_monitor())
        assert rep.secret_fraction_bits == 0.0
        assert rep.secure_rate_bps == 0.0

    def test_monotone_nonincreasing_in_qber(self):
        fractions = []
        for q_num in range(0, 15):
            m = symmetric_material(q_num=q_num, q_den=16, per_cell=7)
            rep = secure_key_rate(m, 1.0, beta=0.9, monitor=self.mk_monitor())
            fractions.append(rep.secret_fraction_bits)
        assert all(a >= b - 1e-12 for a, b in zip(fractions, fractions[1:]))

    def test_beta_validated(self):
        m = material_from([0], [0])
        with pytest.raises(ValueError):
            secure_key_rate(m, 1.0, beta=0.0, monitor=self.mk_monitor())

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    min_size=1, max_size=300))
    def test_secret_fraction_bounded_by_three_bits(self, pairs):
        sa = [p[0] for p in pairs]
        sb = [p[1] for p in pairs]
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = secure_key_rate(material_from(sa, sb), 5.0, beta=1.0,
                                  monitor=self.mk_monitor())
        assert 0.0 <= rep.secret_fraction_bits <= 3.0 + 1e-12
        assert rep.secure_rate_bps == pytest.approx(
            5.0 * rep.secret_fraction_bits)


class TestMonitorBroadening:
    @pytest.mark.parametrize("n_pairs", [0, 1])
    def test_too_few_pairs_inconclusive(self, n_pairs):
        spread = monitor_broadening(np.ones(n_pairs), 100.0)
        assert math.isnan(spread.spread_ps)
        assert spread.n_pairs == n_pairs and spread.expected_ps == 100.0
        assert spread.inconclusive is True and spread.anomalous is False

    def test_uniform_envelope_iqr_is_half_width(self):
        rng = np.random.default_rng(16)
        deltas = rng.uniform(-1576, 1576, size=50_000)
        spread = monitor_broadening(deltas, expected_ps=1576.0)
        assert spread.spread_ps == pytest.approx(1576.0, rel=0.02)
        assert not spread.anomalous and not spread.inconclusive

    def test_anomaly_flagged_when_wider_than_expected(self):
        rng = np.random.default_rng(17)
        deltas = rng.uniform(-1576 * 1.6, 1576 * 1.6, size=5_000)
        spread = monitor_broadening(deltas, expected_ps=1576.0)
        assert spread.anomalous


def _magnitudes(rng, n, kind):
    """n finite floats: integers, mixed exponents up to 2**52, or ties."""
    if kind == "int":
        return rng.integers(-4096, 4096, n).astype(float)
    if kind == "ties":
        return rng.choice(rng.normal(0, 100, 3), n)
    scale = 2.0 ** rng.integers(-8, 53, n)
    return np.clip(rng.standard_normal(n) * scale, -2.0**52, 2.0**52)


@st.composite
def delay_samples(draw):
    """Samples of 2-5 values drawn value by value, or up to 10**4 values
    from a seeded generator."""
    finite = st.one_of(st.integers(-2**52, 2**52).map(float),
                       st.floats(-2.0**52, 2.0**52, allow_nan=False),
                       st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0**52]))
    if draw(st.booleans()):
        return np.asarray(draw(st.lists(finite, min_size=2, max_size=5)))
    n = draw(st.one_of(st.integers(2, 64), st.integers(2, 10**4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _magnitudes(rng, n, draw(st.sampled_from(["int", "ties", "wide"])))


class TestTimingSpreadIqr:
    @settings(max_examples=1000, deadline=None)
    @given(delay_samples())
    def test_bit_identical_to_percentile(self, deltas):
        q75, q25 = np.percentile(deltas, [75.0, 25.0])
        assert (timing_spread_iqr_ps(deltas).hex()
                == float(q75 - q25).hex())

    def test_short_sample_is_nan(self):
        assert math.isnan(timing_spread_iqr_ps(np.array([3.0])))


class TestDispersionCancellation:
    def run_link(self, bandwidth, seed=20, jitter=30.0, corr=2.0):
        plan = build_plan(1, 2, ItuChannel(40))
        sys_cfg = light_system(pair_rate=2e5, disp_mag=1980.0, jitter=jitter,
                               corr=corr)
        sys_cfg = type(sys_cfg)(
            source=type(sys_cfg.source)(pair_rate_hz=2e5,
                                        bandwidth_ghz=bandwidth,
                                        correlation_jitter_ps=corr),
            detector=sys_cfg.detector,
            dispersion=sys_cfg.dispersion,
            losses=sys_cfg.losses)
        res = run_scenario(plan, sys_cfg, 1.0, seed=seed, collect_truth=False)
        qkd = QkdConfig(frames=FRAMES16, window_ps=512, monitor_window_ps=8192)
        pair = plan.resource_by_id(1)
        rep = analyze_link(monitor_reach_window(res, 0, 1, qkd),
                           qkd, 1.0,
                           monitor_expected_ps=monitor_expected_iqr_ps(
                               pair, sys_cfg))
        return rep, sys_cfg

    def test_matched_basis_spread_independent_of_bandwidth(self):
        floors = []
        for bw in (10.0, 50.0, 100.0):
            rep, sys_cfg = self.run_link(bw)
            floor = jitter_floor_iqr_ps(sys_cfg)
            floors.append(rep.key_spread_ps / floor)
        # nonlocal cancellation: spread stays at the jitter floor
        assert all(0.8 < f < 1.2 for f in floors)

    def test_same_sign_spread_grows_linearly_with_bandwidth(self):
        spreads = {}
        for bw in (10.0, 50.0, 100.0):
            rep, _ = self.run_link(bw)
            spreads[bw] = rep.monitor.spread_ps
        assert spreads[100.0] / spreads[10.0] == pytest.approx(10.0, rel=0.25)
        assert spreads[50.0] / spreads[10.0] == pytest.approx(5.0, rel=0.25)

    def test_same_sign_spread_matches_envelope_expectation(self):
        rep, sys_cfg = self.run_link(100.0)
        assert rep.monitor.spread_ps == pytest.approx(rep.monitor.expected_ps,
                                                      rel=0.1)
        assert not rep.monitor.anomalous

    def test_qber_vanishes_without_jitter(self):
        # common-mode dispersion shifts preserve symbol agreement exactly;
        # genuine pairs (truth-identified) never disagree at zero jitter,
        # and residual aggregate errors are accidental-only
        plan = build_plan(1, 2, ItuChannel(40))
        sys_cfg = light_system(pair_rate=2e5, disp_mag=1980.0, jitter=0.0,
                               corr=0.0, dark=0.0)
        res = run_scenario(plan, sys_cfg, 1.0, seed=20)
        from entnetsim.analysis import match_coincidences
        ta, pa = helpers.unpack(res.user_stream(0))
        tb, pb = helpers.unpack(res.user_stream(1))
        ra, rb = res.tag_pair_rows[0], res.tag_pair_rows[1]
        m = match_coincidences(ta, tb, 512)
        key_mask, _ = basis_sift(pa[m.index_a], pb[m.index_b])
        genuine = (ra[m.index_a] >= 0) & (ra[m.index_a] == rb[m.index_b])
        clean = sift_frames(m.times_a[key_mask & genuine],
                            m.times_b[key_mask & genuine], FRAMES16)
        assert len(clean) > 100
        assert estimate_qber(clean) == 0.0
        raw = sift_frames(m.times_a[key_mask], m.times_b[key_mask], FRAMES16)
        assert estimate_qber(raw) < 1e-3


class TestContaminationDirection:
    def test_truth_filtered_rate_exceeds_contaminated(self):
        # accidental-dominated regime: removing contamination (by truth-log
        # pair identity) must raise the secure rate
        plan = build_plan(1, 2, ItuChannel(40))
        sys_cfg = light_system(pair_rate=1e5, dark=3e5, jitter=5.0)
        duration = 4.0
        res = run_scenario(plan, sys_cfg, duration, seed=33)
        from entnetsim.analysis import match_coincidences
        ta, pa = helpers.unpack(res.user_stream(0))
        tb, pb = helpers.unpack(res.user_stream(1))
        ra, rb = res.tag_pair_rows[0], res.tag_pair_rows[1]
        m = match_coincidences(ta, tb, 128)
        key_mask, _ = basis_sift(pa[m.index_a], pb[m.index_b])
        genuine = (ra[m.index_a] >= 0) & (ra[m.index_a] == rb[m.index_b])

        frames = FRAMES16
        raw = sift_frames(m.times_a[key_mask], m.times_b[key_mask], frames)
        sel = key_mask & genuine
        clean = sift_frames(m.times_a[sel], m.times_b[sel], frames)
        mon = monitor_broadening(np.array([0.0, 1.0]), 0.0)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep_raw = secure_key_rate(raw, len(raw) / duration, 0.9, mon)
            rep_clean = secure_key_rate(clean, len(clean) / duration, 0.9, mon)
        assert estimate_qber(raw) > estimate_qber(clean)
        assert rep_clean.secure_rate_bps > rep_raw.secure_rate_bps


class TestAnalyzeLinkSmoke:
    def test_calibrated_intra_link(self, reference_plan):
        from entnetsim.sim import SystemConfig
        sys_cfg = SystemConfig()
        res = run_scenario(reference_plan, sys_cfg, 5.0, seed=44,
                           selected_users=[2, 3], collect_truth=False)
        qkd = QkdConfig()
        pair = reference_plan.resource_by_id(1)
        rep = analyze_link(monitor_reach_window(res, 2, 3, qkd),
                           qkd, 5.0,
                           monitor_expected_ps=monitor_expected_iqr_ps(
                               pair, sys_cfg))
        assert rep.qber < 0.08
        assert 0 < rep.secret_fraction_bits <= 3.0
        assert rep.secure_rate_bps > 10
        assert rep.discards["basis_mismatch"] > 0
        assert rep.monitor.n_pairs > 100

    @pytest.mark.parametrize("duration_s", [0, -1, math.nan, math.inf])
    def test_bad_duration_refused(self, duration_s):
        """A duration that is not finite and positive is refused by name,
        not turned into a nan or zero rate."""
        plan = build_plan(1, 2, ItuChannel(40))
        res = run_scenario(plan, light_system(), 0.5, seed=3,
                           collect_truth=False)
        qkd = QkdConfig()
        with pytest.raises(ValueError, match=r"^duration_s:"):
            analyze_link(monitor_reach_window(res, 0, 1, qkd), qkd,
                         duration_s)


def test_timing_spread_iqr_gaussian():
    rng = np.random.default_rng(18)
    deltas = rng.normal(0, 100.0, size=100_000)
    assert timing_spread_iqr_ps(deltas) == pytest.approx(134.9, rel=0.03)
