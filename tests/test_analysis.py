"""Coincidence analysis: histograms, matching, CAR, link matrix."""

import math
import os
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from entnetsim import ItuChannel, analysis, build_plan, sim
from entnetsim._kernels import pack_paths, tag_at, tag_times
from entnetsim.analysis import (CAR_CAP, CorrelationHistogram, compute_car,
                                cross_correlate, link_histogram, link_matrix,
                                match_coincidences)
from entnetsim.config import default_config, with_overrides
from entnetsim.doqkd import (QkdConfig, analyze_link, monitor_deltas,
                             sift_frames)
from entnetsim.photonics import ContractViolation
from entnetsim.rates import expected_accidental_rate
from entnetsim.report import (run_bundle, write_bundle,
                              write_histograms_csv)
from entnetsim.sim import SystemConfig, fiber_delay_ps, run_scenario

import helpers
from test_sim import _assert_no_child, light_system


def poisson_stream(rng, rate_hz, duration_s):
    n = rng.poisson(rate_hz * duration_s)
    return np.sort(rng.integers(0, int(duration_s * 1e12), size=n,
                                dtype=np.int64))


class TestCrossCorrelate:
    def test_identical_single_tag(self):
        a = np.array([1000], dtype=np.int64)
        hist = cross_correlate(a, a, 128, 33 * 128)
        assert hist.counts.sum() == 1
        assert hist.counts[hist.n_bins // 2] == 1
        assert hist.delays_ps()[hist.n_bins // 2] == 0

    def test_flat_accidental_floor(self):
        rng = np.random.default_rng(50)
        r1 = r2 = 5e5
        t = 1.0
        a = poisson_stream(rng, r1, t)
        b = poisson_stream(rng, r2, t)
        hist = cross_correlate(a, b, 128, 33 * 128)
        per_bin = r1 * r2 * t * 128e-12
        mean = hist.counts.mean()
        sigma = math.sqrt(per_bin / hist.n_bins)
        assert abs(mean - per_bin) < 5 * sigma
        assert stats.chisquare(hist.counts).pvalue > 0.001

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        a = poisson_stream(rng, 2e5, 0.001)
        b = poisson_stream(rng, 2e5, 0.001)
        hist = cross_correlate(a, b, 64, 1024, offset_ps=37)
        expected = helpers.brute_histogram(a, b, 37, 64, hist.n_bins)
        np.testing.assert_array_equal(hist.counts, expected)

    def test_entangled_peak_at_configured_delay(self):
        plan = build_plan(1, 2, ItuChannel(40))
        sys_cfg = light_system(pair_rate=1e5, fiber={1: 1.0})
        sys_cfg.losses.fiber_km[1] = 1.0
        res = run_scenario(plan, sys_cfg, 0.2, seed=3, collect_truth=False)
        ta = tag_times(res.user_stream(0))
        tb = tag_times(res.user_stream(1))
        offset = fiber_delay_ps(sys_cfg.losses, 1) - 0
        hist = cross_correlate(ta, tb, 128, 33 * 128, offset_ps=offset)
        assert int(np.argmax(hist.counts)) == hist.n_bins // 2

    def test_unsorted_rejected(self):
        with pytest.raises(ContractViolation):
            cross_correlate(np.array([5, 1]), np.array([1]), 10, 100)

    def test_histogram_csv(self, tmp_path):
        hist = cross_correlate(np.array([0, 100]), np.array([50]), 64, 640)
        out = tmp_path / "h.csv"
        write_histograms_csv({(0, 1): hist}, out)
        lines = out.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert meta == ["# bin_width_ps=64", "# duration_ps=0"]
        header_idx = lines.index(
            "user_a,user_b,offset_ps,singles_a,singles_b,delay_ps,counts")
        rows = lines[header_idx + 1:]
        assert len(rows) == hist.n_bins
        assert all(r.startswith("0,1,0,2,1,") for r in rows)


    def test_even_bin_count(self, tmp_path):
        even = CorrelationHistogram(
            bin_width_ps=10, offset_ps=0, counts=np.arange(4, dtype=np.int64),
            singles_a=0, singles_b=0, duration_ps=0)
        odd = CorrelationHistogram(
            bin_width_ps=10, offset_ps=5, counts=np.arange(3, dtype=np.int64),
            singles_a=1, singles_b=2, duration_ps=0)
        assert even.delays_ps().tolist() == [-20, -10, 0, 10]
        assert odd.delays_ps().tolist() == [-10, 0, 10]
        out = tmp_path / "h.csv"
        write_histograms_csv({(0, 1): even, (2, 3): odd}, out)
        rows = out.read_text().splitlines()[3:]
        assert [int(r.split(",")[5]) for r in rows] == [-20, -10, 0, 10,
                                                        -10, 0, 10]
        assert list(helpers.read_histograms_csv(out)) == [(0, 1), (2, 3)]


class TestMatchCoincidences:
    def test_half_width_inclusive(self):
        # 128 ps full window -> half-width 64, |150-100| = 50 matches
        m = match_coincidences(np.array([100]), np.array([150]), 128)
        assert len(m) == 1
        # just outside: |165-100| = 65 > 64
        m = match_coincidences(np.array([100]), np.array([165]), 128)
        assert len(m) == 0

    def test_two_isolated_pairs(self):
        a = np.array([0, 1000], dtype=np.int64)
        m = match_coincidences(a, a.copy(), 128)
        assert len(m) == 2

    def test_one_to_one_no_double_count(self):
        a = np.array([0], dtype=np.int64)
        b = np.array([10, 20], dtype=np.int64)
        m = match_coincidences(a, b, 128)
        assert len(m) == 1 and m.times_b[0] == 10

    def test_matches_brute_force_large(self):
        rng = np.random.default_rng(77)
        a = np.sort(rng.integers(0, 10_000_000, size=10_000, dtype=np.int64))
        b = np.sort(rng.integers(0, 10_000_000, size=10_000, dtype=np.int64))
        m = match_coincidences(a, b, 128, offset_ps=-55)
        ea, eb = helpers.brute_greedy_match_vec(a, b, -55, 64)
        np.testing.assert_array_equal(m.index_a, ea)
        np.testing.assert_array_equal(m.index_b, eb)

    def test_deltas_relative_to_offset(self):
        m = match_coincidences(np.array([100]), np.array([160]), 128,
                               offset_ps=50)
        np.testing.assert_array_equal(m.deltas_ps(), [10])


class TestComputeCar:
    def test_flat_histogram_car_near_one(self):
        rng = np.random.default_rng(4)
        a = poisson_stream(rng, 1e6, 0.5)
        b = poisson_stream(rng, 1e6, 0.5)
        hist = cross_correlate(a, b, 128, 65 * 128)
        est = compute_car(hist, 128)
        assert 0.5 < est.car < 2.0
        assert not est.capped

    def test_delta_peak_on_zero_floor_capped(self):
        a = np.arange(0, 10_000_000, 10_000, dtype=np.int64)
        hist = cross_correlate(a, a.copy(), 128, 33 * 128)
        est = compute_car(hist, 128)
        assert est.capped and est.car == CAR_CAP

    def test_empty_histogram_car_nan(self):
        """No peak on no floor is 0/0: nan, not a capped CAR."""
        empty = np.empty(0, dtype=np.int64)
        est = compute_car(cross_correlate(empty, empty, 128, 33 * 128), 128)
        assert np.isnan(est.car) and not est.capped
        assert (est.peak_counts, est.accidental_per_window) == (0, 0.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(12)
        a = poisson_stream(rng, 3e5, 0.05)
        b = poisson_stream(rng, 3e5, 0.05)
        h1 = cross_correlate(a, b, 128, 33 * 128)
        h2 = cross_correlate(a + 123_456, b + 123_456, 128, 33 * 128)
        np.testing.assert_array_equal(h1.counts, h2.counts)
        assert compute_car(h1, 128).car == compute_car(h2, 128).car

    def test_guard_region_excluded_from_floor(self):
        # leakage adjacent to the peak must not inflate the accidental floor
        counts = np.zeros(33, dtype=np.int64)
        counts[16] = 1000
        counts[15] = counts[17] = 200  # in-guard leakage
        off_peak = 4
        counts[:13] = off_peak
        counts[20:] = off_peak
        hist = cross_correlate(np.array([0]), np.array([0]), 128, 33 * 128)
        hist = type(hist)(bin_width_ps=128, offset_ps=0, counts=counts,
                          singles_a=0, singles_b=0, duration_ps=0)
        est = compute_car(hist, 128)
        assert est.car == pytest.approx(1000 / off_peak)

    def test_no_off_peak_bins_rejected(self):
        hist = cross_correlate(np.array([0]), np.array([0]), 128, 3 * 128)
        with pytest.raises(ValueError):
            compute_car(hist, 128)


class TestTruthLogValidation:
    def test_accidental_floor_of_uncorrelated_subsets(self):
        # dark-count tags (truth row -1) are mutually uncorrelated; their
        # cross-correlation must be flat at r1*r2*T*bin_width per bin
        plan = build_plan(1, 2, ItuChannel(40))
        sys_cfg = light_system(pair_rate=1e4, dark=2e5, jitter=0.0)
        duration = 2.0
        res = run_scenario(plan, sys_cfg, duration, seed=52)
        ta = tag_times(res.user_stream(0))
        tb = tag_times(res.user_stream(1))
        dark_a = ta[res.tag_pair_rows[0] == -1]
        dark_b = tb[res.tag_pair_rows[1] == -1]
        hist = cross_correlate(dark_a, dark_b, 128, 65 * 128)
        r1 = dark_a.size / duration
        r2 = dark_b.size / duration
        per_bin = r1 * r2 * duration * 128e-12
        sigma = math.sqrt(per_bin / hist.n_bins)
        assert abs(hist.counts.mean() - per_bin) < 5 * sigma
        assert stats.chisquare(hist.counts).pvalue > 0.001

    def test_histogram_car_agrees_with_truth_classification(self):
        # dark-heavy configuration so the accidental floor is populated
        plan = build_plan(1, 2, ItuChannel(40))
        sys_cfg = light_system(pair_rate=2e5, dark=2e5, jitter=5.0)
        duration = 5.0
        res = run_scenario(plan, sys_cfg, duration, seed=41)
        ta = tag_times(res.user_stream(0))
        tb = tag_times(res.user_stream(1))
        rows_a = res.tag_pair_rows[0]
        rows_b = res.tag_pair_rows[1]

        window = 128
        m = match_coincidences(ta, tb, window)
        ra, rb = rows_a[m.index_a], rows_b[m.index_b]
        true_matches = int(np.count_nonzero((ra >= 0) & (ra == rb)))
        accidental = len(m) - true_matches
        assert accidental > 20  # enough statistics to compare against

        hist = cross_correlate(ta, tb, window, 33 * window)
        est = compute_car(hist, window)
        car_truth = true_matches / accidental
        assert 0.5 < est.car / car_truth < 2.0


class TestExpectedAccidentals:
    def test_off_peak_bins_match_closed_form(self):
        """In a direct-detection figures run every histogram bin outside
        the peak and its guard holds only accidentals, whose count
        rates.expected_accidental_rate predicts per link and pooled.
        (2 s at seed 42: 2294 counted against 2251 expected, z = 0.9.)"""
        cfg = with_overrides(default_config(), links="figures", seed=42,
                             duration_s=2.0, direct_detection=True)
        bundle = run_bundle(cfg)
        counted = expected = 0.0
        for (ua, ub), rec in bundle.records.items():
            hist = rec.histogram
            peak = compute_car(hist, hist.bin_width_ps).peak_bin
            off = np.ones(hist.n_bins, dtype=bool)
            off[max(0, peak - analysis.GUARD_WINDOWS):
                peak + analysis.GUARD_WINDOWS + 1] = False
            n = int(hist.counts[off].sum())
            mean = (expected_accidental_rate(bundle.plan, cfg.system(), ua,
                                             ub, hist.bin_width_ps)
                    * cfg.duration_s * np.count_nonzero(off))
            assert abs(n - mean) < 5 * math.sqrt(mean), (ua, ub, n, mean)
            counted += n
            expected += mean
        assert len(bundle.records) == 42
        assert abs(counted - expected) < 5 * math.sqrt(expected)


class TestLinkMatrix:
    def test_reference_subset(self, reference_plan):
        sys_cfg = SystemConfig()
        users = [0, 1, 8]
        res = run_scenario(reference_plan, sys_cfg, 1.0, seed=9,
                           selected_users=users, collect_truth=False)
        streams = {u: res.user_stream(u) for u in users}
        delays = {u: fiber_delay_ps(sys_cfg.losses, u) for u in users}
        links = [(0, 1), (0, 8)]
        windows = link_matrix(streams, links, delays, 128, 2112)
        assert list(windows) == links
        assert all(len(win.matches) > 0 for win in windows.values())

    def test_bundle_reports(self):
        cfg = with_overrides(default_config(), duration_s=1.0, seed=9,
                             links="0-1,0-8")
        reports = run_bundle(cfg).records
        assert [r.kind for r in reports.values()] == ["intra", "inter"]
        assert reports[(0, 1)].resource_id == 1
        assert reports[(0, 8)].resource_id == 6
        assert all(r.coincidences > 0 for r in reports.values())

    def test_links_csv_format(self, tmp_path):
        cfg = with_overrides(default_config(), duration_s=0.2, seed=2,
                             links="0-1")
        write_bundle(run_bundle(cfg), str(tmp_path), wall_time_s=0.0)
        lines = (tmp_path / "links.csv").read_text().splitlines()
        assert lines[0] == "user_a,user_b,kind,resource_id,coincidences,car,duration_s"
        assert lines[1].startswith("0,1,intra,1,")

    def test_unsorted_user_stream_rejected(self):
        streams = {0: tag_at(np.array([5, 1])), 1: tag_at(np.array([1]))}
        with pytest.raises(ContractViolation, match="user 0"):
            link_matrix(streams, [(0, 1)], {}, 128, 2112)

    def test_reach_below_half_window_rejected(self):
        streams = {u: tag_at(np.array([1])) for u in (0, 1)}
        link_matrix(streams, [(0, 1)], {}, 128, 64)
        with pytest.raises(ValueError, match="reach_ps"):
            link_matrix(streams, [(0, 1)], {}, 128, 63)

    def test_histogram_needs_its_span_within_reach(self):
        streams = {u: tag_at(np.array([1])) for u in (0, 1)}
        half_span = analysis.HIST_BINS * 128 // 2
        win = link_matrix(streams, [(0, 1)], {}, 128, half_span)[(0, 1)]
        assert link_histogram(win, 128, 10**12).counts.sum() == 1
        win = link_matrix(streams, [(0, 1)], {}, 128, half_span - 1)[(0, 1)]
        with pytest.raises(ValueError, match="histogram"):
            link_histogram(win, 128, 10**12)


@st.composite
def link_case(draw):
    """Two streams of packed tags (2 * t + path, sorted) whose pairs sit at
    the edges of every window.

    Tags come in bursts (gaps up to one coincidence window, so candidate
    windows overlap); b holds partners of a-tags at the histogram edges,
    at +-window//2 and +-monitor_window//2 and one past each, plus bursts
    of its own.
    """
    window = draw(st.integers(2, 40))
    n_bins = draw(st.sampled_from([9, 11, 13]))
    span = n_bins * window
    lo = -(span // 2)
    hi = lo + span - 1
    monitor_window = draw(st.one_of(st.integers(1, span),
                                    st.integers(span + 1, 3 * span)))
    offset = draw(st.integers(-3 * span, 3 * span))

    def bursts():
        times = []
        for _ in range(draw(st.integers(0, 5))):
            start = draw(st.integers(0, 20 * span))
            gaps = draw(st.lists(st.integers(0, window), max_size=6))
            times.extend(start + np.cumsum([0] + gaps))
        return times

    a = bursts()
    edges = [0, lo, hi, lo - 1, hi + 1]
    for half in (window // 2, monitor_window // 2):
        edges += [half, -half, half + 1, -half - 1]
    deltas = draw(st.lists(st.one_of(st.sampled_from(edges),
                                     st.integers(lo - window, hi + window)),
                           max_size=len(a)))
    b = [a[i] + offset + d for i, d in enumerate(deltas)] + bursts()
    a = np.sort(np.asarray(a, dtype=np.int64))
    b = np.sort(np.asarray(b, dtype=np.int64))

    def packed(t, one_path):
        if one_path:  # the other path's substream is empty
            paths = np.full(t.size, draw(st.integers(0, 1)))
        else:
            paths = np.asarray(draw(st.lists(st.integers(0, 1),
                                             min_size=t.size,
                                             max_size=t.size)), dtype=np.int64)
        return np.sort(pack_paths(t[paths == 0], t[paths == 1]))

    one_path = draw(st.sampled_from(["none", "a", "b"]))
    return (packed(a, one_path == "a"), packed(b, one_path == "b"), offset,
            window, n_bins, monitor_window)


@pytest.mark.filterwarnings("ignore:only .* symbol pairs")
@settings(max_examples=300, deadline=None)
@given(link_case())
def test_link_window_equals_full_streams(case):
    """Histogram, narrow matches, monitor pairs and key counts of a link
    computed on its candidate tags equal those of the full streams."""
    tags_a, tags_b, offset, window, n_bins, monitor_window = case
    (a, pa), (b, pb) = helpers.unpack(tags_a), helpers.unpack(tags_b)
    qkd = QkdConfig(window_ps=window, monitor_window_ps=monitor_window)
    reach = max(n_bins * window // 2, monitor_window // 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "HIST_BINS", n_bins)
        win = link_matrix({0: tags_a, 1: tags_b}, [(0, 1)],
                          {0: 0, 1: offset}, window, reach)[(0, 1)]
        hist = link_histogram(win, window, 10**12)

    ref_hist = cross_correlate(a, b, window, n_bins * window, offset_ps=offset,
                               duration_ps=10**12)
    np.testing.assert_array_equal(hist.counts, ref_hist.counts)
    assert ((hist.singles_a, hist.singles_b, hist.duration_ps)
            == (ref_hist.singles_a, ref_hist.singles_b, ref_hist.duration_ps))

    ref = match_coincidences(a, b, window, offset_ps=offset)
    assert len(win.matches) == len(ref)
    np.testing.assert_array_equal(win.index_a[win.matches.index_a], ref.index_a)
    np.testing.assert_array_equal(win.index_b[win.matches.index_b], ref.index_b)

    ref_mon = np.concatenate([
        match_coincidences(a[pa == p], b[pb == p], monitor_window,
                           offset_ps=offset).deltas_ps() for p in (0, 1)])
    np.testing.assert_array_equal(monitor_deltas(win, monitor_window), ref_mon)

    key = pa[ref.index_a] != pb[ref.index_b]
    material = sift_frames(ref.times_a[key], ref.times_b[key] - offset,
                           qkd.frames)
    rep = analyze_link(win, qkd, 1.0)
    assert rep.counts == {"matched_pairs": len(ref),
                          "key_pairs": int(np.count_nonzero(key)),
                          "sifted_pairs": len(material)}
    assert rep.monitor.n_pairs == ref_mon.size
    assert rep.discards == {**material.discards,
                            "basis_mismatch": int(np.count_nonzero(~key))}


@st.composite
def network_case(draw):
    """Packed streams of 3..6 users with distinct delays, bigger than many
    of their tag times so shifted times go negative. Tags of different
    users sit at shifted distances 0, the link reach and one past it;
    some streams are empty or hold a single tag."""
    window = draw(st.integers(2, 20))
    monitor_window = draw(st.integers(1, 4 * window))
    n_bins = draw(st.sampled_from([9, 11, 13]))
    span = n_bins * window
    reach = max(span // 2, span - span // 2 - 1, window // 2,
                monitor_window // 2)
    users = list(range(draw(st.integers(3, 6))))
    delays = draw(st.lists(st.integers(0, 30 * reach), min_size=len(users),
                           max_size=len(users), unique=True))
    times = {u: [] for u in users}
    for u in users:
        size = draw(st.sampled_from(["empty", "single", "bursts"]))
        if size == "single":
            times[u].append(draw(st.integers(0, 40 * reach)))
        elif size == "bursts":
            for _ in range(draw(st.integers(1, 4))):
                start = draw(st.integers(0, 40 * reach))
                gaps = draw(st.lists(st.integers(0, 2 * reach), max_size=5))
                times[u].extend(start + np.cumsum([0] + gaps))
    # partners across users, in shifted time (t - delay)
    for _ in range(draw(st.integers(0, 8))):
        ua, ub = draw(st.lists(st.sampled_from(users), min_size=2,
                               max_size=2, unique=True))
        ta = draw(st.integers(0, 40 * reach))
        gap = draw(st.sampled_from([0, reach, -reach, reach + 1,
                                    -reach - 1]))
        tb = ta - delays[ua] + delays[ub] + gap
        if tb >= 0:
            times[ua].append(ta)
            times[ub].append(tb)
    streams = {}
    for u in users:
        t = np.sort(np.asarray(times[u], dtype=np.int64))
        paths = np.asarray(draw(st.lists(st.integers(0, 1), min_size=t.size,
                                         max_size=t.size)), dtype=np.int64)
        streams[u] = np.sort(pack_paths(t[paths == 0], t[paths == 1]))
    pairs = list(combinations(users, 2))
    links = draw(st.lists(st.sampled_from(pairs), min_size=1,
                          max_size=len(pairs), unique=True))
    # links listed high user first (5-2), and links listed twice
    links = [(ub, ua) if draw(st.booleans()) else (ua, ub)
             for ua, ub in links]
    links += draw(st.lists(st.sampled_from(links), max_size=2))
    return (streams, dict(zip(users, delays)), links, window, n_bins,
            monitor_window, reach)


# (POOL_TAGS, processes) of the sweep tests: every slab size, the sweep
# split across 2 and 3 processes with a process boundary between slabs,
# and in one process; one slab is never split.
SLABS_AND_WORKERS = ((1, 2), (2, 3), (3, 1), (analysis.POOL_TAGS, 2))


@pytest.mark.filterwarnings("ignore:only .* symbol pairs")
@settings(max_examples=300, deadline=None)
@given(network_case())
def test_pooled_filter_equals_full_streams(case):
    """link_matrix pre-filters all user streams in pooled time slabs; for
    every slab size each link's LinkWindow and histogram equal those of
    link_matrix on the link's two streams alone, and its histogram that
    of cross_correlate on the two full streams, the sweep split across
    processes or not."""
    streams, delays, links, window, n_bins, _monitor, reach = case
    duration_ps = 10**12
    expected = {}
    for ua, ub in links:
        two = {u: streams[u] for u in (ua, ub)}
        win = link_matrix(two, [(ua, ub)], delays, window, reach)[(ua, ub)]
        hist = cross_correlate(tag_times(streams[ua]), tag_times(streams[ub]),
                               window, n_bins * window,
                               offset_ps=delays[ub] - delays[ua],
                               duration_ps=duration_ps)
        expected[(ua, ub)] = win, hist
    for slab, workers in SLABS_AND_WORKERS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "POOL_TAGS", slab)
            mp.setattr(analysis, "HIST_BINS", n_bins)
            mp.setattr(sim, "_workers", lambda: workers)
            windows = link_matrix(streams, links, delays, window, reach)
            hists = {link: link_histogram(win, window, duration_ps)
                     for link, win in windows.items()}
        assert list(windows) == list(dict.fromkeys(links))
        for link in links:
            ref_win, ref_hist = expected[link]
            win, hist = windows[link], hists[link]
            np.testing.assert_array_equal(hist.counts, ref_hist.counts)
            assert ((hist.singles_a, hist.singles_b, hist.offset_ps)
                    == (ref_hist.singles_a, ref_hist.singles_b,
                        ref_hist.offset_ps))
            assert len(win.matches) == len(ref_win.matches)
            # nan (an empty histogram) equals nan here
            np.testing.assert_equal(compute_car(hist, window).car,
                                    compute_car(ref_hist, window).car)
            for name in ("delay_a_ps", "delay_b_ps", "offset_ps", "reach_ps",
                         "singles_a", "singles_b"):
                assert getattr(win, name) == getattr(ref_win, name)
            for name in ("index_a", "index_b", "tags_a", "tags_b"):
                np.testing.assert_array_equal(getattr(win, name),
                                              getattr(ref_win, name))
            for name in ("index_a", "index_b", "times_a", "times_b"):
                np.testing.assert_array_equal(getattr(win.matches, name),
                                              getattr(ref_win.matches, name))


@settings(max_examples=300, deadline=None)
@given(network_case())
def test_candidate_sweep_matches_brute_force(case):
    """For every slab size, the sweep split across processes or not, the
    one sweep gives each side of each link, reversed and repeated links
    too, exactly the tags with a partner within reach in the other
    stream."""
    streams, delays, links, _window, _n_bins, _monitor, reach = case
    for slab, workers in SLABS_AND_WORKERS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "POOL_TAGS", slab)
            mp.setattr(sim, "_workers", lambda: workers)
            cands = analysis._pool_candidates(streams, delays, reach, links)
        for ua, ub in links:
            ref_a, ref_b = helpers.brute_candidates(
                tag_times(streams[ua]), tag_times(streams[ub]),
                delays[ub] - delays[ua], reach)
            np.testing.assert_array_equal(cands[(ua, ub)], ref_a)
            np.testing.assert_array_equal(cands[(ub, ua)], ref_b)


def _split_case():
    """Four users' streams of 2000 tags, in 23 slabs of at most 100 core
    tags a stream at POOL_TAGS 400, all six links and a 5 ns reach."""
    rng = np.random.default_rng(3)
    streams = {u: tag_at(np.sort(rng.integers(0, 10**9, 2000)))
               for u in range(4)}
    return streams, {1: 700}, 5000, list(combinations(range(4), 2))


@pytest.mark.parametrize("workers", [2, 3])
def test_sweep_split_across_processes(monkeypatch, workers):
    """With more than one slab, the sweep runs in one worker per process
    beyond this one and finds what one process finds."""
    streams, delays, reach, links = _split_case()
    monkeypatch.setattr(analysis, "POOL_TAGS", 400)
    monkeypatch.setattr(sim, "_workers", lambda: 1)
    alone = analysis._pool_candidates(streams, delays, reach, links)
    assert sum(c.size for c in alone.values()) > 0
    forks = []
    fork = sim._fork
    monkeypatch.setattr(sim, "_fork",
                        lambda work: forks.append(work) or fork(work))
    monkeypatch.setattr(sim, "_workers", lambda: workers)
    split = analysis._pool_candidates(streams, delays, reach, links)
    assert len(forks) == workers - 1
    assert list(split) == list(alone)
    for key, cands in alone.items():
        np.testing.assert_array_equal(split[key], cands)
    _assert_no_child()


@pytest.mark.parametrize("where", ["worker", "here"])
def test_failing_sweep_is_named_and_reaped(monkeypatch, where):
    """A sweep worker that fails is named with its share; a failure in
    this process's own slabs is raised as it is. Either way no worker
    is left."""
    streams, delays, reach, links = _split_case()
    monkeypatch.setattr(analysis, "POOL_TAGS", 400)
    monkeypatch.setattr(sim, "_workers", lambda: 3)
    parent = os.getpid()
    marks = analysis._slab_marks

    def failing(*args):
        if (os.getpid() == parent) == (where == "here"):
            raise ValueError("injected sweep failure")
        return marks(*args)

    monkeypatch.setattr(analysis, "_slab_marks", failing)
    if where == "here":
        with pytest.raises(ValueError, match="injected sweep failure"):
            analysis._pool_candidates(streams, delays, reach, links)
    else:
        with pytest.raises(RuntimeError, match=r"^sweep worker 1 of 2 \(8 of"
                           r" 23, first slab 2, pid \d+\) exited with status"
                           r" 1:") as err:
            analysis._pool_candidates(streams, delays, reach, links)
        assert "injected sweep failure" in str(err.value)
    _assert_no_child()


def test_pooled_filter_memory_bounded_by_slab(monkeypatch):
    """The candidate sweep's peak allocation is set by the slab size and
    what it keeps, not by the stream lengths: 2M tags of 16 users at the
    pooled rate of the 40-user network (3.7M tags/s), all 120 links and a
    2112 ps reach."""
    slab = 1 << 14
    monkeypatch.setattr(analysis, "POOL_TAGS", slab)
    rng = np.random.default_rng(1)
    n_users, per_user = 16, 1 << 17
    duration_ps = int(n_users * per_user / 3.7e6 * 1e12)
    # path 0 tags, packed
    streams = {u: tag_at(np.sort(rng.integers(0, duration_ps, per_user,
                                              dtype=np.int64)))
               for u in range(n_users)}
    delays = {u: int(rng.integers(0, 10**7)) for u in range(n_users)}
    links = list(combinations(range(n_users), 2))
    tracemalloc.start()
    try:
        cands = analysis._pool_candidates(streams, delays, 2112, links)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the tags kept: those that are a candidate of at least one link
    n_kept = sum(np.unique(np.concatenate(
        [cands[(u, v)] for v in range(n_users) if v != u])).size
        for u in range(n_users))
    assert 0 < n_kept < 0.05 * n_users * per_user
    # one int64 copy of the input alone would be 16 MB
    assert peak < 40 * slab + 16 * n_kept


def test_link_matrix_unpacks_no_whole_stream(monkeypatch):
    """link_matrix reads the packed streams where they lie: its peak
    allocation is the sweep's slab bound, the windows it returns and the
    sortedness check's one bool per tag, far under the 8 bytes a tag of
    an unpacked copy of one stream (8 MB here)."""
    slab = 1 << 14
    monkeypatch.setattr(analysis, "POOL_TAGS", slab)
    rng = np.random.default_rng(2)
    per_user = 1 << 20
    duration_ps = int(2 * per_user / 3.7e6 * 1e12)
    streams = {u: tag_at(np.sort(rng.integers(0, duration_ps, per_user,
                                              dtype=np.int64)))
               for u in (0, 1)}
    tracemalloc.start()
    try:
        win = link_matrix(streams, [(0, 1)], {1: 5000}, 128, 2112)[(0, 1)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = win.tags_a.size + win.tags_b.size
    assert 0 < kept < 0.05 * 2 * per_user
    assert peak < 40 * slab + 64 * kept + per_user
