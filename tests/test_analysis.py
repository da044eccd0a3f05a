"""Coincidence analysis: histograms, matching, CAR, link matrix."""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from entnetsim import ItuChannel, analysis, build_plan
from entnetsim.analysis import (CAR_CAP, compute_car, cross_correlate,
                                link_matrix, link_window, match_coincidences,
                                write_histogram_csv, write_links_csv)
from entnetsim.doqkd import (QkdConfig, analyze_link, monitor_deltas,
                             sift_frames)
from entnetsim.photonics import ContractViolation
from entnetsim.sim import SystemConfig, fiber_delay_ps, run_scenario

import helpers
from test_sim import light_system


def poisson_stream(rng, rate_hz, duration_s):
    n = rng.poisson(rate_hz * duration_s)
    return np.sort(rng.integers(0, int(duration_s * 1e12), size=n,
                                dtype=np.int64))


class TestCrossCorrelate:
    def test_identical_single_tag(self):
        a = np.array([1000], dtype=np.int64)
        hist = cross_correlate(a, a, 128, 33 * 128)
        assert hist.total() == 1
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
        ta, _ = res.user_stream(0)
        tb, _ = res.user_stream(1)
        offset = fiber_delay_ps(sys_cfg.losses, 1) - 0
        hist = cross_correlate(ta, tb, 128, 33 * 128, offset_ps=offset)
        assert int(np.argmax(hist.counts)) == hist.n_bins // 2

    def test_unsorted_rejected(self):
        with pytest.raises(ContractViolation):
            cross_correlate(np.array([5, 1]), np.array([1]), 10, 100)

    def test_histogram_csv(self, tmp_path):
        hist = cross_correlate(np.array([0, 100]), np.array([50]), 64, 640)
        out = tmp_path / "h.csv"
        write_histogram_csv(hist, out, user_a=0, user_b=1)
        lines = out.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert "# user_a=0" in meta and "# bin_width_ps=64" in meta
        header_idx = lines.index("delay_ps,counts")
        assert len(lines) - header_idx - 1 == hist.n_bins


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
        ta, _ = res.user_stream(0)
        tb, _ = res.user_stream(1)
        dark_a = ta[helpers.user_pair_rows(res, 0) == -1]
        dark_b = tb[helpers.user_pair_rows(res, 1) == -1]
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
        ta, _ = res.user_stream(0)
        tb, _ = res.user_stream(1)
        rows_a = helpers.user_pair_rows(res, 0)
        rows_b = helpers.user_pair_rows(res, 1)

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


class TestLinkMatrix:
    def test_reference_subset(self, reference_plan):
        sys_cfg = SystemConfig()
        users = [0, 1, 8]
        res = run_scenario(reference_plan, sys_cfg, 1.0, seed=9,
                           selected_users=users, collect_truth=False)
        streams = {u: res.user_stream(u) for u in users}
        delays = {u: fiber_delay_ps(sys_cfg.losses, u) for u in users}
        links = [(0, 1), (0, 8)]
        reports, hists, _ = link_matrix(streams, reference_plan, links, 128,
                                        delays, 1.0, monitor_window_ps=4096)
        assert [r.kind for r in reports] == ["intra", "inter"]
        assert reports[0].resource_id == 1
        assert reports[1].resource_id == 6
        assert all(r.coincidences > 0 for r in reports)
        assert set(hists) == set(links)

    def test_links_csv_format(self, tmp_path, reference_plan):
        sys_cfg = SystemConfig()
        res = run_scenario(reference_plan, sys_cfg, 0.2, seed=2,
                           selected_users=[0, 1], collect_truth=False)
        streams = {u: res.user_stream(u) for u in (0, 1)}
        delays = {u: fiber_delay_ps(sys_cfg.losses, u) for u in (0, 1)}
        reports, _, _ = link_matrix(streams, reference_plan, [(0, 1)], 128,
                                    delays, 0.2, monitor_window_ps=4096)
        out = tmp_path / "links.csv"
        write_links_csv(reports, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "user_a,user_b,kind,resource_id,coincidences,car,duration_s"
        assert lines[1].startswith("0,1,intra,1,")

    def test_unsorted_user_stream_rejected(self, reference_plan):
        streams = {0: (np.array([5, 1]), np.array([0, 0], dtype=np.uint8)),
                   1: (np.array([1]), np.array([0], dtype=np.uint8))}
        with pytest.raises(ContractViolation, match="user 0"):
            link_matrix(streams, reference_plan, [(0, 1)], 128, {}, 1.0,
                        monitor_window_ps=4096)


TWO_USER_PLAN = build_plan(1, 2, ItuChannel(40))


@st.composite
def link_case(draw):
    """Two labeled streams whose pairs sit at the edges of every window.

    Tags come in bursts (gaps up to one coincidence window, so candidate
    windows overlap); b holds partners of a-tags at the histogram edges,
    at +-window//2 and +-monitor_window//2 and one past each, plus bursts
    of its own.
    """
    window = draw(st.integers(2, 40))
    n_bins = draw(st.sampled_from([9, 11, 13]))
    hist_range = n_bins * window - draw(st.integers(0, window - 1))
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

    def labels(n, one_path):
        if one_path:  # the other path's substream is empty
            return np.full(n, draw(st.integers(0, 1)), dtype=np.uint8)
        return np.asarray(draw(st.lists(st.integers(0, 1), min_size=n,
                                        max_size=n)), dtype=np.uint8)

    one_path = draw(st.sampled_from(["none", "a", "b"]))
    pa = labels(a.size, one_path == "a")
    pb = labels(b.size, one_path == "b")
    return a, pa, b, pb, offset, window, hist_range, monitor_window


@pytest.mark.filterwarnings("ignore:only .* symbol pairs")
@settings(max_examples=300, deadline=None)
@given(link_case())
def test_link_window_equals_full_streams(case):
    """Histogram, narrow matches, monitor pairs and key counts of a link
    computed on its candidate tags equal those of the full streams."""
    a, pa, b, pb, offset, window, hist_range, monitor_window = case
    qkd = QkdConfig(window_ps=window, monitor_window_ps=monitor_window)
    reports, hists, windows = link_matrix(
        {0: (a, pa), 1: (b, pb)}, TWO_USER_PLAN, [(0, 1)], window,
        {0: 0, 1: offset}, 1.0, monitor_window_ps=monitor_window,
        hist_range_ps=hist_range)
    win = windows[(0, 1)]

    hist = hists[(0, 1)]
    ref_hist = cross_correlate(a, b, window, hist_range, offset_ps=offset,
                               duration_ps=10**12)
    np.testing.assert_array_equal(hist.counts, ref_hist.counts)
    assert ((hist.singles_a, hist.singles_b, hist.duration_ps)
            == (ref_hist.singles_a, ref_hist.singles_b, ref_hist.duration_ps))

    ref = match_coincidences(a, b, window, offset_ps=offset)
    assert reports[0].coincidences == len(ref)
    np.testing.assert_array_equal(win.index_a[win.matches.index_a], ref.index_a)
    np.testing.assert_array_equal(win.index_b[win.matches.index_b], ref.index_b)

    ref_mon = np.concatenate([
        match_coincidences(a[pa == p], b[pb == p], monitor_window,
                           offset_ps=offset).deltas_ps() for p in (0, 1)])
    np.testing.assert_array_equal(monitor_deltas(win, monitor_window), ref_mon)

    key = pa[ref.index_a] != pb[ref.index_b]
    material = sift_frames(ref.times_a[key], ref.times_b[key] - offset,
                           qkd.frames)
    rep = analyze_link(win, 0, offset, qkd, 1.0)
    assert rep.counts == {"matched_pairs": len(ref),
                          "key_pairs": int(np.count_nonzero(key)),
                          "monitor_pairs": int(ref_mon.size),
                          "sifted_pairs": len(material)}
    assert rep.discards == {**material.discards,
                            "basis_mismatch": int(np.count_nonzero(~key))}


NETWORK_PLAN = build_plan(2, 3, ItuChannel(40))


@st.composite
def network_case(draw):
    """Labeled streams of 3..6 users with distinct delays, bigger than many
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
                                         max_size=t.size)), dtype=np.uint8)
        streams[u] = (t, paths)
    pairs = list(combinations(users, 2))
    links = draw(st.lists(st.sampled_from(pairs), min_size=1,
                          max_size=len(pairs), unique=True))
    return (streams, dict(zip(users, delays)), links, window, span,
            monitor_window, reach)


@pytest.mark.filterwarnings("ignore:only .* symbol pairs")
@settings(max_examples=300, deadline=None)
@given(network_case())
def test_pooled_filter_equals_full_streams(case):
    """link_matrix pre-filters all user streams in pooled time slabs; for
    every slab size each link's report, histogram and LinkWindow equal
    link_window and cross_correlate run on the two full streams."""
    streams, delays, links, window, span, monitor_window, reach = case
    duration_ps = 10**12
    expected = {}
    for ua, ub in links:
        offset = delays[ub] - delays[ua]
        win = link_window(streams[ua], streams[ub], offset, window, reach)
        hist = cross_correlate(streams[ua][0], streams[ub][0], window, span,
                               offset_ps=offset, duration_ps=duration_ps)
        expected[(ua, ub)] = win, hist
    for slab in (1, 2, 3, analysis.POOL_TAGS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "POOL_TAGS", slab)
            reports, hists, windows = link_matrix(
                streams, NETWORK_PLAN, links, window, delays, 1.0,
                monitor_window_ps=monitor_window, hist_range_ps=span)
        for rep, (ua, ub) in zip(reports, links):
            ref_win, ref_hist = expected[(ua, ub)]
            win, hist = windows[(ua, ub)], hists[(ua, ub)]
            np.testing.assert_array_equal(hist.counts, ref_hist.counts)
            assert ((hist.singles_a, hist.singles_b, hist.offset_ps)
                    == (ref_hist.singles_a, ref_hist.singles_b,
                        ref_hist.offset_ps))
            assert rep.coincidences == len(ref_win.matches)
            assert rep.car == compute_car(ref_hist, window).car
            for name in ("offset_ps", "reach_ps", "singles_a", "singles_b"):
                assert getattr(win, name) == getattr(ref_win, name)
            for name in ("index_a", "index_b", "times_a", "times_b",
                         "paths_a", "paths_b"):
                np.testing.assert_array_equal(getattr(win, name),
                                              getattr(ref_win, name))
            for name in ("index_a", "index_b", "times_a", "times_b"):
                np.testing.assert_array_equal(getattr(win.matches, name),
                                              getattr(ref_win.matches, name))


def test_pooled_filter_memory_bounded_by_slab(monkeypatch):
    """The pre-filter's peak allocation is set by the slab size and what it
    keeps, not by the stream lengths: 2M tags of 16 users at the pooled
    rate of the 40-user network (3.7M tags/s) and a 2112 ps reach."""
    slab = 1 << 14
    monkeypatch.setattr(analysis, "POOL_TAGS", slab)
    rng = np.random.default_rng(1)
    n_users, per_user = 16, 1 << 17
    duration_ps = int(n_users * per_user / 3.7e6 * 1e12)
    times = {u: np.sort(rng.integers(0, duration_ps, per_user, dtype=np.int64))
             for u in range(n_users)}
    delays = {u: int(rng.integers(0, 10**7)) for u in range(n_users)}
    tracemalloc.start()
    try:
        keep = analysis._pool_keep(times, delays, 2112)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_kept = sum(k.size for k in keep.values())
    assert 0 < n_kept < 0.05 * n_users * per_user
    # one int64 copy of the input alone would be 16 MB
    assert peak < 40 * slab + 16 * n_kept
