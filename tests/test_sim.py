"""Scenario engine: routing distributions, conservation, determinism,
statistical agreement with the analytic rate calculator and with a
pair-by-pair reference implementation."""

import hashlib
import math
import os
import pickle
import sys
import warnings

import numpy as np
import pytest
from scipy import stats

from entnetsim import ItuChannel, build_plan, match_coincidences, sim
from entnetsim._kernels import tag_paths, tag_times
from entnetsim.photonics import (DetectorConfig, DispersionConfig, SourceConfig,
                                 detector_response_traced)
from entnetsim.rates import expected_coincidence_rate, expected_singles_rate
from entnetsim.sim import (LOST, LossBudget, ScenarioConfigError, SystemConfig,
                           derive_stream_seed, fiber_delay_ps, run_scenario)

import helpers


def light_system(pair_rate=2e4, dark=100.0, jitter=5.0, dead=0,
                 awg=1.0, wdm=0.0, splitter=None, disp_loss=0.0,
                 disp_mag=0.0, fiber=None, corr=1.0):
    """A low-loss, low-rate variant for fast statistical tests."""
    return SystemConfig(
        source=SourceConfig(pair_rate_hz=pair_rate, correlation_jitter_ps=corr),
        detector=DetectorConfig(efficiency=1.0, dark_rate_hz=dark,
                                jitter_ps=jitter, dead_time_ps=dead),
        dispersion=DispersionConfig(magnitude_ps_per_nm=disp_mag,
                                    insertion_loss_db=disp_loss),
        losses=LossBudget(awg_db=awg, wdm_db=wdm,
                          splitter_db=splitter if splitter is not None else 3.02,
                          fiber_db_per_km=0.0, inter_extra_wdm_db=0.0,
                          fiber_km=fiber or {}),
    )


class TestRoutePair:
    def test_intra_distinct_user_probability(self):
        # lossless 8-port splitter: both photons on distinct users w.p. 7/8
        plan = build_plan(1, 8, ItuChannel(40))
        sys_cfg = helpers.lossless_variant(SystemConfig())
        rng = np.random.default_rng(0)
        n = 20_000
        distinct = 0
        for _ in range(n):
            sig, idl, _, _ = helpers.route_pair(1, plan, sys_cfg, rng)
            distinct += sig != idl
        p = 7.0 / 8.0
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(distinct - n * p) < 5 * sigma

    def test_inter_wavelength_separation(self):
        plan = build_plan(2, 4, ItuChannel(40))
        sys_cfg = helpers.lossless_variant(SystemConfig())
        rng = np.random.default_rng(1)
        rid = plan.resources[plan.num_subnets].resource_id  # first inter pair
        for _ in range(500):
            sig, idl, _, _ = helpers.route_pair(rid, plan, sys_cfg, rng)
            assert plan.subnet_of(sig) == 0
            assert plan.subnet_of(idl) == 1

    def test_two_fold_intra_vs_inter_rate(self):
        # exact enumeration: an unordered intra pair (u, v), u != v, is hit
        # by 2 of M^2 port outcomes; a specific inter (u, v) by 1 of M^2
        m = 4
        plan = build_plan(2, m, ItuChannel(40))
        sys_cfg = helpers.lossless_variant(SystemConfig())
        intra_outcomes = [(s, i) for s in range(m) for i in range(m)]
        hits = sum(1 for s, i in intra_outcomes if {s, i} == {0, 1})
        assert hits / len(intra_outcomes) == 2 / m ** 2

        rng = np.random.default_rng(2)
        n = 40_000
        intra_hits = 0
        inter_hits = 0
        inter_rid = plan.resources[plan.num_subnets].resource_id  # first inter pair
        for _ in range(n):
            sig, idl, _, _ = helpers.route_pair(1, plan, sys_cfg, rng)
            if {sig, idl} == {0, 1}:
                intra_hits += 1
            sig, idl, _, _ = helpers.route_pair(inter_rid, plan, sys_cfg, rng)
            if (sig, idl) == (0, m):
                inter_hits += 1
        p_intra, p_inter = 2 / m ** 2, 1 / m ** 2
        assert abs(intra_hits - n * p_intra) < 5 * math.sqrt(n * p_intra)
        assert abs(inter_hits - n * p_inter) < 5 * math.sqrt(n * p_inter)

    def test_port_uniformity_chi_square(self):
        plan = build_plan(1, 8, ItuChannel(40))
        sys_cfg = helpers.lossless_variant(SystemConfig())
        rng = np.random.default_rng(3)
        counts = np.zeros(8, dtype=int)
        n = 60_000  # 120k routed photons
        for _ in range(n):
            sig, idl, _, _ = helpers.route_pair(1, plan, sys_cfg, rng)
            counts[sig] += 1
            counts[idl] += 1
        result = stats.chisquare(counts)
        assert result.pvalue > 0.001

    def test_unknown_resource(self):
        plan = build_plan(1, 2, ItuChannel(40))
        with pytest.raises(KeyError):
            helpers.route_pair(99, plan, SystemConfig(),
                               np.random.default_rng(0))


class TestSeedDerivation:
    def test_same_inputs_same_seed(self):
        a = derive_stream_seed(5, "pairs", 3, 1, 2)
        b = derive_stream_seed(5, "pairs", 3, 1, 2)
        assert a.entropy == b.entropy and a.spawn_key == b.spawn_key
        assert (np.random.default_rng(a).integers(1 << 62)
                == np.random.default_rng(b).integers(1 << 62))

    def test_distinct_across_resources_and_kinds(self, reference_plan):
        keys = set()
        for pair in reference_plan.resources:
            for u in list(reference_plan.users()) + [LOST]:
                keys.add(derive_stream_seed(
                    7, "pairs", pair.resource_id, u, LOST).spawn_key)
        for u in reference_plan.users():
            for path in (0, 1):
                keys.add(derive_stream_seed(7, "detector", u, path).spawn_key)
        assert len(keys) == 15 * 41 + 80

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            derive_stream_seed(1, "nope", 0)

    # the last three seeds take two and three entropy words
    @pytest.mark.parametrize("seed", [0, 42, 2**32 - 1, 2**32, 2**64 + 5])
    def test_run_seeds_are_derived_seeds(self, monkeypatch, reference_plan,
                                         seed):
        """run_scenario seeds all 1215 pass-1 outcomes and 80 detectors of
        the 40-user plan in one _seed_states call per kind; every row is
        its derive_stream_seed's generate_state, and the generator made
        from it is the default_rng of that SeedSequence."""
        calls = []
        states = sim._seed_states

        def recording(master_seed, kind, keys):
            calls.append((master_seed, kind, [tuple(key) for key in keys]))
            return states(master_seed, kind, keys)

        monkeypatch.setattr(sim, "_seed_states", recording)
        monkeypatch.setattr(sim, "_workers", lambda: 1)
        run_scenario(reference_plan, SystemConfig(), 0.0, seed=seed)
        assert [(s, kind, len(keys)) for s, kind, keys in calls] == [
            (seed, "pairs", 1215), (seed, "detector", 80)]
        for _, kind, keys in calls:
            for key, row in zip(keys, states(seed, kind, keys)):
                ref = derive_stream_seed(seed, kind, *key)
                np.testing.assert_array_equal(
                    row, ref.generate_state(4, np.uint64))
                assert (sim._generator(row).bit_generator.state
                        == np.random.default_rng(ref).bit_generator.state)

    def test_negative_seed_refused_as_by_seed_sequence(self):
        for refuse in (lambda: derive_stream_seed(-1, "pairs", 0, 0, 0),
                       lambda: run_scenario(build_plan(1, 2, ItuChannel(40)),
                                            light_system(), 0.001, seed=-1)):
            with pytest.raises(ValueError,
                               match="expected non-negative integer"):
                refuse()


class TestRunScenario:
    def test_zero_duration_empty(self):
        plan = build_plan(1, 2, ItuChannel(40))
        res = run_scenario(plan, light_system(), 0.0, seed=1)
        assert all(tags.size == 0 for tags in res.streams.values())
        assert len(res.truth) == 0
        assert all(n == 0 for n in res.emitted_pairs.values())

    def test_negative_duration_rejected(self):
        plan = build_plan(1, 2, ItuChannel(40))
        with pytest.raises(ScenarioConfigError):
            run_scenario(plan, light_system(), -1.0, seed=1)

    @pytest.mark.parametrize("duration_s", [9008.0, 1e5, 1e7, math.inf])
    def test_unrepresentable_duration_rejected(self, monkeypatch, duration_s):
        # float64 picosecond times are exact only up to 2**53 ps; the
        # refusal comes before any outcome is drawn
        def no_draws(*args):
            raise AssertionError("drew outcomes")

        monkeypatch.setattr(sim, "_outcome_counts", no_draws)
        plan = build_plan(1, 2, ItuChannel(40))
        with pytest.raises(ScenarioConfigError) as err:
            run_scenario(plan, light_system(pair_rate=0.01, dark=0.0),
                         duration_s, seed=1)
        assert err.value.name == "duration_s"

    def test_duration_bound_is_exact(self):
        assert sim.duration_ps_of(sim.MAX_DURATION_PS / 1e12) == 2**53
        assert sim.duration_ps_of(9007.19) == 9007190000000001
        with pytest.raises(ScenarioConfigError, match="at most 9007 s"):
            sim.duration_ps_of(9007.2)

    def test_conservation_lossless(self):
        # no loss, no dark counts, perfect detector: every emitted pair
        # appears as exactly two tags and the truth log is fully detected
        # (rate low and correlation width wide enough that no two tags
        # land on the same picosecond at one detector)
        plan = build_plan(2, 2, ItuChannel(40))
        sys_cfg = helpers.lossless_variant(light_system(pair_rate=2e4,
                                                        corr=300.0))
        res = run_scenario(plan, sys_cfg, 0.02, seed=13)
        emitted = sum(res.emitted_pairs.values())
        total_tags = sum(res.singles_counts().values())
        assert emitted > 0
        assert total_tags == 2 * emitted
        assert len(res.truth) == emitted
        assert bool(np.all(res.truth.signal_detected))
        assert bool(np.all(res.truth.idler_detected))

    def test_conservation_upper_bound_at_full_rate(self):
        # with losses on, photon-origin tags can never exceed 2x emissions
        plan = build_plan(2, 2, ItuChannel(40))
        res = run_scenario(plan, SystemConfig(), 0.02, seed=13)
        emitted = sum(res.emitted_pairs.values())
        photon_tags = int(np.count_nonzero(res.truth.signal_detected)
                          + np.count_nonzero(res.truth.idler_detected))
        assert photon_tags <= 2 * emitted
        assert 0 < photon_tags < emitted  # heavy attenuation regime

    def test_tags_bounded_and_sorted(self):
        plan = build_plan(2, 2, ItuChannel(40))
        res = run_scenario(plan, light_system(pair_rate=5e4), 0.05, seed=4)
        singles = res.singles_counts()
        assert sorted(res.streams) == list(plan.users())
        for user, tags in res.streams.items():
            assert tags.dtype == np.int64 and tags.size > 0
            assert np.all(np.diff(tags) > 0)  # every packed value unique
            times, paths = tag_times(tags), tag_paths(tags)
            assert times[0] >= 0 and times[-1] < res.duration_ps
            for path in (0, 1):
                assert np.all(np.diff(times[paths == path]) > 0)
                assert singles[(user, path)] == np.count_nonzero(paths == path)

    def test_determinism(self):
        plan = build_plan(2, 3, ItuChannel(40))
        sys_cfg = light_system(pair_rate=3e4)
        r1 = run_scenario(plan, sys_cfg, 0.1, seed=99)
        r2 = run_scenario(plan, sys_cfg, 0.1, seed=99)
        assert r1.emitted_pairs == r2.emitted_pairs
        for user, tags in r1.streams.items():
            np.testing.assert_array_equal(r2.streams[user], tags)
        np.testing.assert_array_equal(r1.truth.t_emit_ps, r2.truth.t_emit_ps)

    def test_selection_does_not_change_other_streams(self):
        plan = build_plan(2, 3, ItuChannel(40))
        sys_cfg = light_system(pair_rate=3e4)
        full = run_scenario(plan, sys_cfg, 0.1, seed=21)
        partial = run_scenario(plan, sys_cfg, 0.1, seed=21,
                               selected_users=[0, 3])
        assert sorted(partial.streams) == [0, 3]
        for user, tags in partial.streams.items():
            np.testing.assert_array_equal(tags, full.streams[user])

    def test_singles_rates_match_analytic(self, reference_plan):
        sys_cfg = SystemConfig(
            source=SourceConfig(pair_rate_hz=5e5),
            detector=DetectorConfig(dead_time_ps=0),
        )
        res = run_scenario(reference_plan, sys_cfg, 2.0, seed=31,
                           selected_users=[0, 2, 8], collect_truth=False)
        singles = res.singles_counts()
        for user in (0, 2, 8):
            for path in (0, 1):
                n = singles[(user, path)]
                mean = expected_singles_rate(reference_plan, sys_cfg, user, path) * 2.0
                assert abs(n - mean) < 5 * math.sqrt(mean), (user, path)

    def test_every_user_active_on_both_paths(self, reference_plan):
        # full reference network: every (user, path) stream is populated
        res = run_scenario(reference_plan, SystemConfig(), 1.0, seed=62,
                           collect_truth=False)
        singles = res.singles_counts()
        assert len(singles) == 80
        assert all(n > 0 for n in singles.values())

    def test_inter_subnet_separation_in_truth(self):
        plan = build_plan(2, 2, ItuChannel(40))
        res = run_scenario(plan, light_system(pair_rate=5e4), 0.1, seed=8)
        rid = plan.resources[plan.num_subnets].resource_id  # first inter pair
        rows = res.truth.resource_id == rid
        sig = res.truth.signal_user[rows]
        idl = res.truth.idler_user[rows]
        assert np.all((sig == LOST) | (sig < 2))   # subnet 0 users are 0, 1
        assert np.all((idl == LOST) | (idl >= 2))  # subnet 1 users are 2, 3

    def test_resource_slice_regeneration(self):
        # every resource regenerated alone from its own seeds: their
        # arrivals, merged per (user, path) and put through that stream's
        # detector, are the engine's tags exactly, with truth and without
        plan = build_plan(2, 2, ItuChannel(40))
        sys_cfg = light_system(pair_rate=4e4)
        alone = {}
        for pair in plan.resources:
            rid = pair.resource_id
            alone[rid] = helpers.resource_arrivals(plan, sys_cfg, rid, 0.1, seed=17)
            reached = {u for s in (pair.signal_subnet, pair.idler_subnet)
                       for u in plan.subnet_users(s)}
            assert set(alone[rid]) == {(u, p) for u in reached for p in (0, 1)}
        keys = set().union(*alone.values())
        for collect_truth in (True, False):
            res = run_scenario(plan, sys_cfg, 0.1, seed=17,
                               collect_truth=collect_truth)
            streams = helpers.path_streams(res)
            assert set(streams) == keys
            for user, path in sorted(keys):
                arrivals = np.sort(np.concatenate(
                    [a[(user, path)] for a in alone.values() if (user, path) in a]))
                rng = np.random.default_rng(
                    derive_stream_seed(17, "detector", user, path))
                tags, _ = detector_response_traced(arrivals, sys_cfg.detector,
                                                   0.1, rng)
                assert tags.size > 0
                np.testing.assert_array_equal(tags, streams[(user, path)])

    def test_truth_rows_align_with_tags(self):
        plan = build_plan(1, 2, ItuChannel(40))
        sys_cfg = light_system(pair_rate=4e4, dark=1000.0)
        res = run_scenario(plan, sys_cfg, 0.1, seed=5)
        assert sorted(res.tag_pair_rows) == sorted(res.streams) == [0, 1]
        for user, tags in res.streams.items():
            rows = res.tag_pair_rows[user]
            assert rows.dtype == np.int64 and rows.size == tags.size > 0
            photon = rows >= 0
            assert 0 < np.count_nonzero(photon) < rows.size  # dark counts too
            # every photon-tag row must be marked detected on some side
            detected = (res.truth.signal_detected[rows[photon]]
                        | res.truth.idler_detected[rows[photon]])
            assert bool(np.all(detected))

    def test_truth_runs_cover_rows(self):
        """The run table splits the rows into contiguous runs, and each
        photon tag's row is in a run that routes a photon to its user."""
        plan = build_plan(2, 3, ItuChannel(40))
        res = run_scenario(plan, light_system(pair_rate=4e4, dark=1000.0),
                           0.05, seed=11)
        truth = res.truth
        n_runs = truth.first_row.size
        assert len(truth) > n_runs > 1
        assert truth.first_row[0] == 0
        assert np.all(np.diff(truth.first_row) > 0)
        assert truth.first_row[-1] < len(truth)
        for column in (truth.resource_id, truth.signal_user, truth.idler_user):
            assert column.size == n_runs
        for user, rows in res.tag_pair_rows.items():
            rows = rows[rows >= 0]
            assert rows.size > 0 and rows.max() < len(truth)
            run = np.searchsorted(truth.first_row, rows, "right") - 1
            assert np.all((truth.signal_user[run] == user)
                          | (truth.idler_user[run] == user))


class TestArrivalTransform:
    """_photon_arrival_times against the per-path masked oracle, bit for bit."""

    @staticmethod
    def block(n, paths, corr_ps, rng):
        times = np.sort(rng.uniform(0.0, 1e11, size=n))
        detuning = rng.uniform(-50.0, 50.0, size=n)
        if paths == "mixed":
            path_s = rng.integers(0, 2, size=n)
            path_i = rng.integers(0, 2, size=n)
        else:
            path_s = np.full(n, paths, dtype=np.int64)
            path_i = np.full(n, paths, dtype=np.int64)
        corr = rng.normal(0.0, corr_ps, size=n) if corr_ps > 0 else np.zeros(n)
        return times, detuning, path_s, path_i, corr

    @pytest.mark.parametrize("role", ["signal", "idler"])
    @pytest.mark.parametrize("rid", [1, 15])  # innermost and outermost pair
    def test_matches_masked_oracle(self, reference_plan, role, rid):
        pair = reference_plan.resource_by_id(rid)
        assert pair.signal.index > 40 > pair.idler.index
        rng = np.random.default_rng(rid)
        for mag in (0.0, 1980.0):
            sys_cfg = light_system(disp_mag=mag, fiber={3: 1.7})
            for corr_ps in (0.0, 2.0):
                for n in (0, 1, 2000):
                    for paths in ("mixed", 0, 1):
                        block = self.block(n, paths, corr_ps, rng)
                        for user in (0, 3):  # no fiber, 1.7 km of fiber
                            got = sim._photon_arrival_times(
                                block, role, user, pair, sys_cfg,
                                sim._Scratch(n, truth=False))
                            want = helpers.ref_photon_arrival_times(
                                block, role, user, pair, sys_cfg)
                            assert got.dtype == want.dtype == np.float64
                            np.testing.assert_array_equal(
                                got.view(np.int64), want.view(np.int64),
                                err_msg=f"{mag=} {corr_ps=} {n=} {paths=} {user=}")


def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestEngineBytes:
    """sha256 of every (user, path) stream of a small default-physics run,
    each the user's tags of that path label.

    The constants pin the engine's exact output: a rewrite that is meant
    to be bit-identical must leave them alone, and a change that moves a
    tag on purpose must update them here.
    """

    STREAMS = "55944c356e3bfdc9e9266b52c54bbd8fd5f3b1b51fe227452d7e461f4334ff4a"
    TRUTH = "a116e7a7b7448d5c7c15fcfd469d3c09602c41fcb09653f943226b9169945885"
    SUBSET = "238791ef76ea960caadac5a5d7df619b8dde9f4dbedb830f96b92197d2543a56"
    TAG_ROWS = "4b215b1cbd89002411a3530b60c2c6327b3a4300ab5bbd473402f0c0ff94323e"

    @staticmethod
    def run(**kwargs):
        plan = build_plan(2, 3, ItuChannel(40))
        return run_scenario(plan, SystemConfig(), 0.05, seed=2024, **kwargs)

    @staticmethod
    def streams_digest(res) -> str:
        streams = helpers.path_streams(res)
        return _sha256(streams[key] for key in sorted(streams))

    def test_truth_run(self):
        res = self.run()
        assert len(res.streams) == 6
        assert self.streams_digest(res) == self.STREAMS
        assert _sha256([res.truth.signal_detected, res.truth.idler_detected,
                        res.truth.t_emit_ps]) == self.TRUTH
        rows = helpers.path_tag_rows(res)
        assert _sha256(rows[key] for key in sorted(rows)) == self.TAG_ROWS

    def test_run_without_truth(self):
        res = self.run(collect_truth=False)
        assert res.truth is None
        assert self.streams_digest(res) == self.STREAMS

    def test_selected_users(self):
        res = self.run(collect_truth=False, selected_users=[4, 1])
        assert sorted(res.streams) == [1, 4]
        assert self.streams_digest(res) == self.SUBSET


class TestEngineEdgeCases:
    """A truth run of a few pairs on one 2-user subnet, pinned by sha256 of
    its streams, tag rows and every truth column. At seed 26 the stream
    (1, 0) gets no photon, row 1 lands both photons on user 0's normal
    path and row 0 both on its anomalous path, so a pair's two photons
    share one arrival region of a user on either path."""

    DIGEST = "cfc37de802ea8a945c77a7b5f1311a7c77973d07443c92e2ee6c2189442f65f1"

    def test_empty_stream_and_pairs_on_one_user(self):
        plan = build_plan(1, 2, ItuChannel(40))
        sys_cfg = light_system(pair_rate=2e4, dark=0.0)
        res = run_scenario(plan, sys_cfg, 0.0004, seed=26)
        truth = helpers.truth_rows(res.truth)
        streams = helpers.path_streams(res)
        rows = helpers.path_tag_rows(res)
        assert streams[(1, 0)].size == rows[(1, 0)].size == 0
        np.testing.assert_array_equal(truth["signal_user"][:2], [0, 0])
        np.testing.assert_array_equal(truth["idler_user"][:2], [0, 0])
        np.testing.assert_array_equal(rows[(0, 0)], [2, 1, 1])
        np.testing.assert_array_equal(rows[(0, 1)], [0, 0])
        assert _sha256([
            *(streams[key] for key in sorted(streams)),
            *(rows[key] for key in sorted(rows)),
            *truth.values()]) == self.DIGEST
        plain = run_scenario(plan, sys_cfg, 0.0004, seed=26,
                             collect_truth=False)
        for user, tags in res.streams.items():
            np.testing.assert_array_equal(plain.streams[user], tags)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dark_counts_and_no_photon(self, monkeypatch, workers):
        """A truth run whose users get dark counts but no photon: every
        tag's row is -1, though its paths hold no packed row to index."""
        monkeypatch.setattr(sim, "_workers", lambda: workers)
        plan = build_plan(1, 2, ItuChannel(40))
        sys_cfg = light_system(pair_rate=1.0, dark=1e5)
        res = run_scenario(plan, sys_cfg, 0.001, seed=3)
        assert sum(res.arrival_counts.values()) == 0
        assert all(rows.size > 0 and np.all(rows == -1)
                   for rows in res.tag_pair_rows.values())
        assert not res.truth.signal_detected.any()
        assert not res.truth.idler_detected.any()
        plain = run_scenario(plan, sys_cfg, 0.001, seed=3, collect_truth=False)
        for user, tags in res.streams.items():
            np.testing.assert_array_equal(plain.streams[user], tags)
        _assert_no_child()


class TestMergeTieRule:
    """A user's two paths may hold tags in one picosecond: the stream puts
    path 0's tag first there, and a truth run's rows follow the tags. At
    calibrated rates such ties are rare (about 0.003 a user at 1.5 s), so
    a stand-in detector puts each path's k-th tag at k ns: every
    picosecond up to the shorter path holds one tag of each path. Every
    third tag is a dark count."""

    @staticmethod
    def run(monkeypatch, path_1_shift_ps, collect_truth):
        paths = []  # one process: the calls come path 0, path 1 per user

        def detector(arrivals_ps, cfg, duration_s, rng):
            path = len(paths) % 2
            paths.append(path)
            k = np.arange(arrivals_ps.size, dtype=np.int64)
            return (1000 * k + path * path_1_shift_ps,
                    np.where(k % 3 == 2, -1, k))

        monkeypatch.setattr(sim, "_workers", lambda: 1)
        monkeypatch.setattr(sim, "detector_response_traced", detector)
        return run_scenario(build_plan(1, 2, ItuChannel(40)),
                            light_system(pair_rate=2e4), 0.01, seed=5,
                            collect_truth=collect_truth)

    def test_path_0_first_on_shared_picoseconds(self, monkeypatch):
        tied = self.run(monkeypatch, 0, collect_truth=True)
        plain = self.run(monkeypatch, 0, collect_truth=False)
        apart = self.run(monkeypatch, 500, collect_truth=True)
        for user, tags in tied.streams.items():
            n = [tied.arrival_counts[(user, path)] for path in (0, 1)]
            shared = min(n)
            assert shared > 0 and tags.size == sum(n)
            assert np.all(np.diff(tags) > 0)
            times, paths = tag_times(tags), tag_paths(tags)
            np.testing.assert_array_equal(
                times[:2 * shared], np.repeat(1000 * np.arange(shared), 2))
            np.testing.assert_array_equal(paths[:2 * shared],
                                          np.tile([0, 1], shared))
            np.testing.assert_array_equal(plain.streams[user], tags)
            rows = tied.tag_pair_rows[user]
            for path in (0, 1):
                k = np.arange(n[path])
                np.testing.assert_array_equal(times[paths == path], 1000 * k)
                np.testing.assert_array_equal(rows[paths == path] == -1,
                                              k % 3 == 2)
            # the same rows, in the same order, as where the paths never
            # share a picosecond
            np.testing.assert_array_equal(paths,
                                          tag_paths(apart.streams[user]))
            np.testing.assert_array_equal(rows, apart.tag_pair_rows[user])


def _assert_no_child():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestPass2Workers:
    """Pass 2 split across forked workers gives the pinned bytes for any
    worker count, and no worker outlives run_scenario."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Count the workers run_scenario forks."""
        pids = []
        fork = sim._fork

        def counting_fork(work):
            pids.append(fork(work))
            return pids[-1]

        monkeypatch.setattr(sim, "_fork", counting_fork)
        return pids

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pins_for_any_worker_count(self, monkeypatch, forks, workers):
        monkeypatch.setattr(sim, "_workers", lambda: workers)
        pins = TestEngineBytes
        res = pins.run()
        assert len(forks) == workers - 1
        assert pins.streams_digest(res) == pins.STREAMS
        assert _sha256([res.truth.signal_detected, res.truth.idler_detected,
                        res.truth.t_emit_ps]) == pins.TRUTH
        rows = helpers.path_tag_rows(res)
        assert _sha256(rows[key] for key in sorted(rows)) == pins.TAG_ROWS
        assert pins.streams_digest(pins.run(collect_truth=False)) == pins.STREAMS
        assert (pins.streams_digest(pins.run(collect_truth=False,
                                             selected_users=[4, 1]))
                == pins.SUBSET)
        # the truth columns the pins leave out, against one process
        monkeypatch.setattr(sim, "_workers", lambda: 1)
        alone = pins.run().truth
        for column in ("first_row", "resource_id", "signal_user", "idler_user"):
            np.testing.assert_array_equal(getattr(res.truth, column),
                                          getattr(alone, column))
        _assert_no_child()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_edge_case_pin_for_any_worker_count(self, monkeypatch, forks,
                                                workers):
        # two users: three workers make only two groups
        monkeypatch.setattr(sim, "_workers", lambda: workers)
        TestEngineEdgeCases().test_empty_stream_and_pairs_on_one_user()
        assert len(forks) == 2  # one worker each for the truth and plain runs
        _assert_no_child()

    def test_failing_worker_is_named(self, monkeypatch):
        monkeypatch.setattr(sim, "_workers", lambda: 2)
        parent = os.getpid()
        draw = sim._draw_events

        def failing_in_worker(*args):
            if os.getpid() != parent:
                raise ValueError("injected draw failure")
            return draw(*args)

        monkeypatch.setattr(sim, "_draw_events", failing_in_worker)
        with pytest.raises(RuntimeError, match="pass-2 worker 1 of 1") as err:
            TestEngineBytes.run()
        assert "injected draw failure" in str(err.value)
        _assert_no_child()

    def test_failing_detection_in_worker_is_named(self, monkeypatch):
        monkeypatch.setattr(sim, "_workers", lambda: 2)
        parent = os.getpid()
        detect = sim.detector_response_traced

        def failing_in_worker(*args):
            if os.getpid() != parent:
                raise ValueError("injected detector failure")
            return detect(*args)

        monkeypatch.setattr(sim, "detector_response_traced", failing_in_worker)
        with pytest.raises(RuntimeError, match="pass-2 worker 1 of 1") as err:
            TestEngineBytes.run()
        assert "injected detector failure" in str(err.value)
        assert "Traceback" in str(err.value)
        _assert_no_child()

    @pytest.mark.parametrize("cut", [
        lambda data: data[:-1],              # the last byte
        lambda data: data[:len(data) // 2],  # half of it
        lambda data: b"",                    # all after the status byte
    ])
    @pytest.mark.parametrize("truth", [True, False])
    def test_short_payload_is_named(self, monkeypatch, cut, truth):
        monkeypatch.setattr(sim, "_workers", lambda: 2)
        dumps = pickle.dumps
        monkeypatch.setattr(
            pickle, "dump", lambda obj, file, protocol:
            file.write(cut(dumps(obj, protocol=protocol))))
        with pytest.raises(RuntimeError,
                           match=r"pass-2 worker 1 of 1 \(users \[.*\], pid"
                                 r" \d+\) sent a short payload"):
            TestEngineBytes.run(collect_truth=truth)
        _assert_no_child()

    def test_worker_arrays_writeable_and_aligned(self, monkeypatch):
        # the parent halves the tag rows in place, and int64 streams off
        # a 16-byte boundary slow link_matrix down
        monkeypatch.setattr(sim, "_workers", lambda: 2)
        groups = []
        split = sim._groups

        def recording(*args):
            groups.extend(split(*args))
            return groups

        monkeypatch.setattr(sim, "_groups", recording)
        res = TestEngineBytes.run()
        assert len(groups) == 2
        for user in groups[1]:
            for array in (res.streams[user], res.tag_pair_rows[user]):
                assert array.size > 0
                assert array.flags.writeable
                assert array.ctypes.data % 16 == 0
        _assert_no_child()

    def test_arrival_counts_for_any_worker_count(self, monkeypatch):
        sizes = []
        detect = sim.detector_response_traced

        def recording(arrivals_ps, *args):
            sizes.append(arrivals_ps.size)
            return detect(arrivals_ps, *args)

        monkeypatch.setattr(sim, "detector_response_traced", recording)
        counts = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(sim, "_workers", lambda: workers)
            counts[workers] = TestEngineBytes.run().arrival_counts
            if workers == 1:
                # one process: every detector call is recorded here, in
                # user order, path 0 first
                assert sorted(counts[1]) == list(counts[1])
                assert list(counts[1].values()) == sizes
                assert sum(counts[1].values()) == sum(sizes) > 0
        assert counts[1] == counts[2] == counts[3]
        _assert_no_child()

    def test_workers_reaped_when_this_process_fails(self, monkeypatch):
        monkeypatch.setattr(sim, "_workers", lambda: 3)
        parent = os.getpid()
        draw = sim._draw_events

        def failing_here(*args):
            if os.getpid() == parent:
                raise ValueError("injected draw failure")
            return draw(*args)

        monkeypatch.setattr(sim, "_draw_events", failing_here)
        with pytest.raises(ValueError, match="injected draw failure"):
            TestEngineBytes.run()
        _assert_no_child()

    def test_fork_under_warnings_as_errors(self, monkeypatch, forks):
        # Python 3.12+ warns on forking a process with other threads (a
        # BLAS pool); raised as an error after the fork, that warning
        # would orphan the worker. Before 3.12 there is no such warning.
        monkeypatch.setattr(sim, "_workers", lambda: 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = TestEngineBytes.run(collect_truth=False)
        assert len(forks) == 1
        assert TestEngineBytes.streams_digest(res) == TestEngineBytes.STREAMS
        _assert_no_child()


def _warn_in_share(share):
    warnings.warn(f"share {share}", RuntimeWarning)
    return share


class TestForkMap:
    """sim.fork_map, which pass 2, the candidate sweep and the per-link
    analysis share."""

    SHARES = {"first": 0, "second": 1, "third": 2}

    def test_results_in_order_each_share_in_its_own_process(self):
        pids = sim.fork_map("t", lambda share: (share, os.getpid()),
                            self.SHARES)
        assert [share for share, _ in pids] == [0, 1, 2]
        assert pids[0][1] == os.getpid()
        assert len({pid for _, pid in pids}) == 3
        assert sim.fork_map("t", lambda share: share, {}) == []
        _assert_no_child()

    def test_worker_warnings_issued_here_in_share_order(self, monkeypatch):
        # a None in sys.modules blocks an import; it has no file to match
        monkeypatch.setitem(sys.modules, "entnetsim_blocked", None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert sim.fork_map("t", _warn_in_share, self.SHARES) == [0, 1, 2]
        assert [str(w.message) for w in caught] == [
            "share 0", "share 1", "share 2"]
        assert all(w.category is RuntimeWarning and w.filename == __file__
                   for w in caught)
        _assert_no_child()

    def test_default_filter_shows_one_warning_once(self):
        # as in one process: the worker's warning goes through this
        # module's registry, where the first share's already is
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            sim.fork_map("t", lambda share: warnings.warn("same") or share,
                         self.SHARES)
        assert [str(w.message) for w in caught] == ["same"]

    def test_worker_warning_raised_under_error_filter(self):
        parent = os.getpid()

        def warn_in_worker(share):
            if os.getpid() != parent:
                warnings.warn(f"share {share}", RuntimeWarning)
            return share

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="share 1"):
                sim.fork_map("t", warn_in_worker, self.SHARES)
        _assert_no_child()

    def test_failing_worker_names_stage_and_share(self):
        def fail_in_third(share):
            if share == 2:
                raise ValueError("injected share failure")
            return share

        with pytest.raises(RuntimeError, match=r"^t worker 2 of 2 \(third,"
                           r" pid \d+\) exited with status 1:") as err:
            sim.fork_map("t", fail_in_third, self.SHARES)
        assert "injected share failure" in str(err.value)
        _assert_no_child()

    @pytest.mark.parametrize("workers, weights, runs", [
        (1, [3, 1, 4], [range(0, 3)]),
        (2, [1] * 10, [range(0, 5), range(5, 10)]),
        (2, [10, 1, 1, 1, 1, 1], [range(0, 1), range(1, 6)]),
        (2, [6, 6, 6, 6, 6, 6, 1], [range(0, 3), range(3, 7)]),
        (3, [0, 0, 0, 0], [range(0, 1), range(1, 2), range(2, 4)]),
        (3, [5, 0], [range(0, 1), range(1, 2)]),
        (2, [], []),
    ])
    def test_weighted_runs(self, monkeypatch, workers, weights, runs):
        monkeypatch.setattr(sim, "_workers", lambda: workers)
        assert sim.weighted_runs(weights) == runs


class TestEngineAgreesWithReference:
    def test_singles_and_coincidences(self):
        plan = build_plan(1, 2, ItuChannel(40))
        sys_cfg = light_system(pair_rate=2e4, dark=100.0, jitter=5.0)
        duration = 0.5

        engine = run_scenario(plan, sys_cfg, duration, seed=71,
                              collect_truth=False)
        reference = helpers.reference_engine(plan, sys_cfg, duration, seed=72)

        exp_singles = expected_singles_rate(plan, sys_cfg, 0, 0) * duration
        exp_cc = expected_coincidence_rate(plan, sys_cfg, 0, 1, 256) * duration
        for streams in (helpers.path_streams(engine), reference):
            n = streams[(0, 0)].size
            assert abs(n - exp_singles) < 5 * math.sqrt(exp_singles)
            ta = np.sort(np.concatenate([streams[(0, 0)], streams[(0, 1)]]))
            tb = np.sort(np.concatenate([streams[(1, 0)], streams[(1, 1)]]))
            cc = len(match_coincidences(ta, tb, 256))
            assert abs(cc - exp_cc) < 5 * math.sqrt(exp_cc)


class TestLossBudget:
    def test_negative_entries_listed(self):
        with pytest.raises(ScenarioConfigError, match="wdm_db"):
            LossBudget(wdm_db=-1.0)

    def test_fiber_delay(self):
        budget = LossBudget(fiber_km={3: 2.0})
        assert fiber_delay_ps(budget, 3) == 10_000_000
        assert fiber_delay_ps(budget, 0) == 0
