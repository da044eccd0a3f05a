"""Bundle writers: the column-wise writers must write exactly the bytes of
the per-row reference writers in helpers (csv.writer rows and one write
per tag), and the JSON writer those of json.dump."""

import json

import numpy as np
import pytest

from entnetsim import ItuChannel, build_plan, report
from entnetsim._columns import CHUNK_ROWS
from entnetsim.analysis import cross_correlate, write_histogram_csv
from entnetsim.sim import (LOST, TruthLog, run_scenario, write_tag_stream,
                           write_truth_csv)

import helpers
from test_sim import light_system


def truth_log(n, seed=0, t_emit=None, signal_user=None, idler_user=None,
              signal_detected=None, idler_detected=None):
    rng = np.random.default_rng(seed)

    def pick(given, default):
        return np.asarray(given) if given is not None else default

    return TruthLog(
        pair_id=np.arange(n, dtype=np.int64),
        resource_id=rng.integers(0, 20, size=n).astype(np.int32),
        t_emit_ps=pick(t_emit, np.sort(rng.uniform(0, 2.5e11, size=n))),
        signal_user=pick(signal_user,
                         rng.integers(LOST, 40, size=n).astype(np.int32)),
        idler_user=pick(idler_user,
                        rng.integers(LOST, 40, size=n).astype(np.int32)),
        signal_detected=pick(signal_detected, rng.random(n) < 0.5),
        idler_detected=pick(idler_detected, rng.random(n) < 0.5),
    )


def truth_bytes(tmp_path, truth):
    new, ref = tmp_path / "truth_new.csv", tmp_path / "truth_ref.csv"
    write_truth_csv(truth, new)
    helpers.ref_write_truth_csv(truth, ref)
    return new.read_bytes(), ref.read_bytes()


def tag_bytes(tmp_path, tags, user=3, path_index=1):
    new, ref = tmp_path / "tags_new.txt", tmp_path / "tags_ref.txt"
    write_tag_stream(new, user, path_index, 250_000_000_000, 42, tags)
    helpers.ref_write_tag_stream(ref, user, path_index, 250_000_000_000, 42,
                                 tags)
    return new.read_bytes(), ref.read_bytes()


def histogram_bytes(tmp_path, hist, **metadata):
    new, ref = tmp_path / "hist_new.csv", tmp_path / "hist_ref.csv"
    write_histogram_csv(hist, new, **metadata)
    helpers.ref_write_histogram_csv(hist, ref, **metadata)
    return new.read_bytes(), ref.read_bytes()


class TestTruthCsv:
    def test_empty_log_is_header_only(self, tmp_path):
        new, ref = truth_bytes(tmp_path, truth_log(0))
        assert new == ref
        assert new.count(b"\r\n") == 1

    def test_lost_on_either_side(self, tmp_path):
        truth = truth_log(4, signal_user=[LOST, 5, LOST, 0],
                          idler_user=[7, LOST, LOST, 39],
                          signal_detected=[False, True, False, True],
                          idler_detected=[True, False, False, True])
        new, ref = truth_bytes(tmp_path, truth)
        assert new == ref
        assert b",-1,7,0,1\r\n" in new and b",5,-1,1,0\r\n" in new

    def test_all_detected_flag_combinations(self, tmp_path):
        truth = truth_log(4, signal_user=[2, 2, 2, 2], idler_user=[9, 9, 9, 9],
                          signal_detected=[False, False, True, True],
                          idler_detected=[False, True, False, True])
        new, ref = truth_bytes(tmp_path, truth)
        assert new == ref
        for flags in (b"0,0", b"0,1", b"1,0", b"1,1"):
            assert b",2,9," + flags + b"\r\n" in new

    def test_float_reprs(self, tmp_path):
        t_emit = [0.0, 5.0, 1e16, 1.5e-7, 2.0 ** 53]
        new, ref = truth_bytes(tmp_path, truth_log(len(t_emit), t_emit=t_emit))
        assert new == ref
        cells = [line.split(b",")[2] for line in new.split(b"\r\n")[1:-1]]
        assert cells == [b"0.0", b"5.0", b"1e+16", b"1.5e-07",
                         b"9007199254740992.0"]

    @pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_chunk_boundaries(self, tmp_path, n):
        new, ref = truth_bytes(tmp_path, truth_log(n, seed=n))
        assert new == ref
        assert new.count(b"\r\n") == n + 1

    def test_simulated_log(self, tmp_path):
        plan = build_plan(1, 3, ItuChannel(40))
        res = run_scenario(plan, light_system(pair_rate=4e4, dark=1000.0),
                           0.1, seed=5)
        assert len(res.truth) > 1000
        new, ref = truth_bytes(tmp_path, res.truth)
        assert new == ref


class TestTagStream:
    def test_empty_stream_is_header_only(self, tmp_path):
        new, ref = tag_bytes(tmp_path, np.empty(0, dtype=np.int64))
        assert new == ref
        assert new == b"3,anomalous,250000000000,42\n"

    @pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_chunk_boundaries(self, tmp_path, n):
        rng = np.random.default_rng(n)
        tags = np.sort(rng.integers(0, 2 ** 50, size=n, dtype=np.int64))
        new, ref = tag_bytes(tmp_path, tags, path_index=0)
        assert new == ref
        assert new.count(b"\n") == n + 1


class TestHistogramCsv:
    def hist(self, a, b):
        return cross_correlate(np.asarray(a, dtype=np.int64),
                               np.asarray(b, dtype=np.int64), 128, 33 * 128,
                               offset_ps=5_000, duration_ps=10 ** 9)

    def test_all_zero_counts(self, tmp_path):
        hist = self.hist([0, 10 ** 6], [5 * 10 ** 8])
        assert hist.total() == 0
        new, ref = histogram_bytes(tmp_path, hist, user_a=0, user_b=1)
        assert new == ref

    def test_extra_metadata_keys(self, tmp_path):
        hist = self.hist([100, 2_000, 9_000], [5_150, 7_100, 14_000])
        assert hist.total() > 0
        new, ref = histogram_bytes(tmp_path, hist, user_a=4, user_b=17,
                                   kind="inter", note="x=1")
        assert new == ref
        assert new.startswith(b"# kind=inter\n# note=x=1\n# user_a=4\n")


@pytest.mark.parametrize("n_chunks", [1, 2, 7, report.JSON_CHUNKS])
def test_json_chunked_writes_same_bytes(tmp_path, monkeypatch, n_chunks):
    """report._write_json writes the bytes json.dump streams, in a few
    writes of JSON_CHUNKS encoder chunks."""
    payload = {"schema": "x/1", "b": [1, 2.5, {"z": None, "a": True}],
               "a": {"nested": [], "empty": {}}, "text": "é\n"}
    ref = tmp_path / "ref.json"
    with open(ref, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    new = tmp_path / "new.json"
    monkeypatch.setattr(report, "JSON_CHUNKS", n_chunks)
    report._write_json(new, payload)
    assert new.read_bytes() == ref.read_bytes()
