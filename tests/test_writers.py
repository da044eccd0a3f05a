"""Bundle writers: the column-wise writers must write exactly the bytes of
the per-row reference writers in helpers (csv.writer rows and one write
per tag), and the JSON writer those of json.dump. The encoder they share,
_columns.encode_rows, must spell every int64 row as str and join do.
histograms.csv must hold every field of each link's histogram, so that
the per-link files of earlier bundles can be rebuilt from it byte for
byte."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entnetsim import ItuChannel, build_plan, config, report
from entnetsim._columns import CHUNK_ROWS, TextTable, encode_rows
from entnetsim.analysis import (CorrelationHistogram, cross_correlate,
                                write_histograms_csv)
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


def truth_cells(text):
    """The t_emit_ps cell of every row of a truth.csv."""
    return [line.split(b",")[2] for line in text.split(b"\r\n")[1:-1]]


def tag_bytes(tmp_path, tags, user=3, path_index=1):
    new, ref = tmp_path / "tags_new.txt", tmp_path / "tags_ref.txt"
    write_tag_stream(new, user, path_index, 250_000_000_000, 42, tags)
    helpers.ref_write_tag_stream(ref, user, path_index, 250_000_000_000, 42,
                                 tags)
    return new.read_bytes(), ref.read_bytes()


def histogram_bytes(tmp_path, histograms):
    new, ref = tmp_path / "hist_new.csv", tmp_path / "hist_ref.csv"
    write_histograms_csv(histograms, new)
    helpers.ref_write_histograms_csv(histograms, list(histograms), ref)
    return new.read_bytes(), ref.read_bytes()


# 0, -1, 10**k - 1 and 10**k of either sign, 19-digit values and any other
# int64 but -2**63
EDGE_VALUES = st.sampled_from(
    [0, -1] + [sign * (10 ** k + d) for k in range(1, 19) for d in (-1, 0)
               for sign in (1, -1)])
NINETEEN_DIGITS = st.builds(lambda sign, v: sign * v, st.sampled_from([1, -1]),
                            st.integers(10 ** 18, 2 ** 63 - 1))
INT64 = st.integers(-2 ** 63 + 1, 2 ** 63 - 1)


@st.composite
def encoder_case(draw):
    """Columns of a few drawn values, spread over the rows, or drawn
    uniformly between two of them; some passed through a TextTable."""
    n_rows = draw(st.sampled_from([0, 1, CHUNK_ROWS - 1, CHUNK_ROWS + 1])
                  | st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns, expected = [], []
    for _ in range(draw(st.integers(1, 7))):
        pool = np.array(draw(st.lists(EDGE_VALUES | NINETEEN_DIGITS | INT64,
                                      min_size=1, max_size=8)),
                        dtype=np.int64)
        how = draw(st.sampled_from(["pool", "uniform", "table"]))
        if how == "uniform":
            col = rng.integers(pool.min(), pool.max(), size=n_rows,
                               endpoint=True, dtype=np.int64)
        else:
            codes = rng.integers(0, pool.size, size=n_rows)
            col = pool[codes]
        columns.append((codes, TextTable([pool])) if how == "table" else col)
        expected.append(col.tolist())
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return columns, expected, newline


@settings(max_examples=150, deadline=None)
@given(encoder_case())
def test_encoder_matches_str_join(case):
    columns, expected, newline = case
    want = "".join(",".join(map(str, row)) + newline
                   for row in zip(*expected)).encode()
    assert encode_rows(columns, newline.encode()) == want


@pytest.mark.parametrize("value", [2 ** 63 - 1, -2 ** 63 + 1])
def test_encoder_narrow_column_at_int64_ends(value):
    """A column of one value is encoded through a lookup table of its
    range, which must not step past the ends of int64."""
    col = np.full(CHUNK_ROWS - 1, value, dtype=np.int64)
    want = (str(value) + "\n").encode() * col.size
    assert encode_rows([col], b"\n") == want


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

    def test_integer_cells(self, tmp_path):
        """t_emit_ps is written in whole ps, ties rounded to even."""
        t_emit = [0.0, 0.5, 1.5, 2.5, 5.0, 2.0 ** 51 + 0.5, 1e16]
        new, ref = truth_bytes(tmp_path, truth_log(len(t_emit), t_emit=t_emit))
        assert new == ref
        assert truth_cells(new) == [b"0", b"0", b"2", b"2", b"5",
                                    b"2251799813685248", b"10000000000000000"]

    def test_many_users(self, tmp_path):
        """User ids into the hundreds, too wide a range for the encoder's
        lookup table, are written as the oracle writes them."""
        rng = np.random.default_rng(3)
        users = rng.integers(LOST, 500, size=(2, 3000)).astype(np.int32)
        truth = truth_log(3000, signal_user=users[0], idler_user=users[1])
        new, ref = truth_bytes(tmp_path, truth)
        assert new == ref

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
        cells = np.array([int(c) for c in truth_cells(new)], dtype=np.int64)
        assert np.all(np.abs(cells - res.truth.t_emit_ps) <= 0.5)


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
    def hist(self, a, b, offset_ps=5_000):
        return cross_correlate(np.asarray(a, dtype=np.int64),
                               np.asarray(b, dtype=np.int64), 128, 33 * 128,
                               offset_ps=offset_ps, duration_ps=10 ** 9)

    def test_all_zero_counts(self, tmp_path):
        hist = self.hist([0, 10 ** 6], [5 * 10 ** 8])
        assert hist.total() == 0
        new, ref = histogram_bytes(tmp_path, {(0, 1): hist})
        assert new == ref
        assert new.count(b"\r\n") == 1 + hist.n_bins

    def test_extra_metadata_keys(self, tmp_path):
        """The per-link keys of the old files (users, offset, singles) are
        columns; only the run-wide keys are metadata lines."""
        hists = {(4, 17): self.hist([100, 2_000, 9_000], [5_150, 7_100, 14_000]),
                 (17, 4): self.hist([5_150, 7_100], [100, 2_000], -5_000)}
        assert all(h.total() > 0 for h in hists.values())
        new, ref = histogram_bytes(tmp_path, hists)
        assert new == ref
        assert new.startswith(
            b"# bin_width_ps=128\n# duration_ps=1000000000\n"
            b"user_a,user_b,offset_ps,singles_a,singles_b,delay_ps,counts\r\n"
            b"4,17,5000,3,3,-2048,0\r\n")
        assert b"\r\n17,4,-5000,2,2,-2048," in new

    @pytest.mark.parametrize("n_bins", [CHUNK_ROWS - 1, CHUNK_ROWS + 1])
    def test_chunk_boundaries(self, tmp_path, n_bins):
        rng = np.random.default_rng(n_bins)
        hists = {link: CorrelationHistogram(
            bin_width_ps=64, offset_ps=-7, singles_a=5, singles_b=9,
            counts=rng.poisson(2.0, size=n_bins).astype(np.int64),
            duration_ps=10 ** 9) for link in [(0, 1), (2, 3)]}
        new, ref = histogram_bytes(tmp_path, hists)
        assert new == ref
        assert new.count(b"\r\n") == 1 + 2 * n_bins

    def test_run_wide_values_must_agree(self, tmp_path):
        a, b = self.hist([0], [0]), self.hist([0], [0])
        for field, value in (("bin_width_ps", 64), ("duration_ps", 5)):
            other = dataclasses.replace(b, **{field: value})
            with pytest.raises(ValueError, match="link 2-3"):
                write_histograms_csv({(0, 1): a, (2, 3): other},
                                     tmp_path / "h.csv")


def test_histograms_csv_round_trip(tmp_path, monkeypatch):
    """Each link's histogram comes back from histograms.csv field for field,
    and gives the bytes of its old per-link file; a reversed link and a
    repeated one included."""
    links = [(0, 1), (5, 2), (0, 8), (0, 1), (9, 16)]
    monkeypatch.setattr(report, "resolve_links", lambda plan, selector: links)
    cfg = config.with_overrides(config.default_config(), seed=5,
                                duration_s=0.05)
    bundle = report.run_bundle(cfg)
    report.write_bundle(bundle, str(tmp_path / "bundle"), wall_time_s=0.0)
    rebuilt = helpers.read_histograms_csv(tmp_path / "bundle" / "histograms.csv")
    assert list(rebuilt) == [(0, 1), (5, 2), (0, 8), (9, 16)]
    assert any(h.total() > 0 for h in rebuilt.values())
    for link, hist in rebuilt.items():
        want = bundle.histograms[link]
        for field in dataclasses.fields(CorrelationHistogram):
            got, expected = getattr(hist, field.name), getattr(want, field.name)
            if field.name == "counts":
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected)
            else:
                assert type(got) is type(expected) and got == expected, field.name
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        helpers.ref_write_histogram_csv(want, old, user_a=link[0], user_b=link[1])
        helpers.ref_write_histogram_csv(hist, new, user_a=link[0], user_b=link[1])
        assert new.read_bytes() == old.read_bytes()


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
