"""Bundle writers: the column-wise writers must write exactly the bytes of
the per-row reference writers in helpers (csv.writer rows and one write
per tag), and the JSON writer those of json.dump. The encoder they share,
_columns.encode_rows, must spell every int64 row as str and join do.
histograms.csv must hold every field of each link's histogram, and
links.csv and keyrates.json the fields report.LINK_FIELDS gives them."""

import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entnetsim import ItuChannel, build_plan, config, report
from entnetsim._columns import CHUNK_ROWS, TextTable, encode_rows
from entnetsim.analysis import CorrelationHistogram, cross_correlate
from entnetsim.report import (write_histograms_csv, write_tag_stream,
                              write_truth_csv)
from entnetsim.sim import LOST, TruthLog, run_scenario

import helpers
from test_sim import light_system


def truth_log(n, seed=0, lengths=None, t_emit=None, signal_user=None,
              idler_user=None, signal_detected=None, idler_detected=None):
    """A truth log of n rows in runs of the given lengths. Unless given,
    the lengths are drawn: up to three 1-row runs, then the rest cut at
    three random rows, so a log of over a chunk has a run that crosses a
    chunk boundary. The users are given per run, the times and flags per
    row; what is not given is drawn."""
    rng = np.random.default_rng(seed)
    if lengths is None:
        ones = min(n, 3)
        lengths = np.diff(np.unique(np.r_[0:ones + 1, n, rng.integers(
            ones, n + 1, size=3)]))
    lengths = np.asarray(lengths, dtype=np.int64)
    assert lengths.sum() == n and np.all(lengths > 0)
    n_runs = lengths.size

    def pick(given, default):
        return np.asarray(given) if given is not None else default

    return TruthLog(
        t_emit_ps=pick(t_emit, np.sort(rng.uniform(0, 2.5e11, size=n))),
        signal_detected=pick(signal_detected, rng.random(n) < 0.5),
        idler_detected=pick(idler_detected, rng.random(n) < 0.5),
        first_row=np.cumsum(lengths) - lengths,
        resource_id=rng.integers(0, 20, size=n_runs).astype(np.int32),
        signal_user=pick(signal_user,
                         rng.integers(LOST, 40, size=n_runs).astype(np.int32)),
        idler_user=pick(idler_user,
                        rng.integers(LOST, 40, size=n_runs).astype(np.int32)),
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
    """A column of one value at either end of int64 is spelled in
    full."""
    col = np.full(CHUNK_ROWS - 1, value, dtype=np.int64)
    want = (str(value) + "\n").encode() * col.size
    assert encode_rows([col], b"\n") == want


class TestTruthCsv:
    def test_empty_log_is_header_only(self, tmp_path):
        new, ref = truth_bytes(tmp_path, truth_log(0))
        assert new == ref
        assert new.count(b"\r\n") == 1

    def test_lost_on_either_side(self, tmp_path):
        truth = truth_log(4, lengths=[1, 1, 1, 1],
                          signal_user=[LOST, 5, LOST, 0],
                          idler_user=[7, LOST, LOST, 39],
                          signal_detected=[False, True, False, True],
                          idler_detected=[True, False, False, True])
        new, ref = truth_bytes(tmp_path, truth)
        assert new == ref
        assert b",-1,7,0,1\r\n" in new and b",5,-1,1,0\r\n" in new

    def test_all_detected_flag_combinations(self, tmp_path):
        truth = truth_log(4, lengths=[4], signal_user=[2], idler_user=[9],
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
        """User ids into the hundreds, one run per row, are written as the
        oracle writes them."""
        rng = np.random.default_rng(3)
        users = rng.integers(LOST, 500, size=(2, 3000)).astype(np.int32)
        truth = truth_log(3000, lengths=np.ones(3000), signal_user=users[0],
                          idler_user=users[1])
        new, ref = truth_bytes(tmp_path, truth)
        assert new == ref

    @pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                                   3 * CHUNK_ROWS + 7])
    def test_chunk_boundaries(self, tmp_path, n):
        truth = truth_log(n, seed=n)
        new, ref = truth_bytes(tmp_path, truth)
        assert new == ref
        assert new.count(b"\r\n") == n + 1
        # a run crosses every chunk boundary inside the log
        boundaries = np.arange(CHUNK_ROWS, n, CHUNK_ROWS)
        assert not np.isin(boundaries, truth.first_row).any()

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
        assert hist.counts.sum() == 0
        new, ref = histogram_bytes(tmp_path, {(0, 1): hist})
        assert new == ref
        assert new.count(b"\r\n") == 1 + hist.n_bins

    def test_extra_metadata_keys(self, tmp_path):
        """The per-link keys of the old files (users, offset, singles) are
        columns; only the run-wide keys are metadata lines."""
        hists = {(4, 17): self.hist([100, 2_000, 9_000], [5_150, 7_100, 14_000]),
                 (17, 4): self.hist([5_150, 7_100], [100, 2_000], -5_000)}
        assert all(h.counts.sum() > 0 for h in hists.values())
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
    """Each link's histogram comes back from histograms.csv field for field;
    a reversed link and a repeated one included."""
    links = [(0, 1), (5, 2), (0, 8), (0, 1), (9, 16)]
    monkeypatch.setattr(config, "resolve_links", lambda plan, selector: links)
    cfg = config.with_overrides(config.default_config(), seed=5,
                                duration_s=0.05)
    bundle = report.run_bundle(cfg)
    report.write_bundle(bundle, str(tmp_path / "bundle"), wall_time_s=0.0)
    rebuilt = helpers.read_histograms_csv(tmp_path / "bundle" / "histograms.csv")
    assert list(rebuilt) == [(0, 1), (5, 2), (0, 8), (9, 16)]
    assert any(h.counts.sum() > 0 for h in rebuilt.values())
    for link, hist in rebuilt.items():
        want = bundle.records[link].histogram
        for field in dataclasses.fields(CorrelationHistogram):
            got, expected = getattr(hist, field.name), getattr(want, field.name)
            if field.name == "counts":
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected)
            else:
                assert type(got) is type(expected) and got == expected, field.name


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


def test_json_refuses_non_finite(tmp_path):
    """No bundle JSON can carry NaN or infinity, which JSON does not have."""
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            report._write_json(tmp_path / "x.json", {"links": [{"qber": value}]})


def test_keyrates_json_is_strict(tmp_path):
    """keyrates.json parses as strict JSON, holds null exactly where a
    link's record holds NaN and gives the monitor pair count once."""
    cfg = config.with_overrides(config.default_config(), seed=42,
                                duration_s=0.02, links="all")
    bundle = report.run_bundle(cfg)
    report.write_bundle(bundle, str(tmp_path), wall_time_s=0.0)

    def refuse(name):
        raise ValueError(f"non-finite {name} in keyrates.json")

    payload = json.loads((tmp_path / "keyrates.json").read_text(),
                         parse_constant=refuse)
    assert payload["schema"] == "entnetsim-keyrates/2"
    names, *rows = report._link_table(bundle.records.values(), report.KEYRATES)
    assert len(payload["links"]) == len(rows) == 780
    n_null = 0
    for link, row in zip(payload["links"], rows):
        assert "monitor_pairs" not in link["counts"]
        for name, value in zip(names, row):
            if isinstance(value, float) and np.isnan(value):
                assert link[name] is None, name
                n_null += 1
            else:
                assert link[name] == value, name
    assert n_null > 0


@pytest.fixture(scope="module")
def two_link_bundle():
    cfg = config.with_overrides(config.default_config(), seed=5,
                                duration_s=0.05, links="0-1,0-8")
    return report.run_bundle(cfg)


@pytest.mark.parametrize("file", [report.LINKS, report.KEYRATES])
def test_field_added_through_table_alone(tmp_path, monkeypatch,
                                         two_link_bundle, file):
    """One more LINK_FIELDS entry is one more links.csv column (the last)
    or keyrates.json key, in the file it names only."""
    monkeypatch.setattr(report, "LINK_FIELDS", report.LINK_FIELDS + (
        ("singles_a", (file,), "histogram.singles_a"),))
    report.write_bundle(two_link_bundle, str(tmp_path), wall_time_s=0.0)
    with open(tmp_path / "links.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    links = json.loads((tmp_path / "keyrates.json").read_text())["links"]
    singles = [rec.histogram.singles_a
               for rec in two_link_bundle.records.values()]
    assert len(links) == len(rows) == 2 and min(singles) > 0
    if file == report.LINKS:
        assert header[-1] == "singles_a" and len(header) == 8
        assert [int(row[-1]) for row in rows] == singles
        assert all("singles_a" not in link for link in links)
    else:
        assert "singles_a" not in header and len(header) == 7
        assert [link["singles_a"] for link in links] == singles


def test_readme_lists_links_csv_columns():
    """README's bundle layout gives links.csv's columns as LINK_FIELDS
    does."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = re.search(r"^  links\.csv +# (\S+)$", readme, re.M)
    assert line is not None
    assert line.group(1) == ",".join(
        name for name, files, _ in report.LINK_FIELDS if report.LINKS in files)
