#!/usr/bin/env python3
"""Bundle-writer throughput on a fixed input.

Builds a synthetic truth log, tag stream and set of link histograms shaped
like those of a calibrated run, and times the bulk writers of the report
bundle on them (`sim.write_truth_csv`, `sim.write_tag_stream`,
`analysis.write_histograms_csv`). For comparison it also writes the same
histograms as one file per link, the layout of earlier bundles (through
the per-link oracle in tests/helpers.py), and creates as many empty files.
Every repeat writes into a new directory, so each file is created as in a
new bundle. Prints the best time of the repeats, the bytes written per
second and the cost of creating one file.

Before timing anything it writes the truth log, the tag stream and the
histogram table once more through their byte oracles in tests/helpers.py
(`ref_write_truth_csv`, `ref_write_tag_stream`,
`ref_write_histograms_csv`) and exits with status 1, printing nothing
timed, if a writer's bytes differ from its oracle's.

Usage: python3 benchmarks/bench_writers.py [--rows N] [--tags N]
                                           [--histograms N] [--repeat K]
"""

import argparse
import os
import sys
import tempfile
import time
from itertools import count

import numpy as np

from entnetsim.analysis import CorrelationHistogram, write_histograms_csv
from entnetsim.sim import LOST, TruthLog, write_tag_stream, write_truth_csv

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from helpers import (ref_write_histogram_csv, ref_write_histograms_csv,  # noqa: E402
                     ref_write_tag_stream, ref_write_truth_csv)

DURATION_PS = 250_000_000_000


def make_truth(n_rows: int, rng) -> TruthLog:
    users = rng.integers(0, 40, size=(2, n_rows)).astype(np.int32)
    users[rng.random((2, n_rows)) < 0.3] = LOST
    return TruthLog(
        pair_id=np.arange(n_rows, dtype=np.int64),
        resource_id=rng.integers(0, 20, size=n_rows).astype(np.int32),
        t_emit_ps=np.sort(rng.uniform(0, DURATION_PS, size=n_rows)),
        signal_user=users[0],
        idler_user=users[1],
        signal_detected=(users[0] != LOST) & (rng.random(n_rows) < 0.5),
        idler_detected=(users[1] != LOST) & (rng.random(n_rows) < 0.5),
    )


def make_histograms(n_hist: int, rng) -> dict[tuple[int, int], CorrelationHistogram]:
    return {(k // 40, k % 40 + 40): CorrelationHistogram(
        bin_width_ps=128, offset_ps=5_000_000,
        counts=rng.poisson(3.0, size=33).astype(np.int64),
        singles_a=21_603, singles_b=20_558, duration_ps=DURATION_PS)
        for k in range(n_hist)}


def best_time(fn, repeat: int, new_dir) -> tuple[float, list[str]]:
    """Best time of `repeat` calls fn(directory), each in a new directory,
    and the paths the last call wrote."""
    best, paths = float("inf"), []
    for _ in range(repeat):
        out = new_dir()
        t0 = time.perf_counter()
        paths = fn(out)
        best = min(best, time.perf_counter() - t0)
    return best, paths


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--rows", type=int, default=500_000)
    parser.add_argument("--tags", type=int, default=1_000_000)
    parser.add_argument("--histograms", type=int, default=780)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    truth = make_truth(args.rows, rng)
    tags = np.sort(rng.integers(0, DURATION_PS, size=args.tags, dtype=np.int64))
    hists = make_histograms(args.histograms, rng)

    def truth_csv(out):
        path = os.path.join(out, "truth.csv")
        write_truth_csv(truth, path)
        return [path]

    def tag_stream(out):
        path = os.path.join(out, "tags.txt")
        write_tag_stream(path, 0, 0, DURATION_PS, 42, tags)
        return [path]

    def histogram_table(out):
        path = os.path.join(out, "histograms.csv")
        write_histograms_csv(hists, path)
        return [path]

    def histogram_files(out):
        paths = []
        for (ua, ub), hist in hists.items():
            paths.append(os.path.join(out, f"link_{ua}-{ub}.csv"))
            ref_write_histogram_csv(hist, paths[-1], user_a=ua, user_b=ub)
        return paths

    def empty_files(out):
        paths = [os.path.join(out, f"f{k}") for k in range(len(hists))]
        for path in paths:
            open(path, "w").close()
        return paths

    # (writer, its byte oracle)
    checks = [
        (truth_csv, lambda path: ref_write_truth_csv(truth, path)),
        (tag_stream, lambda path: ref_write_tag_stream(
            path, 0, 0, DURATION_PS, 42, tags)),
        (histogram_table, lambda path: ref_write_histograms_csv(
            hists, list(hists), path)),
    ]
    with tempfile.TemporaryDirectory() as root:
        for writer, oracle in checks:
            path, = writer(root)
            ref = path + ".ref"
            oracle(ref)
            with open(path, "rb") as new_fh, open(ref, "rb") as ref_fh:
                if new_fh.read() != ref_fh.read():
                    sys.exit(f"{writer.__name__}: bytes differ from the"
                             f" oracle's ({os.path.basename(path)});"
                             " nothing timed")

    # (name, call, files the call creates)
    cases = [
        (f"write_truth_csv ({args.rows:,} rows)", truth_csv, 1),
        (f"write_tag_stream ({args.tags:,} tags)", tag_stream, 1),
        (f"write_histograms_csv ({len(hists)} links)", histogram_table, 1),
        (f"per-link histogram files ({len(hists)})", histogram_files, len(hists)),
        (f"empty files ({len(hists)})", empty_files, len(hists)),
    ]

    with tempfile.TemporaryDirectory() as root:
        dirs = count()

        def new_dir():
            path = os.path.join(root, f"run{next(dirs)}")
            os.mkdir(path)
            return path

        header = (f"{'writer':38s} {'time':>10s} {'MB':>7s} {'MB/s':>7s}"
                  f" {'ms/file':>8s}")
        print(header)
        print("-" * len(header))
        for name, call, n_files in cases:
            t, paths = best_time(call, args.repeat, new_dir)
            mb = sum(os.path.getsize(p) for p in paths) / 1e6
            rate = f"{mb / t:7.1f}" if mb else f"{'-':>7s}"
            per_file = f"{t * 1e3 / n_files:8.3f}" if n_files > 1 else ""
            print(f"{name:38s} {t * 1e3:8.1f}ms {mb:7.2f} {rate} {per_file}")


if __name__ == "__main__":
    main()
