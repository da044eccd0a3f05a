#!/usr/bin/env python3
"""Bundle-writer throughput on a fixed input.

Builds a synthetic truth log, tag stream and set of link histograms shaped
like those of a calibrated run, and times the three bulk writers of the
report bundle on them (`sim.write_truth_csv`, `sim.write_tag_stream`,
`analysis.write_histogram_csv`), writing into a temporary directory. Prints
the best time of the repeats and the bytes written per second.

Usage: python3 benchmarks/bench_writers.py [--rows N] [--tags N]
                                           [--histograms N] [--repeat K]
"""

import argparse
import os
import tempfile
import time

import numpy as np

from entnetsim.analysis import CorrelationHistogram, write_histogram_csv
from entnetsim.sim import LOST, TruthLog, write_tag_stream, write_truth_csv

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


def make_histograms(n_hist: int, rng) -> list[CorrelationHistogram]:
    return [CorrelationHistogram(
        bin_width_ps=128, offset_ps=5_000_000,
        counts=rng.poisson(3.0, size=33).astype(np.int64),
        singles_a=21_603, singles_b=20_558, duration_ps=DURATION_PS)
        for _ in range(n_hist)]


def best_time(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


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

    with tempfile.TemporaryDirectory() as out:
        truth_path = os.path.join(out, "truth.csv")
        tags_path = os.path.join(out, "tags.txt")
        hist_paths = [os.path.join(out, f"link_{k}.csv")
                      for k in range(len(hists))]

        def write_hists():
            for k, (hist, path) in enumerate(zip(hists, hist_paths)):
                write_histogram_csv(hist, path, user_a=k // 40, user_b=k % 40)

        # (name, call, files the call writes)
        cases = [
            (f"write_truth_csv ({args.rows:,} rows)",
             lambda: write_truth_csv(truth, truth_path), [truth_path]),
            (f"write_tag_stream ({args.tags:,} tags)",
             lambda: write_tag_stream(tags_path, 0, 0, DURATION_PS, 42, tags),
             [tags_path]),
            (f"write_histogram_csv ({len(hists)} files)",
             write_hists, hist_paths),
        ]

        header = f"{'writer':38s} {'time':>10s} {'MB':>7s} {'MB/s':>7s}"
        print(header)
        print("-" * len(header))
        for name, call, paths in cases:
            t = best_time(call, args.repeat)
            mb = sum(os.path.getsize(p) for p in paths) / 1e6
            print(f"{name:38s} {t * 1e3:8.1f}ms {mb:7.2f} {mb / t:7.1f}")


if __name__ == "__main__":
    main()
