#!/usr/bin/env python3
"""Kernel throughput on a fixed input.

Generates streams shaped like a calibrated 60 s acquisition (two users at
roughly 90 kcps each, with a correlated coincidence peak) and times each
of the three tag-stream kernels on them, printing the best time and the
input tags per second.

Usage: python3 benchmarks/bench_kernels.py [--tags N] [--repeat K]
"""

import argparse
import time

import numpy as np

from entnetsim import _kernels


def make_streams(n_tags: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    duration_ps = int(n_tags / 90_000 * 1e12)
    a = rng.integers(0, duration_ps, size=n_tags, dtype=np.int64)
    # correlated subset: 15% of b tags echo a tags within detector jitter
    n_corr = int(0.15 * n_tags)
    echo = a[rng.integers(0, n_tags, size=n_corr)] + \
        rng.normal(0, 42, size=n_corr).astype(np.int64)
    b = np.concatenate([
        rng.integers(0, duration_ps, size=n_tags - n_corr, dtype=np.int64),
        echo])
    return np.sort(a), np.sort(b)


def best_time(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--tags", type=int, default=5_000_000)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    a, b = make_streams(args.tags)
    print(f"streams: {a.size:,} x {b.size:,} tags")

    # (name, call, input tags: a for the prune, a + b for the two-stream kernels)
    cases = [
        ("dead_time_prune (50 ns)",
         lambda: _kernels.dead_time_prune(a, 50_000), a.size),
        ("greedy_match (128 ps window)",
         lambda: _kernels.greedy_match(a, b, 0, 64), a.size + b.size),
        ("correlation_histogram (33 x 128 ps)",
         lambda: _kernels.correlation_histogram(a, b, 0, 128, 33),
         a.size + b.size),
    ]

    header = f"{'kernel':38s} {'time':>10s} {'tags/s':>10s}"
    print(header)
    print("-" * len(header))
    for name, call, n_tags in cases:
        t = best_time(call, args.repeat)
        print(f"{name:38s} {t * 1e3:8.1f}ms {n_tags / t:10.3g}")


if __name__ == "__main__":
    main()
