#!/usr/bin/env python3
"""Candidate search throughput on a fixed input.

Generates 40 user streams shaped like the full network at calibrated
rates (about 92k tags/s per user, three fiber delays, 3.5% of each user's
tags echoing another user's tag within detector jitter) and times, for
all 780 links, the one pooled candidate sweep that link_matrix runs, the
sweep plus the 780 LinkWindows (candidate arrays and narrow-window
matches) that link_matrix builds from it, and for reference 780 calls of
link_window, each a search over the two full streams of one link. Prints
the best time and the input tags per second.

Usage: python3 benchmarks/bench_candidates.py [--seconds S] [--repeat K]
"""

import argparse
import time
from itertools import combinations

import numpy as np

from entnetsim import analysis

USERS = 40
RATE_HZ = 92_500
DELAYS_PS = (0, 5_000_000, 10_000_000)
# share of tags echoing another user: the pooled filter then keeps about
# as many tags (7-9%) as it does on the simulated all_links streams
ECHO_FRAC = 0.035
WINDOW_PS = 128
# link_matrix's reach for the default config: the 33 x 128 ps histogram
# (half-span 2112 ps) covers the 128 ps and 4096 ps windows
REACH_PS = 2112


def make_streams(seconds: float, seed: int = 0):
    rng = np.random.default_rng(seed)
    duration_ps = int(seconds * 1e12)
    n = int(RATE_HZ * seconds)
    delay = np.resize(np.asarray(DELAYS_PS, dtype=np.int64), USERS)
    own = rng.integers(0, duration_ps, size=(USERS, n), dtype=np.int64)
    n_echo = int(ECHO_FRAC * n)
    times = {}
    for u in range(USERS):
        src = (u + rng.integers(1, USERS, size=n_echo)) % USERS
        echo = (own[src, rng.integers(0, n, size=n_echo)] - delay[src]
                + delay[u] + rng.normal(0, 42, n_echo).astype(np.int64))
        times[u] = np.sort(np.concatenate([own[u, :n - n_echo], echo]))
    delays = {u: int(delay[u]) for u in range(USERS)}
    paths = {u: rng.integers(0, 2, size=times[u].size, dtype=np.uint8)
             for u in range(USERS)}
    return times, paths, delays


def best_time(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=0.2)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    times, paths, delays = make_streams(args.seconds)
    links = list(combinations(range(USERS), 2))
    n_tags = sum(t.size for t in times.values())
    cands = analysis._pool_candidates(times, delays, REACH_PS, links)
    n_cand = sum(c.size for c in cands.values())
    print(f"streams: {USERS} users, {n_tags:,} tags, {len(links)} links;"
          f" {n_cand:,} candidate positions ({n_cand / n_tags:.1%})")

    full = {u: (times[u], paths[u]) for u in times}

    def sweep():
        return analysis._pool_candidates(times, delays, REACH_PS, links)

    def sweep_and_windows():
        c = sweep()
        for ua, ub in links:
            analysis._link_window(full[ua], full[ub], c[(ua, ub)],
                                  c[(ub, ua)], delays[ub] - delays[ua],
                                  WINDOW_PS, REACH_PS)

    def per_link():
        for ua, ub in links:
            analysis.link_window(full[ua], full[ub],
                                 delays[ub] - delays[ua], WINDOW_PS, REACH_PS)

    cases = [
        ("one sweep, 780 links", sweep),
        ("one sweep + 780 LinkWindows", sweep_and_windows),
        ("link_window x780 on full streams", per_link),
    ]

    header = f"{'stage':36s} {'time':>10s} {'tags/s':>10s}"
    print(header)
    print("-" * len(header))
    for name, call in cases:
        t = best_time(call, args.repeat)
        print(f"{name:36s} {t * 1e3:8.1f}ms {n_tags / t:10.3g}")


if __name__ == "__main__":
    main()
