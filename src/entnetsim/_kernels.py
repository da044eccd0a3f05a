"""The tag-stream kernels: dead-time pruning, earliest-first coincidence
matching and correlation histogramming, in NumPy.

The test suite pins their semantics against brute-force oracles.

All timestamps are int64 picoseconds, streams sorted ascending. A user's
stream packs each tag as 2 * t + path (0 normal, 1 anomalous), so it is
in time order, path 0 first on equal times; only the helpers below spell
that layout.
"""

from __future__ import annotations

import numpy as np


def pack_paths(normal: np.ndarray, anomalous: np.ndarray) -> np.ndarray:
    """The two paths' tags packed into one new array, unsorted."""
    stream = np.concatenate((normal, anomalous))
    stream <<= 1
    stream[normal.size:] |= 1
    return stream


def tag_at(times):
    """The path-0 tag at each time, the least packed value there: the key
    that searches a stream by time."""
    return 2 * times


def tag_times(tags: np.ndarray) -> np.ndarray:
    return tags >> 1


def tag_paths(tags: np.ndarray) -> np.ndarray:
    return tags & 1


def dead_time_prune(tags: np.ndarray, dead_ps: int) -> np.ndarray:
    """Indices of tags kept by a non-paralyzable dead time.

    Scanning in time order, a tag is accepted iff it is at least dead_ps
    after the previously accepted tag; only accepted tags restart the
    dead window.
    """
    tags = np.ascontiguousarray(tags, dtype=np.int64)
    n = tags.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if dead_ps <= 0:
        return np.arange(n, dtype=np.int64)

    # A tag whose raw gap to its predecessor is >= dead_ps is always kept:
    # the last accepted tag can only be earlier than the predecessor.
    gaps = np.diff(tags)
    questionable = np.flatnonzero(gaps < dead_ps) + 1
    keep = np.ones(n, dtype=bool)
    qi = 0
    nq = questionable.size
    while qi < nq:
        # Walk one run of consecutive questionable tags sequentially; the
        # tag before the run has raw gap >= dead_ps, so it is accepted.
        start = questionable[qi]
        last = tags[start - 1]
        i = start
        while qi < nq and questionable[qi] == i:
            if tags[i] - last >= dead_ps:
                last = tags[i]
            else:
                keep[i] = False
            qi += 1
            i += 1
    return np.flatnonzero(keep).astype(np.int64)


def greedy_match(a: np.ndarray, b: np.ndarray, offset: int, half_window: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Earliest-first one-to-one matching of two sorted tag streams.

    Walking a in time order, each a-tag takes the earliest unconsumed
    b-tag with |b - a - offset| <= half_window, if any. Returns index
    arrays (into a and b) of the matched pairs, sorted by a.
    """
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    if a.size == 0 or b.size == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    lo_idx = np.searchsorted(b, a + (offset - half_window), side="left")
    hi_idx = np.searchsorted(b, a + (offset + half_window), side="right")
    candidates = np.flatnonzero(hi_idx > lo_idx)

    # the walk runs on Python ints: indexing NumPy arrays per element
    # costs more than the walk itself
    ia = []
    ib = []
    next_free = 0
    for i, lo, hi in zip(candidates.tolist(), lo_idx[candidates].tolist(),
                         hi_idx[candidates].tolist()):
        j = max(next_free, lo)
        if j < hi:
            ia.append(i)
            ib.append(j)
            next_free = j + 1
        elif lo > next_free:
            next_free = lo
    return (np.asarray(ia, dtype=np.int64), np.asarray(ib, dtype=np.int64))


def correlation_histogram(a: np.ndarray, b: np.ndarray, offset: int,
                          bin_width: int, n_bins: int) -> np.ndarray:
    """Histogram of all pairwise delays d = b - a - offset.

    Bins have width bin_width and jointly span [lo, lo + n_bins*bin_width)
    with lo = -(n_bins*bin_width)//2, so for an odd n_bins the center bin
    is centered on zero delay. Counts every pair in range (not one-to-one).
    """
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    if bin_width <= 0 or n_bins <= 0:
        raise ValueError("bin_width and n_bins must be positive")
    counts = np.zeros(n_bins, dtype=np.int64)
    if a.size == 0 or b.size == 0:
        return counts

    span = n_bins * bin_width
    lo = -(span // 2)
    start = np.searchsorted(b, a + (offset + lo), side="left")
    stop = np.searchsorted(b, a + (offset + lo + span), side="left")
    n_per_a = stop - start
    total = int(n_per_a.sum())
    if total == 0:
        return counts

    # Expand the (a index, b index) pairs within range, then bin.
    rep_a = np.repeat(a, n_per_a)
    flat_b_idx = np.repeat(start - np.concatenate(([0], np.cumsum(n_per_a)[:-1])),
                           n_per_a) + np.arange(total)
    delays = b[flat_b_idx] - rep_a - offset
    idx = (delays - lo) // bin_width
    return np.bincount(idx, minlength=n_bins)

