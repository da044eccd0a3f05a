"""Coincidence analysis between users: correlation histograms, one-to-one
coincidence matching, CAR estimation and whole-network link windows.

The heavy sweeps run on the kernels in _kernels; both sweep algorithms
are linear two-pointer passes over the sorted streams, never all-pairs
enumeration.

link_matrix finds the candidate tags of every link in one sweep over all
user streams (_pool_candidates). A candidate of link (a, b) is a tag of
one user with a tag of the other within the reach the caller gives: the
widest delay any histogram bin, coincidence window or monitor window of
the link will accept. The sweep removes each user's delay, s = t - delay.
Since the link's offset is delay_b - delay_a, |t_b - t_a - offset| <=
reach holds exactly when |s_b - s_a| <= reach, so one pass over the
shifted times of all users finds the pairs within reach of every link at
once, and the search is exact. The sweep pools tags in time slabs of at
most POOL_TAGS core tags plus the tags within reach of the slab edges, so
its memory is set by POOL_TAGS and by the candidates found, not by the
stream lengths. A link's candidates are about 70 tags per stream on the
780-link network, so the per-link work costs only its candidates.

A user stream is sim's sorted array of packed tags, 2 * t + path, whose
layout only _kernels spells (tag_at, tag_times, tag_paths). The sweep
unpacks one slab's slice of a stream at a time, never a whole stream,
and each LinkWindow holds its link's candidates packed and, made on
first use, their narrow-window match. The per-link steps run on that
window alone, unpacking what they read: link_histogram (HIST_BINS
bins), compute_car, and doqkd's analyze_link. A tag with no partner
within reach falls in no bin and is never matched, so the results are
exactly those of the full streams.

Sortedness is checked at the boundary: link_matrix checks each user
stream once, and the public cross_correlate and match_coincidences check
their own inputs.

Where it runs: the sweep's slabs are planned in this process and
weighted by their core tags; sim.fork_map finds their marks across the
CPUs, the first share here. The windows are built here, and each
window's match is made where its link is analysed: in report.run_bundle,
the per-link stage, split across the same processes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import _kernels, sim
from ._kernels import tag_at, tag_times
from .photonics import ContractViolation

CAR_CAP = 1e9  # reported CAR of a non-zero peak on an accidental floor of 0
GUARD_WINDOWS = 3  # peak widths left out of the floor on each side of the peak
# Bins of a link's delay histogram, each one coincidence window wide; odd,
# so the histogram spans HIST_BINS * window_ps // 2 either side of zero.
HIST_BINS = 33
# Most core tags pooled into one slab of the candidate sweep
# (_pool_candidates), which holds about 17 bytes per pooled tag at its
# peak. 1 << 18 raised the peak RSS of the 780-link, 0.2 s run (seed 7) by
# 3.5 MB, 1 << 17 by 1.6 MB at the same speed.
POOL_TAGS = 1 << 17
GAP_CHUNK = 1 << 14  # pooled tags per chunk of the slab's gap test


def bin_centres_ps(index, n_bins, bin_width_ps):
    """Centre of bin `index` of a zero-centred histogram of n_bins bins:
    (index - n_bins // 2) * bin_width_ps. For an even n_bins the extra bin
    is on the negative side (4 bins of 10 ps: -20, -10, 0, 10)."""
    return (index - n_bins // 2) * bin_width_ps


@dataclass(frozen=True)
class CorrelationHistogram:
    """Delay histogram between two tag streams.

    Bins are zero-centered: the middle bin straddles zero delay (after
    removing the configured offset), so a jitter-limited coincidence peak
    falls into a single bin. n_bins is forced odd for that reason, which
    may widen the covered span by one bin over the requested range.
    """

    bin_width_ps: int
    offset_ps: int
    counts: np.ndarray
    singles_a: int
    singles_b: int
    duration_ps: int

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    def delays_ps(self) -> np.ndarray:
        """Bin centers."""
        return bin_centres_ps(np.arange(self.n_bins, dtype=np.int64),
                              self.n_bins, self.bin_width_ps)


def _require_sorted(stream: np.ndarray, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(stream, dtype=np.int64)
    if arr.size > 1 and (arr[1:] < arr[:-1]).any():
        raise ContractViolation(f"{name} stream must be sorted ascending")
    return arr


def _histogram_bins(bin_width_ps: int, range_ps: int) -> int:
    """Odd bin count covering range_ps (see CorrelationHistogram)."""
    if bin_width_ps <= 0:
        raise ValueError("bin_width_ps must be positive")
    if range_ps < bin_width_ps:
        raise ValueError("range_ps must cover at least one bin")
    n_bins = -(-range_ps // bin_width_ps)  # ceil
    if n_bins % 2 == 0:
        n_bins += 1
    return n_bins


def cross_correlate(a: np.ndarray, b: np.ndarray, bin_width_ps: int,
                    range_ps: int, offset_ps: int = 0,
                    duration_ps: int = 0) -> CorrelationHistogram:
    """Histogram of all pairwise delays (b - a - offset) within the range.

    All-pairs semantics within the window (a tag may appear in several
    delay pairs); computed with a linear sweep.
    """
    a = _require_sorted(a, "a")
    b = _require_sorted(b, "b")
    n_bins = _histogram_bins(bin_width_ps, range_ps)
    counts = _kernels.correlation_histogram(a, b, int(offset_ps),
                                            int(bin_width_ps), int(n_bins))
    return CorrelationHistogram(bin_width_ps=int(bin_width_ps),
                                offset_ps=int(offset_ps), counts=counts,
                                singles_a=int(a.size), singles_b=int(b.size),
                                duration_ps=int(duration_ps))


@dataclass(frozen=True)
class CoincidenceSet:
    """One-to-one matched tag pairs within a full-width window around offset."""

    window_ps: int
    offset_ps: int
    index_a: np.ndarray
    index_b: np.ndarray
    times_a: np.ndarray
    times_b: np.ndarray

    def __len__(self) -> int:
        return int(self.index_a.size)

    def deltas_ps(self) -> np.ndarray:
        """Residual delays t_b - t_a - offset of the matched pairs."""
        return self.times_b - self.times_a - self.offset_ps


def match_coincidences(a: np.ndarray, b: np.ndarray, window_ps: int,
                       offset_ps: int = 0) -> CoincidenceSet:
    """Greedy earliest-first one-to-one matching.

    window_ps is the full window width: a pair qualifies when
    |t_b - t_a - offset| <= window_ps // 2. Each tag is used at most once;
    walking the first stream in time order, each tag takes the earliest
    unconsumed partner in its window.
    """
    a = _require_sorted(a, "a")
    b = _require_sorted(b, "b")
    if window_ps <= 0:
        raise ValueError("window_ps must be positive")
    ia, ib = _kernels.greedy_match(a, b, int(offset_ps), int(window_ps) // 2)
    return CoincidenceSet(window_ps=int(window_ps), offset_ps=int(offset_ps),
                          index_a=ia, index_b=ib,
                          times_a=a[ia], times_b=b[ib])


@dataclass(frozen=True)
class CarEstimate:
    car: float
    peak_counts: int
    peak_bin: int
    accidental_per_window: float
    capped: bool


def compute_car(hist: CorrelationHistogram, peak_window_ps: int) -> CarEstimate:
    """Coincidence-to-accidental ratio of a correlation histogram.

    Peak counts are summed over a peak_window_ps-wide group of bins
    centered on the maximum bin; the accidental floor is the mean of the
    off-peak bins, excluding GUARD_WINDOWS peak-widths on each side of the
    peak, scaled to the peak window width. On a floor of 0 the CAR is
    CAR_CAP (capped) under a non-zero peak and nan under an empty one.
    """
    if peak_window_ps < hist.bin_width_ps:
        raise ValueError("peak_window_ps must be at least one bin wide")
    counts = hist.counts
    n = counts.size
    nwin = max(1, int(round(peak_window_ps / hist.bin_width_ps)))
    peak_bin = int(np.argmax(counts))
    half = (nwin - 1) // 2
    lo = max(0, peak_bin - half)
    hi = min(n, lo + nwin)
    peak_counts = int(counts[lo:hi].sum())

    guard = GUARD_WINDOWS * nwin
    off_mask = np.ones(n, dtype=bool)
    off_mask[max(0, lo - guard):min(n, hi + guard)] = False
    if not np.any(off_mask):
        raise ValueError("no off-peak bins left to estimate the accidental floor")
    acc_per_bin = float(counts[off_mask].mean())
    acc_per_window = acc_per_bin * nwin
    if acc_per_window == 0:
        return CarEstimate(car=CAR_CAP if peak_counts else float("nan"),
                           peak_counts=peak_counts, peak_bin=peak_bin,
                           accidental_per_window=0.0, capped=peak_counts > 0)
    return CarEstimate(car=peak_counts / acc_per_window,
                       peak_counts=peak_counts, peak_bin=peak_bin,
                       accidental_per_window=acc_per_window, capped=False)


@dataclass(frozen=True)
class LinkWindow:
    """The tags of one link that can pair, and their narrow-window match.

    offset_ps is delay_b_ps - delay_a_ps, the difference of the users'
    propagation delays. Candidates are the tags of each stream with a
    partner in the other at |t_b - t_a - offset| <= reach_ps; tags_a and
    tags_b are their packed tags (_kernels.tag_times and tag_paths unpack
    them), index_a and index_b their positions in the full streams,
    singles_a and singles_b the full stream sizes. matches, their match at
    window_ps, indexes the candidate arrays, so index_a[matches.index_a]
    are positions in the full stream a. Any window or histogram of at
    most reach_ps half-width gives the same result on the candidates as on
    the full streams.
    """

    delay_a_ps: int
    delay_b_ps: int
    reach_ps: int
    index_a: np.ndarray
    index_b: np.ndarray
    tags_a: np.ndarray
    tags_b: np.ndarray
    singles_a: int
    singles_b: int
    window_ps: int

    @property
    def offset_ps(self) -> int:
        return self.delay_b_ps - self.delay_a_ps

    @cached_property
    def matches(self) -> CoincidenceSet:
        """match_coincidences of the candidates at window_ps, made on
        first use, so in the process that analyses the link."""
        return match_coincidences(tag_times(self.tags_a),
                                  tag_times(self.tags_b), self.window_ps,
                                  offset_ps=self.offset_ps)


def _pool_candidates(streams: dict[int, np.ndarray], delays_ps: dict[int, int],
                     reach_ps: int, pairs) -> dict[tuple[int, int], np.ndarray]:
    """Candidate positions of every requested user pair, from one sweep.

    streams maps a user to its sorted stream of packed tags, delays_ps
    maps it to the delay removed from its times t (0 when absent), and
    pairs lists user pairs (u, v) in either order, repeats allowed.
    Returns, for both (u, v) and (v, u), the sorted positions of the tags
    of u that have a tag of v with |s_v - s_u| <= reach_ps, where
    s = t - delay: for the link offset delay[v] - delay[u] that is
    |t_v - t_u - offset| <= reach_ps.

    Tags are pooled in time slabs [lo, hi) of at most POOL_TAGS core tags
    (at least one per stream, and equal times are never split), together
    with the tags within reach_ps of either edge, so the memory used is
    set by POOL_TAGS, the tag density and the candidates found, not by the
    stream lengths. Each pooled tag is unpacked and packed again as
    s * n_users + user, so one sort orders the pool by shifted time and
    keeps each user's tags in stream order. A tag is flagged when its
    shifted time is within reach_ps of a sorted neighbour's: every tag
    with another tag within reach is flagged, and the flagged tags are
    3-7% of the pool (_slab_flagged).
    _slab_marks then finds the pairs of flagged tags within reach.

    The slabs are planned first, with each stream's core positions. Each
    slab pools its own margins and marks only its own core tags, so the
    slabs are independent: sim.fork_map finds each slab's marks in one of
    its processes, the slabs weighted by their core tags.
    """
    users = list(streams)
    col = {u: i for i, u in enumerate(users)}
    n_users = len(users)
    wanted = np.zeros((n_users, n_users), dtype=bool)
    for u, v in pairs:
        wanted[col[u], col[v]] = wanted[col[v], col[u]] = True
    shift = {u: int(delays_ps.get(u, 0)) for u in users}
    keys = [u for u in users if streams[u].size]
    stride = 1 + max((streams[k].size for k in keys), default=0)
    span = max((abs(int(tag_times(streams[k][i])) - shift[k]) for k in keys
                for i in (0, -1)), default=0)
    if max(n_users * stride, span + 1) * n_users >= 1 << 63:
        raise ValueError("stream times or sizes too large to pack in int64")
    slabs = []  # (lo, hi or None, [c0, c1) of each user's core)
    start = dict.fromkeys(users, 0)  # first tag of each stream not yet a core
    per_key = max(1, POOL_TAGS // max(1, len(keys)))
    live = keys
    while live:
        lo = min(int(tag_times(streams[k][start[k]])) - shift[k] for k in live)
        # each stream holds at most per_key core tags in [lo, hi)
        bounds = [int(tag_times(streams[k][start[k] + per_key])) - shift[k]
                  for k in live if start[k] + per_key < streams[k].size]
        hi = max(min(bounds), lo + 1) if bounds else None
        core = np.zeros((2, n_users), dtype=np.int64)
        for k in keys:
            c1 = (streams[k].size if hi is None else
                  int(np.searchsorted(streams[k], tag_at(hi + shift[k]))))
            core[:, col[k]] = start[k], c1
            start[k] = c1
        slabs.append((lo, hi, core))
        live = [k for k in live if start[k] < streams[k].size]

    def slab_marks(share):
        """The marks of each slab of share, one array a slab."""
        marks = []
        for lo, hi, core in (slabs[i] for i in share):
            flagged = _slab_flagged(streams, shift, keys, col, lo, hi,
                                    reach_ps)
            marks.append(_slab_marks(flagged, streams, shift, keys, col,
                                     core, wanted, stride, reach_ps)
                         if flagged.size else np.empty(0, dtype=np.int64))
        return marks

    core_tags = [int((core[1] - core[0]).sum()) for _, _, core in slabs]
    marks = sim.fork_map("sweep", slab_marks, core_tags, lambda i: f"slab {i}")
    packed = np.concatenate(marks) if marks else np.empty(0, dtype=np.int64)
    del marks
    packed.sort()
    group = np.searchsorted(packed,
                            np.arange(n_users * n_users + 1) * stride)
    positions = packed % stride
    del packed
    out = {}
    for u, v in pairs:
        for x, y in ((u, v), (v, u)):
            g = col[x] * n_users + col[y]
            out[(x, y)] = positions[group[g]:group[g + 1]]
    return out


def _slab_flagged(streams, shift, keys, col, lo, hi, reach_ps
                  ) -> np.ndarray:
    """The flagged tags of slab [lo, hi) of _pool_candidates (hi None:
    to the streams' ends), packed as s * n_users + user and sorted.

    The slab pools each stream's tags in [lo - reach_ps, hi + reach_ps),
    its core tags and their margins, by shifted time."""
    n_users = len(col)
    pool = []
    for k in keys:  # a spent stream still lends tags to the margin
        t, d = streams[k], shift[k]
        a = int(np.searchsorted(t, tag_at(lo - reach_ps + d)))
        b = (t.size if hi is None else
             int(np.searchsorted(t, tag_at(hi + reach_ps + d))))
        packed = tag_times(t[a:b])
        packed -= d
        packed *= n_users
        packed += col[k]
        pool.append(packed)
    packed = np.concatenate(pool)
    del pool
    packed.sort()
    # gaps of the shifted times, a chunk at a time: no full-size copy
    near = np.empty(max(0, packed.size - 1), dtype=bool)
    for i in range(0, near.size, GAP_CHUNK):
        gap = np.diff(packed[i:i + GAP_CHUNK + 1] // n_users)
        np.less_equal(gap, reach_ps, out=near[i:i + GAP_CHUNK])
    flag = np.zeros(packed.size, dtype=bool)
    flag[1:] = near
    flag[:-1] |= near
    return packed[flag]


def _slab_marks(flagged, streams, shift, keys, col, core, wanted, stride,
                reach_ps) -> np.ndarray:
    """Unique marks of the core tags of one slab of _pool_candidates.

    flagged holds the slab's flagged tags packed as s * n_users + user,
    sorted; core[:, user] the user's core positions [c0, c1). A tag's
    position is found by one searchsorted of its time (tag_at) in its
    user's stream, plus its rank among equal times of that user, which are
    adjacent in flagged. The tags are then walked at growing sorted
    distance j: when the pair (i, i + j) lies within reach and its users
    form a requested pair, each core tag of the pair is marked for the
    other's user. Once no pair at distance j is within reach, none at a
    larger distance is either, so the walk finds every pair. A mark packs
    (user, partner, position) as (user * n_users + partner) * stride +
    position.
    """
    n_users = wanted.shape[0]
    s = flagged // n_users
    user = flagged - s * n_users
    pos = np.empty(flagged.size, dtype=np.int64)
    for k in keys:
        mine = np.flatnonzero(user == col[k])
        if mine.size:
            pos[mine] = np.searchsorted(streams[k], tag_at(s[mine] + shift[k]))
    index = np.arange(flagged.size)
    tied = np.zeros(flagged.size, dtype=bool)
    tied[1:] = flagged[1:] == flagged[:-1]
    pos += index - np.maximum.accumulate(np.where(tied, 0, index))
    is_core = (pos >= core[0, user]) & (pos < core[1, user])
    found = []
    i = np.flatnonzero(np.diff(s) <= reach_ps)
    j = 1
    while i.size:
        k = i + j
        pick = wanted[user[i], user[k]]
        for x, y in ((i, k), (k, i)):
            m = pick & is_core[x]
            found.append((user[x[m]] * n_users + user[y[m]]) * stride
                         + pos[x[m]])
        j += 1
        i = i[i < s.size - j]
        i = i[s[i + j] - s[i] <= reach_ps]
    marks = np.concatenate(found) if found else np.empty(0, dtype=np.int64)
    marks.sort()
    fresh = np.ones(marks.size, dtype=bool)
    fresh[1:] = marks[1:] != marks[:-1]
    return marks[fresh]


def link_matrix(streams: dict[int, np.ndarray], links,
                delays_ps: dict[int, int], window_ps: int, reach_ps: int
                ) -> dict[tuple[int, int], LinkWindow]:
    """The LinkWindow of each requested user pair, from one candidate sweep.

    streams maps user id to its stream, one sorted int64 array of packed
    tags 2 * t + path (sim.ScenarioResult.streams); each is checked sorted
    once here. delays_ps maps user id to its configured propagation
    delay (0 when absent), whose pairwise difference centers each link's
    window. Each window holds the link's packed tags within reach_ps and,
    on first use, their match_coincidences at window_ps, on the unpacked
    candidates; no full stream is unpacked.
    Returns the windows keyed by link (ua, ub), in the order of links,
    with a link listed twice kept once, at its first place.
    """
    if window_ps <= 0:
        raise ValueError("window_ps must be positive")
    if reach_ps < window_ps // 2:
        raise ValueError("reach_ps must cover the coincidence half-window")
    links = list(dict.fromkeys(links))
    users = sorted({u for link in links for u in link})
    full = {u: _require_sorted(streams[u], f"user {u}") for u in users}
    cands = _pool_candidates(full, delays_ps, reach_ps, links)
    windows = {}
    for (ua, ub) in links:
        index_a, index_b = cands[(ua, ub)], cands[(ub, ua)]
        tags_a, tags_b = full[ua][index_a], full[ub][index_b]
        delay_a, delay_b = int(delays_ps.get(ua, 0)), int(delays_ps.get(ub, 0))
        windows[(ua, ub)] = LinkWindow(
            delay_a_ps=delay_a, delay_b_ps=delay_b, reach_ps=int(reach_ps),
            index_a=index_a, index_b=index_b, tags_a=tags_a, tags_b=tags_b,
            singles_a=int(full[ua].size), singles_b=int(full[ub].size),
            window_ps=int(window_ps))
    return windows


def link_histogram(win: LinkWindow, window_ps: int,
                   duration_ps: int) -> CorrelationHistogram:
    """Delay histogram of one link, HIST_BINS bins of window_ps, from its
    candidate tags: the cross_correlate of its two full streams, whose
    sizes it carries as singles. The window's reach must cover the
    histogram's span."""
    if win.reach_ps < HIST_BINS * window_ps // 2:
        raise ValueError("link window reach is narrower than the histogram")
    hist = cross_correlate(tag_times(win.tags_a), tag_times(win.tags_b),
                           window_ps, HIST_BINS * window_ps,
                           offset_ps=win.offset_ps, duration_ps=duration_ps)
    return replace(hist, singles_a=win.singles_a, singles_b=win.singles_b)
