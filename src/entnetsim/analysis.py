"""Coincidence analysis between users: correlation histograms, one-to-one
coincidence matching, CAR estimation and whole-network link matrices.

The heavy sweeps run on the kernels in _kernels; both sweep algorithms
are linear two-pointer passes over the sorted streams, never all-pairs
enumeration.

link_matrix first filters all user streams together (_pool_keep): it
keeps the tags that have another tag, of any user, within the reach once
each user's delay is removed. The reach is the widest delay any
histogram bin, coincidence window or monitor window of a link can
accept. A link's offset is the difference of its users' delays, so a tag
with a partner within reach on some link is always kept: the filter is
exact. It pools tags in time slabs of at most POOL_TAGS core tags plus
the tags within reach of the slab edges, so its memory is set by
POOL_TAGS, not by the stream lengths.

Per link, one searchsorted over the two users' kept tags then finds the
candidate tags: those with a partner in the other stream within the
link's reach. The histogram and matching kernels run on the candidates
only; a tag with no partner within reach falls in no bin and is never
matched, so the results are exactly those of the full streams.

Sortedness is checked at the boundary: link_matrix checks each user
stream once, and the public cross_correlate and match_coincidences check
their own inputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from ._columns import write_rows
from .photonics import ContractViolation
from .plan import NetworkPlan, resource_for_link

CAR_CAP = 1e9  # reported CAR when the accidental floor is exactly zero
# Most core tags pooled into one slab of the candidate pre-filter
# (_pool_keep), which holds about 17 bytes per pooled tag at its peak.
# 1 << 18 raised the peak RSS of the 780-link, 0.2 s run (seed 7) by
# 3.5 MB, 1 << 17 by 1.6 MB at the same speed.
POOL_TAGS = 1 << 17


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
        half = self.n_bins // 2
        return (np.arange(-half, half + 1, dtype=np.int64) * self.bin_width_ps)

    def total(self) -> int:
        return int(self.counts.sum())


def _require_sorted(stream: np.ndarray, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(stream, dtype=np.int64)
    if arr.size > 1 and np.any(np.diff(arr) < 0):
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


def compute_car(hist: CorrelationHistogram, peak_window_ps: int,
                guard_windows: int = 3) -> CarEstimate:
    """Coincidence-to-accidental ratio of a correlation histogram.

    Peak counts are summed over a peak_window_ps-wide group of bins
    centered on the maximum bin; the accidental floor is the mean of the
    off-peak bins, excluding guard_windows peak-widths on each side of the
    peak, scaled to the peak window width.
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

    guard = guard_windows * nwin
    off_mask = np.ones(n, dtype=bool)
    off_mask[max(0, lo - guard):min(n, hi + guard)] = False
    if not np.any(off_mask):
        raise ValueError("no off-peak bins left to estimate the accidental floor")
    acc_per_bin = float(counts[off_mask].mean())
    acc_per_window = acc_per_bin * nwin
    if acc_per_window == 0:
        return CarEstimate(car=CAR_CAP, peak_counts=peak_counts,
                           peak_bin=peak_bin, accidental_per_window=0.0,
                           capped=True)
    return CarEstimate(car=peak_counts / acc_per_window,
                       peak_counts=peak_counts, peak_bin=peak_bin,
                       accidental_per_window=acc_per_window, capped=False)


def _within(gap: np.ndarray, reach_ps: int) -> np.ndarray:
    """gap in [0, reach_ps]. A negative gap comes from an index clipped at
    the end of a stream and names no neighbour on that side."""
    return (gap >= 0) & (gap <= reach_ps)


def _candidates(a: np.ndarray, b: np.ndarray, offset_ps: int, reach_ps: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the tags of a and of b that have a partner in the other
    stream at |t_b - t_a - offset| <= reach_ps, from one searchsorted.

    Temporaries are few and reused: this runs on two full user streams
    per link.
    """
    if a.size == 0 or b.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    shifted = a + offset_ps
    # b[pos - 1] < shifted[i] <= b[pos]: the nearest b-tag on each side
    pos = np.searchsorted(b, shifted)
    # k[j] = #{i: pos[i] <= j} = #{i: shifted[i] <= b[j]}, so
    # shifted[k - 1] <= b[j] < shifted[k]: the nearest a-tag on each side
    k = np.cumsum(np.bincount(pos, minlength=b.size + 1)[:b.size])
    gap = np.take(b, pos, mode="clip")
    gap -= shifted
    near_a = _within(gap, reach_ps)
    pos -= 1
    np.subtract(shifted, np.take(b, pos, mode="clip"), out=gap)
    near_a |= _within(gap, reach_ps)
    del pos, gap
    gap = np.take(shifted, k, mode="clip")
    gap -= b
    near_b = _within(gap, reach_ps)
    k -= 1
    np.subtract(b, np.take(shifted, k, mode="clip"), out=gap)
    near_b |= _within(gap, reach_ps)
    return np.flatnonzero(near_a), np.flatnonzero(near_b)


@dataclass(frozen=True)
class LinkWindow:
    """The tags of one link that can pair, and their narrow-window match.

    Candidates are the tags of each stream with a partner in the other at
    |t_b - t_a - offset| <= reach_ps; index_a and index_b are their
    positions in the full streams, singles_a and singles_b the full stream
    sizes. matches indexes the candidate arrays, so index_a[matches.index_a]
    are positions in the full stream a. Any window or histogram of at most
    reach_ps half-width gives the same result on the candidates as on the
    full streams.
    """

    offset_ps: int
    reach_ps: int
    index_a: np.ndarray
    index_b: np.ndarray
    times_a: np.ndarray
    times_b: np.ndarray
    paths_a: np.ndarray
    paths_b: np.ndarray
    singles_a: int
    singles_b: int
    matches: CoincidenceSet


def link_window(stream_a: tuple[np.ndarray, np.ndarray],
                stream_b: tuple[np.ndarray, np.ndarray], offset_ps: int,
                window_ps: int, reach_ps: int) -> LinkWindow:
    """Candidate tags of one link and their match_coincidences at window_ps.

    stream_a and stream_b are (times, path_labels) with times sorted
    ascending int64; they are not checked here (link_matrix checks each
    user stream once).
    """
    if reach_ps < window_ps // 2:
        raise ValueError("reach_ps must cover the coincidence half-window")
    times_a, paths_a = stream_a
    times_b, paths_b = stream_b
    index_a, index_b = _candidates(times_a, times_b, int(offset_ps),
                                   int(reach_ps))
    cand_a, cand_b = times_a[index_a], times_b[index_b]
    matches = match_coincidences(cand_a, cand_b, window_ps, offset_ps=offset_ps)
    return LinkWindow(offset_ps=int(offset_ps), reach_ps=int(reach_ps),
                      index_a=index_a, index_b=index_b,
                      times_a=cand_a, times_b=cand_b,
                      paths_a=np.asarray(paths_a)[index_a],
                      paths_b=np.asarray(paths_b)[index_b],
                      singles_a=int(times_a.size), singles_b=int(times_b.size),
                      matches=matches)


def _pool_keep(times: dict[int, np.ndarray], delays_ps: dict[int, int],
               reach_ps: int) -> dict[int, np.ndarray]:
    """Positions of the tags of each stream that have another tag, of any
    stream, within reach_ps once each stream's delay is removed.

    times maps a key to a sorted int64 stream, delays_ps maps it to the
    delay subtracted from its times (0 when absent). Tags are pooled in
    time slabs [lo, hi) of at most POOL_TAGS core tags (at least one per
    stream, and equal times are never split), together with the tags
    within reach_ps of either edge, so the memory used is set by
    POOL_TAGS and the tag density, not by the stream lengths. In each
    slab the pooled shifted times are sorted and a value is flagged when
    its gap to either sorted neighbour is at most reach_ps; a core tag is
    kept when its shifted value is flagged. Testing the value is exact:
    an equal value elsewhere in the pool is a gap of 0 and flags it too.
    """
    kept = {k: [] for k in times}
    shift = {k: int(delays_ps.get(k, 0)) for k in times}
    start = dict.fromkeys(times, 0)  # first tag of each stream not yet a core
    keys = [k for k in times if times[k].size]
    per_key = max(1, POOL_TAGS // max(1, len(keys)))
    live = keys
    while live:
        lo = min(int(times[k][start[k]]) - shift[k] for k in live)
        # each stream holds at most per_key core tags in [lo, hi)
        bounds = [int(times[k][start[k] + per_key]) - shift[k] for k in live
                  if start[k] + per_key < times[k].size]
        hi = max(min(bounds), lo + 1) if bounds else None
        pool, cores = [], []
        for k in keys:  # a spent stream still lends tags to the margin
            t, d = times[k], shift[k]
            a = int(np.searchsorted(t, lo - reach_ps + d))
            if hi is None:
                c1 = b = t.size
            else:
                c1 = int(np.searchsorted(t, hi + d))
                b = int(np.searchsorted(t, hi + reach_ps + d))
            pool.append(t[a:b] - d)
            cores.append((k, start[k], c1))
            start[k] = c1
        values = np.concatenate(pool)
        del pool
        values.sort()
        near = np.diff(values) <= reach_ps
        flag = np.zeros(values.size, dtype=bool)
        flag[1:] = near
        flag[:-1] |= near
        flagged = values[flag]
        del values, near, flag
        if flagged.size:
            last = flagged.size - 1
            for k, c0, c1 in cores:
                core = times[k][c0:c1] - shift[k]
                at = np.searchsorted(flagged, core)
                np.minimum(at, last, out=at)
                hit = np.flatnonzero(flagged[at] == core)
                if hit.size:
                    kept[k].append(hit + c0)
        live = [k for k in live if start[k] < times[k].size]
    return {k: np.concatenate(v) if v else np.empty(0, dtype=np.int64)
            for k, v in kept.items()}


@dataclass(frozen=True)
class LinkReport:
    user_a: int
    user_b: int
    kind: str
    resource_id: int
    coincidences: int
    car: float
    duration_s: float


def link_matrix(streams: dict[int, tuple[np.ndarray, np.ndarray]],
                plan: NetworkPlan, links, window_ps: int,
                offsets_ps: dict[int, int], duration_s: float,
                monitor_window_ps: int, hist_range_ps: int | None = None
                ) -> tuple[list[LinkReport],
                           dict[tuple[int, int], CorrelationHistogram],
                           dict[tuple[int, int], LinkWindow]]:
    """Coincidence count and CAR for each requested user pair.

    streams maps user id to its merged (times, path_labels); each times
    array is checked sorted once here. offsets_ps maps user id to its
    configured propagation delay, whose pairwise difference centers each
    link's window. Also returns each link's LinkWindow, whose reach covers
    the histogram, the coincidence window and monitor_window_ps, for
    analyze_link.
    """
    if hist_range_ps is None:
        hist_range_ps = 33 * window_ps
    span = _histogram_bins(window_ps, hist_range_ps) * window_ps
    lo = -(span // 2)  # histogram delays run from lo to lo + span - 1
    reach = max(-lo, lo + span - 1, window_ps // 2, monitor_window_ps // 2)
    users = sorted({u for link in links for u in link})
    times = {u: _require_sorted(streams[u][0], f"user {u}") for u in users}
    keep = _pool_keep(times, offsets_ps, reach)
    kept = {u: (times[u][keep[u]], np.asarray(streams[u][1])[keep[u]])
            for u in users}
    duration_ps = int(round(duration_s * 1e12))
    reports = []
    histograms = {}
    windows = {}
    for (ua, ub) in links:
        rid, _pair, kind = resource_for_link(plan, ua, ub)
        offset = offsets_ps.get(ub, 0) - offsets_ps.get(ua, 0)
        win = link_window(kept[ua], kept[ub], offset, window_ps, reach)
        win = replace(win, index_a=keep[ua][win.index_a],
                      index_b=keep[ub][win.index_b],
                      singles_a=times[ua].size, singles_b=times[ub].size)
        hist = replace(cross_correlate(win.times_a, win.times_b, window_ps,
                                       hist_range_ps, offset_ps=offset,
                                       duration_ps=duration_ps),
                       singles_a=win.singles_a, singles_b=win.singles_b)
        car = compute_car(hist, window_ps)
        reports.append(LinkReport(user_a=ua, user_b=ub, kind=kind,
                                  resource_id=rid,
                                  coincidences=len(win.matches),
                                  car=car.car, duration_s=duration_s))
        histograms[(ua, ub)] = hist
        windows[(ua, ub)] = win
    return reports, histograms, windows


LINKS_CSV_HEADER = ["user_a", "user_b", "kind", "resource_id",
                    "coincidences", "car", "duration_s"]


def write_links_csv(reports: list[LinkReport], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LINKS_CSV_HEADER)
        for r in reports:
            writer.writerow([r.user_a, r.user_b, r.kind, r.resource_id,
                             r.coincidences, repr(r.car), repr(r.duration_s)])


def write_histogram_csv(hist: CorrelationHistogram, path, **metadata) -> None:
    """Histogram CSV: `# key=value` metadata header lines, then
    delay_ps,counts rows in csv.writer's dialect (CRLF line ends)."""
    delays, counts = hist.delays_ps(), hist.counts
    with open(path, "w", newline="") as fh:
        for key in sorted(metadata):
            fh.write(f"# {key}={metadata[key]}\n")
        fh.write(f"# bin_width_ps={hist.bin_width_ps}\n")
        fh.write(f"# offset_ps={hist.offset_ps}\n")
        fh.write(f"# singles_a={hist.singles_a}\n")
        fh.write(f"# singles_b={hist.singles_b}\n")
        fh.write(f"# duration_ps={hist.duration_ps}\n")
        fh.write("delay_ps,counts\r\n")
        write_rows(fh, min(delays.size, counts.size),
                   lambda start, stop: [map(str, delays[start:stop].tolist()),
                                        map(str, counts[start:stop].tolist())],
                   "\r\n")
