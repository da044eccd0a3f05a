"""Coincidence analysis between users: correlation histograms, one-to-one
coincidence matching, CAR estimation and whole-network link matrices.

The heavy sweeps run on the kernels in _kernels; both sweep algorithms
are linear two-pointer passes over the sorted streams, never all-pairs
enumeration.

link_matrix finds the candidate tags of every link in one sweep over all
user streams (_pool_candidates). A candidate of link (a, b) is a tag of
one user with a tag of the other within the reach: the widest delay any
histogram bin, coincidence window or monitor window of the link can
accept. The sweep removes each user's delay, s = t - delay. Since the
link's offset is delay_b - delay_a, |t_b - t_a - offset| <= reach holds
exactly when |s_b - s_a| <= reach, so one pass over the shifted times of
all users finds the pairs within reach of every link at once, and the
search is exact. The sweep pools tags in time slabs of at most POOL_TAGS
core tags plus the tags within reach of the slab edges, so its memory is
set by POOL_TAGS and by the candidates found, not by the stream lengths.
A link's candidates are about 70 tags per stream on the 780-link network,
so the per-link work costs only its candidates.

Per link, the histogram and matching kernels run on the candidates only;
a tag with no partner within reach falls in no bin and is never matched,
so the results are exactly those of the full streams.

Sortedness is checked at the boundary: link_matrix checks each user
stream once, and the public cross_correlate and match_coincidences check
their own inputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._columns import CHUNK_ROWS, TextTable, encode_rows
from .photonics import ContractViolation
from .plan import NetworkPlan, resource_for_link

CAR_CAP = 1e9  # reported CAR when the accidental floor is exactly zero
# Most core tags pooled into one slab of the candidate sweep
# (_pool_candidates), which holds about 17 bytes per pooled tag at its
# peak. 1 << 18 raised the peak RSS of the 780-link, 0.2 s run (seed 7) by
# 3.5 MB, 1 << 17 by 1.6 MB at the same speed.
POOL_TAGS = 1 << 17
GAP_CHUNK = 1 << 14  # pooled tags per chunk of the slab's gap test


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


def _link_window(stream_a: tuple[np.ndarray, np.ndarray],
                 stream_b: tuple[np.ndarray, np.ndarray],
                 index_a: np.ndarray, index_b: np.ndarray, offset_ps: int,
                 window_ps: int, reach_ps: int) -> LinkWindow:
    """LinkWindow of two full (times, path_labels) streams from the
    positions of their candidate tags."""
    times_a, paths_a = stream_a
    times_b, paths_b = stream_b
    cand_a, cand_b = times_a[index_a], times_b[index_b]
    matches = match_coincidences(cand_a, cand_b, window_ps, offset_ps=offset_ps)
    return LinkWindow(offset_ps=int(offset_ps), reach_ps=int(reach_ps),
                      index_a=index_a, index_b=index_b,
                      times_a=cand_a, times_b=cand_b,
                      paths_a=np.asarray(paths_a)[index_a],
                      paths_b=np.asarray(paths_b)[index_b],
                      singles_a=int(times_a.size), singles_b=int(times_b.size),
                      matches=matches)


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
    cands = _pool_candidates({0: stream_a[0], 1: stream_b[0]},
                             {1: offset_ps}, reach_ps, [(0, 1)])
    return _link_window(stream_a, stream_b, cands[(0, 1)], cands[(1, 0)],
                        offset_ps, window_ps, reach_ps)


def _pool_candidates(times: dict[int, np.ndarray], delays_ps: dict[int, int],
                     reach_ps: int, pairs) -> dict[tuple[int, int], np.ndarray]:
    """Candidate positions of every requested user pair, from one sweep.

    times maps a user to a sorted int64 stream, delays_ps maps it to the
    delay removed from its times (0 when absent), and pairs lists user
    pairs (u, v) in either order, repeats allowed. Returns, for both (u, v)
    and (v, u), the sorted positions of the tags of u that have a tag of v
    with |s_v - s_u| <= reach_ps, where s = t - delay: for the link offset
    delay[v] - delay[u] that is |t_v - t_u - offset| <= reach_ps.

    Tags are pooled in time slabs [lo, hi) of at most POOL_TAGS core tags
    (at least one per stream, and equal times are never split), together
    with the tags within reach_ps of either edge, so the memory used is
    set by POOL_TAGS, the tag density and the candidates found, not by the
    stream lengths. Each pooled tag is packed as s * n_users + user, so
    one sort orders the pool by shifted time and keeps each user's tags in
    stream order. A tag is flagged when its shifted time is within
    reach_ps of a sorted neighbour's: every tag with another tag within
    reach is flagged, and the flagged tags are 3-7% of the pool.
    _slab_marks then finds the pairs of flagged tags within reach.
    """
    users = list(times)
    col = {u: i for i, u in enumerate(users)}
    n_users = len(users)
    wanted = np.zeros((n_users, n_users), dtype=bool)
    for u, v in pairs:
        wanted[col[u], col[v]] = wanted[col[v], col[u]] = True
    shift = {u: int(delays_ps.get(u, 0)) for u in users}
    keys = [u for u in users if times[u].size]
    stride = 1 + max((times[k].size for k in keys), default=0)
    span = max((abs(int(times[k][i]) - shift[k]) for k in keys for i in (0, -1)),
               default=0)
    if max(n_users * stride, span + 1) * n_users >= 1 << 63:
        raise ValueError("stream times or sizes too large to pack in int64")
    start = dict.fromkeys(users, 0)  # first tag of each stream not yet a core
    core = np.zeros((2, n_users), dtype=np.int64)  # [c0, c1) of each user
    per_key = max(1, POOL_TAGS // max(1, len(keys)))
    marks = []
    live = keys
    while live:
        lo = min(int(times[k][start[k]]) - shift[k] for k in live)
        # each stream holds at most per_key core tags in [lo, hi)
        bounds = [int(times[k][start[k] + per_key]) - shift[k] for k in live
                  if start[k] + per_key < times[k].size]
        hi = max(min(bounds), lo + 1) if bounds else None
        pool = []
        for k in keys:  # a spent stream still lends tags to the margin
            t, d = times[k], shift[k]
            a = int(np.searchsorted(t, lo - reach_ps + d))
            if hi is None:
                c1 = b = t.size
            else:
                c1 = int(np.searchsorted(t, hi + d))
                b = int(np.searchsorted(t, hi + reach_ps + d))
            packed = t[a:b] - d
            packed *= n_users
            packed += col[k]
            pool.append(packed)
            core[:, col[k]] = start[k], c1
            start[k] = c1
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
        flagged = packed[flag]
        del packed, near, flag
        if flagged.size:
            marks.append(_slab_marks(flagged, times, shift, keys, col, core,
                                     wanted, stride, reach_ps))
        live = [k for k in live if start[k] < times[k].size]
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


def _slab_marks(flagged, times, shift, keys, col, core, wanted, stride,
                reach_ps) -> np.ndarray:
    """Unique marks of the core tags of one slab of _pool_candidates.

    flagged holds the slab's flagged tags packed as s * n_users + user,
    sorted; core[:, user] the user's core positions [c0, c1). A tag's
    position is found by one searchsorted of its time in its user's
    stream, plus its rank among equal times of that user, which are
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
            pos[mine] = np.searchsorted(times[k], s[mine] + shift[k])
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
    full = {u: (_require_sorted(streams[u][0], f"user {u}"), streams[u][1])
            for u in users}
    cands = _pool_candidates({u: full[u][0] for u in users}, offsets_ps, reach,
                             links)
    duration_ps = int(round(duration_s * 1e12))
    reports = []
    histograms = {}
    windows = {}
    for (ua, ub) in links:
        rid, _pair, kind = resource_for_link(plan, ua, ub)
        offset = offsets_ps.get(ub, 0) - offsets_ps.get(ua, 0)
        win = _link_window(full[ua], full[ub], cands[(ua, ub)],
                           cands[(ub, ua)], offset, window_ps, reach)
        counts = cross_correlate(win.times_a, win.times_b, window_ps,
                                 hist_range_ps, offset_ps=offset).counts
        hist = CorrelationHistogram(
            bin_width_ps=int(window_ps), offset_ps=int(offset), counts=counts,
            singles_a=win.singles_a, singles_b=win.singles_b,
            duration_ps=duration_ps)
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


HISTOGRAMS_CSV_HEADER = ["user_a", "user_b", "offset_ps", "singles_a",
                         "singles_b", "delay_ps", "counts"]


def write_histograms_csv(histograms: dict[tuple[int, int], CorrelationHistogram],
                         path) -> None:
    """Every link's histogram in one long-format table.

    Two `# key=value` lines hold the run-wide bin_width_ps and
    duration_ps, which every histogram must share. Then come
    HISTOGRAMS_CSV_HEADER and one row per bin (CRLF line ends, as
    csv.writer), one block per link in the dict's order.

    All links' rows are one table, encoded by _columns.encode_rows and
    written CHUNK_ROWS (16384) rows at a time; each link's five key
    fields are encoded once. Besides the histograms the writer holds one
    chunk's columns, units and text and a few numbers per link: 2.7 MB
    at its peak (tracemalloc) for 780 links of 33 bins.
    """
    hists = list(histograms.values())
    run_wide = (hists[0].bin_width_ps, hists[0].duration_ps)
    for (ua, ub), hist in histograms.items():
        if (hist.bin_width_ps, hist.duration_ps) != run_wide:
            raise ValueError(
                f"link {ua}-{ub}: bin_width_ps {hist.bin_width_ps} and"
                f" duration_ps {hist.duration_ps} differ from the run's"
                f" {run_wide[0]} and {run_wide[1]}")
    keys = TextTable([
        [ua for ua, _ in histograms], [ub for _, ub in histograms],
        [h.offset_ps for h in hists], [h.singles_a for h in hists],
        [h.singles_b for h in hists]])
    sizes = np.array([h.n_bins for h in hists], dtype=np.int64)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    with open(path, "wb") as fh:
        fh.write(f"# bin_width_ps={run_wide[0]}\n"
                 f"# duration_ps={run_wide[1]}\n".encode()
                 + ",".join(HISTOGRAMS_CSV_HEADER).encode() + b"\r\n")
        for start in range(0, int(ends[-1]), CHUNK_ROWS):
            rows = np.arange(start, min(start + CHUNK_ROWS, int(ends[-1])))
            link = np.searchsorted(ends, rows, side="right")
            # bin i of a link is centred on (i - n_bins // 2) * bin_width
            delays = (rows - starts[link] - sizes[link] // 2) * run_wide[0]
            first, last = int(link[0]), int(link[-1])
            counts = np.concatenate([
                hists[k].counts[max(start - starts[k], 0):rows[-1] + 1 - starts[k]]
                for k in range(first, last + 1)])
            fh.write(encode_rows([(link, keys), delays, counts], b"\r\n"))
