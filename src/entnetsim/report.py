"""Scenario orchestration and report-bundle output.

Runs plan -> simulation -> coincidence analysis -> key post-processing for
a selected link set and writes the CSV/JSON artifact bundle. Every number
written here is produced by a module operation; this file only routes and
formats. It alone spells the bundle's files, through three write paths:
csv.writer rows (_write_rows), chunked NumPy-encoded int columns
(_write_table) and sorted JSON (_write_json). All files are written
atomically (write-then-rename); a failed write leaves no temporary file.

run_bundle makes one LinkRecord per link (ReportBundle.records, in link
order). LINK_FIELDS declares each per-link field of links.csv and
keyrates.json once, and both files are written from it by _link_table.

Reproducibility contract: with identical resolved configuration (which
includes the seed), every file in the bundle is byte-identical across
runs, except timing.json, which holds only wall-clock measurements (the
run's and each file's write time) and is documented as non-reproducible.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter

import numpy as np

from . import __version__
from ._columns import CHUNK_ROWS, TextTable, encode_rows
from ._kernels import tag_paths, tag_times
from .analysis import (HIST_BINS, CorrelationHistogram, bin_centres_ps,
                       compute_car, link_histogram, link_matrix)
from .config import FIGURE_LINKS, FIGURES, ConfigError, ScenarioConfig, provenance
from .config import resolve_links  # noqa: F401  (public as report.resolve_links)
from .doqkd import KeyRateReport, analyze_link
from .plan import NetworkPlan, resource_for_link, subnet_label
from .rates import expected_singles_rate, monitor_expected_iqr_ps
from .sim import (ScenarioResult, SystemConfig, TruthLog, fiber_delay_ps,
                  fork_map, run_scenario, PATH_NAMES)

# Peak memory per expected tag (expected_tags), rounded up: the 60 s
# figures CLI run (87.45M expected tags) peaked at 832684 kB ru_maxrss
# in the process that runs run_scenario and 680600 kB in its pass-2
# worker, 1513244 kB together at most in three runs, 17.7 bytes a tag
# (NUMPY_MADVISE_HUGEPAGE=0, 2 CPUs). The sum bounds the host total: it
# counts twice the pages the two share.
BYTES_PER_TAG = 20
# The same with the --dump-truth log: the 8 s figures CLI run (11.66M
# expected tags) peaked at 396828 + 193076 kB, 589904 kB at most in
# three runs, 51.8 bytes a tag. The parent holds the whole log; a
# worker holds no part of it.
BYTES_PER_TRUTH_TAG = 53
JSON_CHUNKS = 8192  # json encoder chunks joined into one write


class FigureDataError(ValueError):
    """A figure was requested that the run's links or duration cannot
    give."""


@dataclass(frozen=True)
class LinkRecord:
    """One link's results; the key report is None in a 0 s run.
    LINK_FIELDS says which of them links.csv and keyrates.json hold."""
    user_a: int
    user_b: int
    kind: str
    resource_id: int
    coincidences: int
    car: float
    duration_s: float
    histogram: CorrelationHistogram
    key: KeyRateReport | None


@dataclass
class ReportBundle:
    config: ScenarioConfig
    records: dict[tuple[int, int], LinkRecord]
    result: ScenarioResult = field(repr=False)

    @property
    def key_reports(self) -> dict[tuple[int, int], KeyRateReport]:
        """The links' key reports, where present (perfbench reads them)."""
        return {link: rec.key for link, rec in self.records.items()
                if rec.key is not None}

    @property
    def plan(self) -> NetworkPlan:
        return self.config.network_plan()

    @property
    def links(self) -> tuple[tuple[int, int], ...]:
        return self.config.selected_links

    @property
    def singles_counts(self) -> dict[tuple[int, int], int]:
        """Detected tags per (user, path) of the run."""
        return self.result.singles_counts


def physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def expected_tags(plan: NetworkPlan, sys_cfg: SystemConfig, users,
                  duration_s: float) -> float:
    """Expected detected tags of the users over the duration, from
    rates.expected_singles_rate."""
    return duration_s * sum(expected_singles_rate(plan, sys_cfg, u)
                            for u in users)


def check_memory(cfg: ScenarioConfig, collect_truth: bool = False) -> None:
    """Raise ConfigError naming run.duration_s when the run's
    expected_tags would need more than the host's physical memory at
    BYTES_PER_TAG a tag, or at BYTES_PER_TRUTH_TAG when the run collects
    the ground-truth log."""
    users, duration_s = cfg.selected_users, cfg.duration_s
    tags = expected_tags(cfg.network_plan(), cfg.system(), users, duration_s)
    per_tag = BYTES_PER_TRUTH_TAG if collect_truth else BYTES_PER_TAG
    need, have = tags * per_tag, physical_memory_bytes()
    if need > have:
        raise ConfigError(
            f"run.duration_s: {duration_s:g} s over {len(users)} users is"
            f" about {tags:.3g} tags, needing about {need / 1e9:.3g} GB;"
            f" this host has {have / 1e9:.3g} GB. Shorten the run or select"
            " fewer links.")


def run_bundle(cfg: ScenarioConfig, collect_truth: bool = False) -> ReportBundle:
    """Execute the full pipeline for the run's selected links.

    One pass over link_matrix's windows makes each link's LinkRecord:
    its histogram, CAR and, for a run longer than 0 s, key report. The
    records are made across the CPUs (sim.fork_map), each link weighted
    by its candidate tags alone, and come back in link order. Raises
    ConfigError before any simulation when the run would not fit in
    physical memory (check_memory).
    """
    plan, sys_cfg, qkd_cfg = cfg.network_plan(), cfg.system(), cfg.qkd()
    users, window = cfg.selected_users, qkd_cfg.window_ps
    check_memory(cfg, collect_truth)

    result = run_scenario(plan, sys_cfg, cfg.duration_s, cfg.seed,
                          selected_users=users, collect_truth=collect_truth)
    streams = {u: result.user_stream(u) for u in users}
    delays = {u: fiber_delay_ps(sys_cfg.losses, u) for u in users}
    # the reach covers the histogram and the monitor window
    reach = max(HIST_BINS * window // 2, qkd_cfg.monitor_window_ps // 2)

    windows = link_matrix(streams, cfg.selected_links, delays, window, reach)
    links = list(windows)

    def link_records(share):
        records = []
        for ua, ub in (links[i] for i in share):
            win = windows[(ua, ub)]
            coincidences = len(win.matches)  # the window's match, made here
            rid, pair, kind = resource_for_link(plan, ua, ub)
            hist = link_histogram(win, window, result.duration_ps)
            key = (analyze_link(win, qkd_cfg, cfg.duration_s,
                                monitor_expected_ps=monitor_expected_iqr_ps(
                                    pair, sys_cfg))
                   if cfg.duration_s > 0 else None)
            records.append(LinkRecord(
                user_a=ua, user_b=ub, kind=kind, resource_id=rid,
                coincidences=coincidences, car=compute_car(hist, window).car,
                duration_s=cfg.duration_s, histogram=hist, key=key))
        return records

    records = dict(zip(links, fork_map(
        "per-link", link_records,
        [win.tags_a.size + win.tags_b.size for win in windows.values()],
        lambda i: "link {}-{}".format(*links[i]))))
    return ReportBundle(config=cfg, records=records, result=result)


# ---------------------------------------------------------------------------
# figure-shaped CSV data

def _figure_links(plan: NetworkPlan, figure: str) -> list[tuple[int, int]]:
    if figure not in FIGURE_LINKS:
        raise FigureDataError(
            f"unknown figure {figure!r}; expected one of {FIGURES}")
    return FIGURE_LINKS[figure](plan)


def check_figures(cfg: ScenarioConfig, figures) -> None:
    """Raise FigureDataError unless each figure's links (FIGURE_LINKS) are
    among the run's selected links, and a key-rate figure (fig4a, fig4b)
    has a run duration above 0, without which no link has a key report."""
    have = set(cfg.selected_links)
    for figure in figures:
        missing = [f"{ua}-{ub}" for (ua, ub) in
                   _figure_links(cfg.network_plan(), figure)
                   if (ua, ub) not in have]
        if missing:
            raise FigureDataError(
                f"{figure} needs links absent from this run: {', '.join(missing)}"
                " (run with --links figures or --links all)")
        if figure.startswith("fig4") and cfg.duration_s <= 0:
            raise FigureDataError(
                f"{figure} needs key rates, which a run.duration_s of 0 does"
                " not give")


def emit_figure_data(bundle: ReportBundle, figure: str) -> list[list]:
    """Rows (including header) for one figure-shaped CSV; check_figures
    says whether the bundle holds the figure's links.

    fig3a/fig3b: per-link delay histograms (one intra pair per subnet /
    the representative inter pairs). fig4a: secure key rate of every link
    in the first subnet, numbered 1..n in lexicographic order. fig4b:
    secure key rate of the representative inter links, labeled by subnet
    letter pairs.
    """
    plan = bundle.plan
    wanted = _figure_links(plan, figure)
    if figure.startswith("fig3"):
        rows = [["subnet" if figure == "fig3a" else "link",
                 "user_a", "user_b", "delay_ps", "counts"]]
        for (ua, ub) in wanted:
            hist = bundle.records[(ua, ub)].histogram
            label = (subnet_label(plan.subnet_of(ua)) if figure == "fig3a"
                     else _pair_label(plan, ua, ub))
            for d, c in zip(hist.delays_ps(), hist.counts):
                rows.append([label, ua, ub, int(d), int(c)])
        return rows
    rows = [["link", "user_a", "user_b", "secure_rate_bps"]]
    for idx, (ua, ub) in enumerate(wanted, start=1):
        label = idx if figure == "fig4a" else _pair_label(plan, ua, ub)
        rows.append([label, ua, ub,
                     repr(bundle.records[(ua, ub)].key.secure_rate_bps)])
    return rows


def _pair_label(plan: NetworkPlan, ua: int, ub: int) -> str:
    return subnet_label(plan.subnet_of(ua)) + subnet_label(plan.subnet_of(ub))


# ---------------------------------------------------------------------------
# bundle writing

def _atomic_via(path: str, writer_fn) -> None:
    tmp = f"{path}.tmp"
    try:
        writer_fn(tmp)
        os.replace(tmp, path)
    except BaseException:  # path stays as it was
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _keyrates_payload(bundle: ReportBundle) -> dict:
    names, *rows = _link_table((rec for rec in bundle.records.values()
                                if rec.key is not None), KEYRATES)
    # JSON has no NaN: an undefined value (the one value unequal to
    # itself) is written null
    return {"schema": "entnetsim-keyrates/2",
            "links": [{name: None if value != value else value
                       for name, value in zip(names, row)} for row in rows]}


def _metadata_payload(bundle: ReportBundle, overrides: dict) -> dict:
    cfg = bundle.config
    return {
        "schema": "entnetsim-run-metadata/1",
        "package_version": __version__,
        "seed": cfg.seed,
        "duration_s": cfg.duration_s,
        "links_requested": cfg.links,
        "n_links": len(bundle.links),
        "n_users_selected": len(cfg.selected_users),
        "config_hash": cfg.config_hash(),
        "resolved_config": cfg.as_dict(),
        "parameter_provenance": provenance(),
        "cli_overrides": overrides,
        "emitted_pairs": {str(k): v for k, v in
                          sorted(bundle.result.emitted_pairs.items())},
        "singles_counts": {f"{u}:{PATH_NAMES[p]}": c for (u, p), c in
                           sorted(bundle.singles_counts.items())},
    }


def write_bundle(bundle: ReportBundle, out_dir: str, wall_time_s: float,
                 overrides: dict | None = None, figures=(),
                 dump_tags: bool = False, dump_truth: bool = False) -> list[str]:
    """Write the artifact bundle; returns the relative paths written.

    Raises FigureDataError before writing anything when a requested
    figure is one the bundle cannot give (check_figures), and ValueError
    when dump_truth asks for a truth log the run did not collect.
    timing.json holds wall_time_s and, under write_s, the seconds each
    other file took to write, keyed by its relative path.
    """
    check_figures(bundle.config, figures)
    result = bundle.result
    if dump_truth and result.truth is None:
        raise ValueError("truth log was not collected for this run")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    write_s = {}

    def emit(relpath: str, writer_fn):
        t0 = time.perf_counter()
        _atomic_via(os.path.join(out_dir, relpath), writer_fn)
        write_s[relpath] = time.perf_counter() - t0
        written.append(relpath)

    emit("plan.csv", lambda p: write_plan_csv(bundle.plan, p))
    emit(LINKS, lambda p: _write_rows(
        p, _link_table(bundle.records.values(), LINKS)))
    emit("histograms.csv", lambda p: write_histograms_csv(
        {link: rec.histogram for link, rec in bundle.records.items()}, p))
    emit(KEYRATES, lambda p: _write_json(p, _keyrates_payload(bundle)))
    emit("run-metadata.json",
         lambda p: _write_json(p, _metadata_payload(bundle, overrides or {})))
    for figure in figures:
        rows = emit_figure_data(bundle, figure)
        emit(f"{figure}.csv", lambda p: _write_rows(p, rows))
    if dump_tags:
        os.makedirs(os.path.join(out_dir, "tags"), exist_ok=True)
        for user in sorted(result.streams):
            tags = result.user_stream(user)
            for path_idx in (0, 1):
                emit(f"tags/user{user}_{PATH_NAMES[path_idx]}.txt",
                     lambda p: write_tag_stream(
                         p, user, path_idx, result.duration_ps, result.seed,
                         tag_times(tags[tag_paths(tags) == path_idx])))
    if dump_truth:
        emit("truth.csv", lambda p: write_truth_csv(result.truth, p))

    # wall times live outside the reproducible bundle on purpose
    _atomic_via(os.path.join(out_dir, "timing.json"), lambda p: _write_json(
        p, {"wall_time_s": wall_time_s, "write_s": write_s}))
    written.append("timing.json")
    return written


def _write_json(path: str, payload: dict) -> None:
    """Sorted, indented, strict JSON, the bytes of json.dump; a NaN or
    infinity raises ValueError. emit() or _atomic_via makes the write
    atomic.

    json.dump makes one write per encoder chunk (about 92k for the
    780-link keyrates.json) and json.dumps holds all the chunks at once
    (3.8 MB traced for that file), so the chunks are joined and written
    JSON_CHUNKS at a time.
    """
    chunks = json.JSONEncoder(indent=2, sort_keys=True,
                              allow_nan=False).iterencode(payload)
    with open(path, "w", newline="") as fh:
        for group in iter(lambda: list(islice(chunks, JSON_CHUNKS)), []):
            fh.write("".join(group))
        fh.write("\n")


def _write_rows(path: str, rows: list[list]) -> None:
    """csv.writer rows: the figure tables, plan.csv and links.csv."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerows(rows)


def _write_table(path: str, head: bytes, n_rows: int, columns_of,
                 newline: bytes) -> None:
    """The bulk files: `head`, then the n_rows lines of a table of int
    columns, each ended by `newline`.

    The lines are encoded by _columns.encode_rows and written CHUNK_ROWS
    (16384) at a time: columns_of(chunk) gives the columns of the rows
    in `chunk`, a slice, so besides its input the writer holds one
    chunk's columns, units and text however long the table is.
    """
    with open(path, "wb") as fh:
        fh.write(head)
        for start in range(0, n_rows, CHUNK_ROWS):
            chunk = slice(start, min(start + CHUNK_ROWS, n_rows))
            fh.write(encode_rows(columns_of(chunk), newline))


# ---------------------------------------------------------------------------
# the bundle's files: each one's header and writer

# plan.csv layout (bit-exact, documented in README):
#   record,user_id,subnet,channels,resource_id,signal_channel,idler_channel,role,subnet_a,subnet_b
# User rows fill user_id/subnet/channels and leave resource fields empty;
# resource rows do the reverse. Channel lists are +-joined C-labels in
# manifest order (intra pair first, then inter channels by peer subnet).
PLAN_CSV_HEADER = ["record", "user_id", "subnet", "channels", "resource_id",
                   "signal_channel", "idler_channel", "role", "subnet_a", "subnet_b"]


def write_plan_csv(plan: NetworkPlan, path) -> None:
    rows = [PLAN_CSV_HEADER]
    for user in plan.users():
        channels = "+".join(ch.label() for ch in plan.user_manifests[user])
        rows.append(["user", user, subnet_label(plan.subnet_of(user)),
                     channels, "", "", "", "", "", ""])
    for pair in plan.resources:
        rows.append(["resource", "", "", "", pair.resource_id,
                     pair.signal.label(), pair.idler.label(),
                     "intra" if pair.signal_subnet == pair.idler_subnet
                     else "inter", subnet_label(pair.signal_subnet),
                     subnet_label(pair.idler_subnet)])
    _write_rows(path, rows)


# Every per-link field of links.csv (a column) and keyrates.json (a key
# per link), in file order: (name in the file, the files it goes to, its
# attrgetter path in a LinkRecord). A new field is one more entry.
LINKS, KEYRATES = "links.csv", "keyrates.json"
LINK_FIELDS = (
    *((name, (LINKS, KEYRATES), name)
      for name in ("user_a", "user_b", "kind", "resource_id")),
    *((name, (LINKS,), name)  # car is nan for an all-zero histogram
      for name in ("coincidences", "car", "duration_s")),
    ("sifted_rate_sym_s", (KEYRATES,), "key.sifted_rate_sym_s"),
    ("qber", (KEYRATES,), "key.qber"),
    ("mutual_information_bits", (KEYRATES,), "key.mutual_info_bits"),
    ("secret_fraction_bits", (KEYRATES,), "key.secret_fraction_bits"),
    ("secure_rate_bps", (KEYRATES,), "key.secure_rate_bps"),
    ("monitor_spread_ps", (KEYRATES,), "key.monitor.spread_ps"),
    ("monitor_expected_ps", (KEYRATES,), "key.monitor.expected_ps"),
    ("monitor_pairs", (KEYRATES,), "key.monitor.n_pairs"),
    ("monitor_inconclusive", (KEYRATES,), "key.monitor.inconclusive"),
    ("monitor_anomalous", (KEYRATES,), "key.monitor.anomalous"),
    ("key_spread_ps", (KEYRATES,), "key.key_spread_ps"),
    ("counts", (KEYRATES,), "key.counts"),
    ("discards", (KEYRATES,), "key.discards"),
)


def _link_table(records, file: str) -> list[list]:
    """The names of the LINK_FIELDS that go to `file`, then one row of
    their values per record (csv.writer and json spell floats by repr)."""
    fields = [(name, attrgetter(path)) for name, files, path in LINK_FIELDS
              if file in files]
    return [[name for name, _ in fields]] + [
        [get(rec) for _, get in fields] for rec in records]


HISTOGRAMS_CSV_HEADER = ["user_a", "user_b", "offset_ps", "singles_a",
                         "singles_b", "delay_ps", "counts"]


def write_histograms_csv(histograms: dict[tuple[int, int], CorrelationHistogram],
                         path) -> None:
    """Every link's histogram in one long-format table.

    Two `# key=value` lines hold the run-wide bin_width_ps and
    duration_ps, which every histogram must share. Then come
    HISTOGRAMS_CSV_HEADER and one row per bin (CRLF line ends, as
    csv.writer), one block per link in the dict's order.

    All links' rows are one table (_write_table); each link's five key
    fields are encoded once. Besides the histograms the writer holds the
    table's link, delay and count columns and one chunk's units and
    text: 3.1 MB at its peak (tracemalloc) for 780 links of 33 bins.
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
    link = np.repeat(np.arange(len(hists)), sizes)
    index = np.arange(link.size) - (np.cumsum(sizes) - sizes)[link]
    delays = bin_centres_ps(index, sizes[link], run_wide[0])
    counts = np.concatenate([h.counts for h in hists])
    head = (f"# bin_width_ps={run_wide[0]}\n# duration_ps={run_wide[1]}\n"
            + ",".join(HISTOGRAMS_CSV_HEADER) + "\r\n")
    _write_table(path, head.encode(), link.size,
                 lambda chunk: [(link[chunk], keys), delays[chunk],
                                counts[chunk]], b"\r\n")


TRUTH_CSV_HEADER = ["pair_id", "resource_id", "t_emit_ps", "signal_user",
                    "idler_user", "signal_detected", "idler_detected"]


def write_truth_csv(truth: TruthLog, path) -> None:
    """Truth log CSV, in the dialect csv.writer writes.

    A header line of the TRUTH_CSV_HEADER names, then one line per pair
    with those columns in order, e.g. `7,3,10505365740,2,-1,1,0`: integers
    in decimal, t_emit_ps as whole picoseconds rounded half to even (the
    rounding the detector applies to tags; `2.5` is written `2`), a LOST
    user as -1 and the detected flags as 0/1. Every line, the header too,
    ends in CRLF. The log itself keeps the float64 times.

    Written by _write_table: besides the log itself the writer holds one
    chunk's columns, units and text, 2.7 MB at the peak (tracemalloc,
    500k rows in 1995 runs), however long the log is. A row's resource
    and users are gathered by its run from TextTables that encode each
    run's fields once.
    """
    resources = TextTable([truth.resource_id])
    users = TextTable([truth.signal_user, truth.idler_user])

    def columns_of(chunk):
        rows = np.arange(chunk.start, chunk.stop)
        run = np.searchsorted(truth.first_row, rows, "right") - 1
        return [rows, (run, resources),
                # rounded a chunk at a time: no full-size copy of the log
                np.rint(truth.t_emit_ps[chunk]).astype(np.int64),
                (run, users),
                truth.signal_detected[chunk], truth.idler_detected[chunk]]

    _write_table(path, (",".join(TRUTH_CSV_HEADER) + "\r\n").encode(),
                 len(truth), columns_of, b"\r\n")


def write_tag_stream(path, user: int, path_index: int, duration_ps: int,
                     seed: int, tags: np.ndarray) -> None:
    """Tag dump: a header line `user,path,duration_ps,seed` (the path by
    name, e.g. `3,normal,250000000000,42`), then one decimal integer
    timestamp per line. Every line ends in LF.

    Written by _write_table: besides the stream itself the writer holds
    one chunk's units and text, 0.8 MB at the peak (tracemalloc), however
    long the stream is.
    """
    tags = np.asarray(tags, dtype=np.int64)
    head = f"{user},{PATH_NAMES[path_index]},{duration_ps},{seed}\n"
    _write_table(path, head.encode(), tags.size, lambda chunk: [tags[chunk]],
                 b"\n")
