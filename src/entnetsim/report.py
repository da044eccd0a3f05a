"""Scenario orchestration and report-bundle output.

Runs plan -> simulation -> coincidence analysis -> key post-processing for
a selected link set and writes the CSV/JSON artifact bundle. Every number
written here is produced by a module operation; this file only routes and
formats. All files are written atomically (write-then-rename).

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

from . import __version__
from .analysis import (HIST_BINS, CorrelationHistogram, LinkReport,
                       compute_car, link_histogram, link_matrix,
                       write_histograms_csv, write_links_csv)
from .config import FIGURE_LINKS, FIGURES, ConfigError, ScenarioConfig, provenance
from .config import resolve_links  # noqa: F401  (public as report.resolve_links)
from .doqkd import KeyRateReport, analyze_link
from .plan import (NetworkPlan, resource_for_link, subnet_label,
                   write_plan_csv)
from .rates import expected_singles_rate, monitor_expected_iqr_ps
from .sim import (ScenarioResult, SystemConfig, fiber_delay_ps, run_scenario,
                  write_tag_stream, write_truth_csv, PATH_NAMES)

# Peak memory per expected tag (expected_tags), rounded up: the 60 s
# figures CLI run (87.45M expected tags) peaked at 836852 kB ru_maxrss
# in the process that runs run_scenario and 680660 kB in its pass-2
# worker, 1517512 kB together at most in three runs, 17.8 bytes a tag
# (NUMPY_MADVISE_HUGEPAGE=0, 2 CPUs). The sum bounds the host total: it
# counts twice the pages the two share.
BYTES_PER_TAG = 20
# The same with the --dump-truth log: the 8 s figures CLI run (11.66M
# expected tags) peaked at 405288 + 258080 kB, 663368 kB at most in
# three runs, 58.3 bytes a tag. The parent holds the whole log; the
# worker, the emission times of the outcomes it drew.
BYTES_PER_TRUTH_TAG = 59
JSON_CHUNKS = 8192  # json encoder chunks joined into one write


class FigureDataError(ValueError):
    """A figure was requested that the run's links or duration cannot
    give."""


@dataclass
class ReportBundle:
    config: ScenarioConfig
    link_reports: dict[tuple[int, int], LinkReport]
    key_reports: dict[tuple[int, int], KeyRateReport]
    histograms: dict[tuple[int, int], CorrelationHistogram]
    result: ScenarioResult = field(repr=False)

    @property
    def plan(self) -> NetworkPlan:
        return self.config.network_plan()

    @property
    def links(self) -> tuple[tuple[int, int], ...]:
        return self.config.selected_links

    @property
    def singles_counts(self) -> dict[tuple[int, int], int]:
        """Detected tags per (user, path) of the run."""
        return self.result.singles_counts()


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

    One pass over link_matrix's windows makes each link's report,
    histogram and, for a run longer than 0 s, key report. Raises
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

    bundle = ReportBundle(config=cfg, link_reports={}, key_reports={},
                          histograms={}, result=result)
    windows = link_matrix(streams, cfg.selected_links, delays, window, reach)
    for (ua, ub), win in windows.items():
        rid, pair, kind = resource_for_link(plan, ua, ub)
        hist = link_histogram(win, window, result.duration_ps)
        bundle.histograms[(ua, ub)] = hist
        bundle.link_reports[(ua, ub)] = LinkReport(
            user_a=ua, user_b=ub, kind=kind, resource_id=rid,
            coincidences=len(win.matches), car=compute_car(hist, window).car,
            duration_s=cfg.duration_s)
        if cfg.duration_s > 0:
            bundle.key_reports[(ua, ub)] = analyze_link(
                win, qkd_cfg, cfg.duration_s,
                monitor_expected_ps=monitor_expected_iqr_ps(pair, sys_cfg))
    return bundle


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
            hist = bundle.histograms[(ua, ub)]
            label = (subnet_label(plan.subnet_of(ua)) if figure == "fig3a"
                     else _pair_label(plan, ua, ub))
            for d, c in zip(hist.delays_ps(), hist.counts):
                rows.append([label, ua, ub, int(d), int(c)])
        return rows
    rows = [["link", "user_a", "user_b", "secure_rate_bps"]]
    for idx, (ua, ub) in enumerate(wanted, start=1):
        label = idx if figure == "fig4a" else _pair_label(plan, ua, ub)
        rows.append([label, ua, ub,
                     repr(bundle.key_reports[(ua, ub)].secure_rate_bps)])
    return rows


def _pair_label(plan: NetworkPlan, ua: int, ub: int) -> str:
    return subnet_label(plan.subnet_of(ua)) + subnet_label(plan.subnet_of(ub))


# ---------------------------------------------------------------------------
# bundle writing

def _atomic_via(path: str, writer_fn) -> None:
    tmp = f"{path}.tmp"
    writer_fn(tmp)
    os.replace(tmp, path)


def _keyrates_payload(bundle: ReportBundle) -> dict:
    links = []
    for link, key in bundle.key_reports.items():
        rep = bundle.link_reports[link]
        body = {"user_a": rep.user_a, "user_b": rep.user_b, "kind": rep.kind,
                "resource_id": rep.resource_id}
        body.update(key.to_dict())
        links.append(body)
    return {"schema": "entnetsim-keyrates/1", "links": links}


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
    figure is one the bundle cannot give (check_figures). timing.json
    holds wall_time_s and, under write_s, the seconds each other file took
    to write, keyed by its relative path.
    """
    check_figures(bundle.config, figures)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    write_s = {}

    def emit(relpath: str, writer_fn):
        t0 = time.perf_counter()
        _atomic_via(os.path.join(out_dir, relpath), writer_fn)
        write_s[relpath] = time.perf_counter() - t0
        written.append(relpath)

    emit("plan.csv", lambda p: write_plan_csv(bundle.plan, p))
    emit("links.csv",
         lambda p: write_links_csv(bundle.link_reports.values(), p))
    emit("histograms.csv",
         lambda p: write_histograms_csv(bundle.histograms, p))
    emit("keyrates.json", lambda p: _write_json(p, _keyrates_payload(bundle)))
    emit("run-metadata.json",
         lambda p: _write_json(p, _metadata_payload(bundle, overrides or {})))
    for figure in figures:
        rows = emit_figure_data(bundle, figure)
        emit(f"{figure}.csv", lambda p, r=rows: _write_rows(p, r))
    if dump_tags:
        os.makedirs(os.path.join(out_dir, "tags"), exist_ok=True)
        for user in sorted(bundle.result.streams):
            times, labels = bundle.result.user_stream(user)
            for path_idx in (0, 1):
                tags = times[labels == path_idx]
                emit(f"tags/user{user}_{PATH_NAMES[path_idx]}.txt",
                     lambda p, u=user, pi=path_idx, t=tags: write_tag_stream(
                         p, u, pi, bundle.result.duration_ps,
                         bundle.result.seed, t))
    if dump_truth:
        if bundle.result.truth is None:
            raise ValueError("truth log was not collected for this run")
        emit("truth.csv", lambda p: write_truth_csv(bundle.result.truth, p))

    def write_timing(path: str) -> None:
        with open(path, "w", newline="") as fh:
            json.dump({"wall_time_s": wall_time_s, "write_s": write_s}, fh,
                      indent=2)
            fh.write("\n")

    # wall times live outside the reproducible bundle on purpose
    _atomic_via(os.path.join(out_dir, "timing.json"), write_timing)
    written.append("timing.json")
    return written


def _write_json(path: str, payload: dict) -> None:
    """Sorted, indented JSON, the bytes of json.dump; emit() makes the
    write atomic.

    json.dump makes one write per encoder chunk (about 92k for the
    780-link keyrates.json) and json.dumps holds all the chunks at once
    (3.8 MB traced for that file), so the chunks are joined and written
    JSON_CHUNKS at a time.
    """
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    with open(path, "w", newline="") as fh:
        for group in iter(lambda: list(islice(chunks, JSON_CHUNKS)), []):
            fh.write("".join(group))
        fh.write("\n")


def _write_rows(path: str, rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerows(rows)
