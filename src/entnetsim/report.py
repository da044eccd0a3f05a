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
from itertools import combinations, islice

from . import __version__
from .analysis import (CorrelationHistogram, LinkReport, link_matrix,
                       write_histograms_csv, write_links_csv)
from .config import ConfigError, ScenarioConfig, parse_link_list
from .doqkd import KeyRateReport, analyze_link
from .plan import NetworkPlan, subnet_label, write_plan_csv
from .rates import expected_singles_rate, monitor_expected_iqr_ps
from .sim import (ScenarioResult, SystemConfig, fiber_delay_ps, run_scenario,
                  write_tag_stream, write_truth_csv, PATH_NAMES)

FIGURES = ("fig3a", "fig3b", "fig4a", "fig4b")
# Peak memory per expected tag, rounded up: the 60 s figures CLI run
# (87.45M expected tags) peaked at 1777220 kB ru_maxrss, 20.8 bytes a tag.
BYTES_PER_TAG = 21
# The same with the --dump-truth log: the 8 s figures CLI run (11.66M
# expected tags) peaked at 1335852 kB, 117.3 bytes a tag; from 4 s to 8 s
# the peak grew by 115 bytes per added tag.
BYTES_PER_TRUTH_TAG = 118
JSON_CHUNKS = 8192  # json encoder chunks joined into one write


class FigureDataError(ValueError):
    """A figure was requested whose links are missing from the bundle."""


def representative_users(plan: NetworkPlan) -> list[int]:
    """One user per subnet for the inter-subnet measurements: the first
    user of each subnet (in the reference network, subnet A's first user
    carries the 1 km fiber)."""
    return [plan.subnet_users(s)[0] for s in range(plan.num_subnets)]


def intra_subnet_links(plan: NetworkPlan, subnet: int) -> list[tuple[int, int]]:
    """All user pairs of one subnet, in lexicographic order (the reference
    labeling 1..28 for an 8-user subnet)."""
    return list(combinations(plan.subnet_users(subnet), 2))


def inter_rep_links(plan: NetworkPlan) -> list[tuple[int, int]]:
    """The representative inter-subnet pairs, lexicographic: AB, AC, ..."""
    return list(combinations(representative_users(plan), 2))


def first_pair_links(plan: NetworkPlan) -> list[tuple[int, int]]:
    """One intra pair per subnet: its first two users."""
    return [(plan.subnet_users(s)[0], plan.subnet_users(s)[1])
            for s in range(plan.num_subnets)]


def resolve_links(plan: NetworkPlan, selector: str) -> list[tuple[int, int]]:
    """Expand a link-set name or explicit list into ordered user pairs.

    default: the reference measurement set (all intra links of the first
    subnet plus the representative inter links). fig3: one intra pair per
    subnet plus the representative inter links. fig4: same as default.
    figures: union of the fig3 and fig4 sets. all: every user pair.
    """
    if selector == "all":
        return list(combinations(plan.users(), 2))
    if selector in ("default", "fig4"):
        return intra_subnet_links(plan, 0) + inter_rep_links(plan)
    if selector == "fig3":
        return first_pair_links(plan) + inter_rep_links(plan)
    if selector == "figures":
        base = intra_subnet_links(plan, 0) + inter_rep_links(plan)
        extra = [l for l in first_pair_links(plan) if l not in base]
        return base + extra
    links = parse_link_list(selector)
    for ua, ub in links:
        plan.subnet_of(ua)
        plan.subnet_of(ub)
    return links


@dataclass
class ReportBundle:
    config: ScenarioConfig
    plan: NetworkPlan
    links: list[tuple[int, int]]
    link_reports: list[LinkReport]
    key_reports: dict[tuple[int, int], KeyRateReport]
    histograms: dict[tuple[int, int], CorrelationHistogram]
    merged_streams: dict[int, tuple] = field(repr=False)
    singles_counts: dict[tuple[int, int], int] = field(repr=False)
    result: ScenarioResult = field(repr=False)
    _by_link: dict[tuple[int, int], LinkReport] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        self._by_link = {(rep.user_a, rep.user_b): rep
                         for rep in self.link_reports}

    def link_report(self, ua: int, ub: int) -> LinkReport:
        try:
            return self._by_link[(ua, ub)]
        except KeyError:
            raise KeyError(f"link {ua}-{ub} not in bundle") from None


def physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def check_memory(plan: NetworkPlan, sys_cfg: SystemConfig, users,
                 duration_s: float, collect_truth: bool = False) -> None:
    """Raise ConfigError naming run.duration_s when the run's expected
    tags (rates.expected_singles_rate of the selected users over the
    duration) would need more than the host's physical memory. A run that
    collects the ground-truth log needs BYTES_PER_TRUTH_TAG a tag."""
    tags = duration_s * sum(expected_singles_rate(plan, sys_cfg, u)
                            for u in users)
    per_tag = BYTES_PER_TRUTH_TAG if collect_truth else BYTES_PER_TAG
    need, have = tags * per_tag, physical_memory_bytes()
    if need > have:
        raise ConfigError(
            f"run.duration_s: {duration_s:g} s over {len(users)} users is"
            f" about {tags:.3g} tags, needing about {need / 1e9:.3g} GB;"
            f" this host has {have / 1e9:.3g} GB. Shorten the run or select"
            " fewer links.")


def run_bundle(cfg: ScenarioConfig, collect_truth: bool = False) -> ReportBundle:
    """Execute the full pipeline for the configured link set.

    Raises ConfigError before any simulation when the run would not fit
    in physical memory (check_memory).
    """
    plan = cfg.network_plan()
    links = resolve_links(plan, cfg.links)
    users = sorted({u for link in links for u in link})
    sys_cfg = cfg.system()
    qkd_cfg = cfg.qkd()
    check_memory(plan, sys_cfg, users, cfg.duration_s, collect_truth)

    result = run_scenario(plan, sys_cfg, cfg.duration_s, cfg.seed,
                          selected_users=users, collect_truth=collect_truth)
    singles = result.singles_counts()
    merged = {}
    for u in users:
        merged[u] = result.user_stream(u)
        # the merged stream holds the same tags: free the per-path copies
        # now, so that the run never holds both for every user at once
        del result.streams[(u, 0)], result.streams[(u, 1)]
    delays = {u: fiber_delay_ps(sys_cfg.losses, u) for u in users}

    link_reports, histograms, windows = link_matrix(
        merged, plan, links, qkd_cfg.window_ps, delays, cfg.duration_s,
        monitor_window_ps=qkd_cfg.monitor_window_ps)
    key_reports = {}
    if cfg.duration_s > 0:
        for (ua, ub), rep in zip(links, link_reports):
            pair = plan.resource_by_id(rep.resource_id)
            expected = monitor_expected_iqr_ps(pair, sys_cfg)
            key_reports[(ua, ub)] = analyze_link(
                windows[(ua, ub)], delays[ua], delays[ub], qkd_cfg,
                cfg.duration_s, monitor_expected_ps=expected)

    return ReportBundle(config=cfg, plan=plan, links=links,
                        link_reports=link_reports, key_reports=key_reports,
                        histograms=histograms, merged_streams=merged,
                        singles_counts=singles, result=result)


# ---------------------------------------------------------------------------
# figure-shaped CSV data

def emit_figure_data(bundle: ReportBundle, figure: str) -> list[list]:
    """Rows (including header) for one figure-shaped CSV.

    fig3a/fig3b: per-link delay histograms (one intra pair per subnet /
    the representative inter pairs). fig4a: secure key rate of every link
    in the first subnet, numbered 1..n in lexicographic order. fig4b:
    secure key rate of the representative inter links, labeled by subnet
    letter pairs.
    """
    plan = bundle.plan
    if figure == "fig3a":
        wanted = first_pair_links(plan)
        _require_links(bundle, wanted, figure)
        rows = [["subnet", "user_a", "user_b", "delay_ps", "counts"]]
        for (ua, ub) in wanted:
            hist = bundle.histograms[(ua, ub)]
            label = subnet_label(plan.subnet_of(ua))
            for d, c in zip(hist.delays_ps(), hist.counts):
                rows.append([label, ua, ub, int(d), int(c)])
        return rows
    if figure == "fig3b":
        wanted = inter_rep_links(plan)
        _require_links(bundle, wanted, figure)
        rows = [["link", "user_a", "user_b", "delay_ps", "counts"]]
        for (ua, ub) in wanted:
            hist = bundle.histograms[(ua, ub)]
            label = _pair_label(plan, ua, ub)
            for d, c in zip(hist.delays_ps(), hist.counts):
                rows.append([label, ua, ub, int(d), int(c)])
        return rows
    if figure == "fig4a":
        wanted = intra_subnet_links(plan, 0)
        _require_links(bundle, wanted, figure)
        rows = [["link", "user_a", "user_b", "secure_rate_bps"]]
        for idx, (ua, ub) in enumerate(wanted, start=1):
            rows.append([idx, ua, ub,
                         repr(bundle.key_reports[(ua, ub)].secure_rate_bps)])
        return rows
    if figure == "fig4b":
        wanted = inter_rep_links(plan)
        _require_links(bundle, wanted, figure)
        rows = [["link", "user_a", "user_b", "secure_rate_bps"]]
        for (ua, ub) in wanted:
            rows.append([_pair_label(plan, ua, ub), ua, ub,
                         repr(bundle.key_reports[(ua, ub)].secure_rate_bps)])
        return rows
    raise FigureDataError(f"unknown figure {figure!r}; expected one of {FIGURES}")


def _pair_label(plan: NetworkPlan, ua: int, ub: int) -> str:
    return subnet_label(plan.subnet_of(ua)) + subnet_label(plan.subnet_of(ub))


def _require_links(bundle: ReportBundle, wanted, figure: str) -> None:
    have = set(bundle.histograms)
    missing = [f"{ua}-{ub}" for (ua, ub) in wanted if (ua, ub) not in have]
    if missing:
        raise FigureDataError(
            f"{figure} needs links absent from this bundle: {', '.join(missing)}"
            " (run with --links figures or --links all)")
    if figure.startswith("fig4"):
        missing = [f"{ua}-{ub}" for (ua, ub) in wanted
                   if (ua, ub) not in bundle.key_reports]
        if missing:
            raise FigureDataError(
                f"{figure} needs key reports absent from this bundle:"
                f" {', '.join(missing)}")


# ---------------------------------------------------------------------------
# bundle writing

def _atomic_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _atomic_via(path: str, writer_fn) -> None:
    tmp = f"{path}.tmp"
    writer_fn(tmp)
    os.replace(tmp, path)


def _keyrates_payload(bundle: ReportBundle) -> dict:
    links = []
    for (ua, ub) in bundle.links:
        if (ua, ub) not in bundle.key_reports:
            continue
        rep = bundle.link_report(ua, ub)
        body = {"user_a": ua, "user_b": ub, "kind": rep.kind,
                "resource_id": rep.resource_id}
        body.update(bundle.key_reports[(ua, ub)].to_dict())
        links.append(body)
    return {"schema": "entnetsim-keyrates/1", "links": links}


def _metadata_payload(bundle: ReportBundle, overrides: dict) -> dict:
    from .config import provenance
    cfg = bundle.config
    return {
        "schema": "entnetsim-run-metadata/1",
        "package_version": __version__,
        "seed": cfg.seed,
        "duration_s": cfg.duration_s,
        "links_requested": cfg.links,
        "n_links": len(bundle.links),
        "n_users_selected": len({u for link in bundle.links for u in link}),
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

    timing.json holds wall_time_s and, under write_s, the seconds each
    other file took to write, keyed by its relative path.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    write_s = {}

    def emit(relpath: str, writer_fn):
        t0 = time.perf_counter()
        _atomic_via(os.path.join(out_dir, relpath), writer_fn)
        write_s[relpath] = time.perf_counter() - t0
        written.append(relpath)

    emit("plan.csv", lambda p: write_plan_csv(bundle.plan, p))
    emit("links.csv", lambda p: write_links_csv(bundle.link_reports, p))
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
        for user in sorted(bundle.merged_streams):
            times, labels = bundle.merged_streams[user]
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

    # wall times live outside the reproducible bundle on purpose
    _atomic_text(os.path.join(out_dir, "timing.json"),
                 json.dumps({"wall_time_s": wall_time_s, "write_s": write_s},
                            indent=2) + "\n")
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
