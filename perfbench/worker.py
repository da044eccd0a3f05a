"""One measured sample: a fresh process that runs one report bundle.

Makes the same public calls ``entnetsim.cli.main`` makes (config, plan,
``report.run_bundle``, ``report.write_bundle``), checks the outputs and
prints one JSON object on its last stdout line. Started by run.py:

    python3 perfbench/worker.py SPEC_JSON

SPEC_JSON holds root, out_dir, workload settings, seed, trace and
t_spawn, the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux).
"""

import json
import sys
import time

SPEC = json.loads(sys.argv[1])
sys.path.insert(0, SPEC["root"] + "/src")

t_import = time.monotonic()
import hashlib  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

import entnetsim  # noqa: E402
from entnetsim import config, rates, report  # noqa: E402

from tracer import Tracer, rss_hw_mb  # noqa: E402

LOW_SYMBOL = re.compile(r"only \d+ symbol pairs")
# Relative tolerance on each per-(user, path) singles count, on top of
# 5 Poisson sigmas. rates.expected_singles_rate ignores dead time, which
# costs ~0.2% at calibrated rates, so 1% leaves room without hiding a
# real change of rate.
SINGLES_REL_TOL = 0.01
SINGLES_SIGMAS = 5.0
# An analyze_link tail percentile needs at least this many links beyond it.
TAIL_MIN_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def bundle_digest(out_dir: str, written: list[str]) -> tuple[str, int, int]:
    """sha256 over the reproducible files (all but timing.json), plus
    their count and total bytes."""
    h = hashlib.sha256()
    n_bytes = 0
    files = sorted(p for p in written if p != "timing.json")
    for rel in files:
        with open(os.path.join(out_dir, rel), "rb") as fh:
            data = fh.read()
        n_bytes += len(data)
        h.update(rel.encode() + b"\0" + str(len(data)).encode() + b"\0")
        h.update(data)
    return h.hexdigest(), len(files), n_bytes


def singles_violations(bundle, plan, duration_s: float) -> tuple[list[str], float]:
    """Per-(user, path) singles outside tolerance of the closed-form rate;
    also the largest |observed/expected - 1| seen."""
    sys_cfg = bundle.config.system()
    bad, worst = [], 0.0
    for (user, path), observed in sorted(bundle.singles_counts.items()):
        expected = rates.expected_singles_rate(plan, sys_cfg, user, path) * duration_s
        tol = SINGLES_REL_TOL * expected + SINGLES_SIGMAS * expected ** 0.5
        worst = max(worst, abs(observed / expected - 1.0))
        if abs(observed - expected) > tol:
            bad.append(f"user {user} path {path}: {observed} vs {expected:.0f}")
    return bad, worst


def tail_ms(durations_s: list[float]) -> tuple[float, float]:
    """(percentile, value in ms): the highest percentile with at least
    TAIL_MIN_BEYOND samples beyond it."""
    n = len(durations_s)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            return pct, float(np.percentile(durations_s, pct)) * 1e3
    return float("nan"), float("nan")


def layer_metrics(tr: Tracer, setup: dict, run_s: float, write_s: float,
                  counts: dict, rss: dict) -> dict:
    """Per-layer numbers of one traced sample; a metric whose target is
    missing is left out."""
    m = dict(setup)
    m["report.run_bundle_s"] = run_s
    m["report.write_bundle_s"] = write_s
    m["report.bytes_written"] = counts["bytes_written"]
    m["report.files_written"] = counts["files_written"]
    if write_s > 0:
        m["report.write_mb_per_s"] = counts["bytes_written"] / 1e6 / write_s
    m["analysis.rss_hw_mb"] = rss["analysis"]
    m["report.write_bundle.rss_hw_mb"] = rss["write_bundle"]
    m["doqkd.low_symbol_warnings"] = counts["low_symbol_warnings"]
    m["photonics.tags"] = counts["tags"]
    m["sim.emitted_pairs"] = counts["emitted_pairs"]
    for key in ("matched_pairs", "key_pairs", "sifted_pairs"):
        m[f"doqkd.{key}"] = counts[key]
    if counts["matched_pairs"]:
        m["doqkd.sifted_frac"] = counts["sifted_pairs"] / counts["matched_pairs"]

    if tr.called("sim.run_scenario"):
        m["sim.run_scenario_s"] = tr.total_s("sim.run_scenario")
        m["sim.rss_hw_mb"] = tr.rss_after["sim.run_scenario"]
        if tr.called("photonics.detector"):
            m["sim.self_s"] = m["sim.run_scenario_s"] - tr.child_s(
                "sim.run_scenario", "photonics.detector")
    if tr.called("sim.user_stream"):
        m["sim.user_stream_s"] = tr.total_s("sim.user_stream")
        m["sim.user_stream.rss_hw_mb"] = tr.rss_after["sim.user_stream"]
    if tr.called("photonics.detector"):
        m["photonics.detector_s"] = tr.total_s("photonics.detector")
        m["photonics.detector_calls"] = tr.calls["photonics.detector"]
        m["sim.arrivals"] = tr.size_first["photonics.detector"]
        if m["sim.arrivals"]:
            m["photonics.detected_frac"] = (tr.size_out["photonics.detector"]
                                            / m["sim.arrivals"])
    for kernel in ("dead_time_prune", "greedy_match", "correlation_histogram"):
        name = f"kernels.{kernel}"
        if tr.called(name):
            busy = tr.total_s(name)
            m[f"{name}_s"] = busy
            if busy > 0:
                m[f"{name}.tags_per_s"] = tr.size_in[name] / busy
    if tr.called("kernels.greedy_match"):
        m["kernels.greedy_match_calls"] = tr.calls["kernels.greedy_match"]
        walked = tr.size_first["kernels.greedy_match"]
        if walked:
            m["kernels.greedy_match.matched_frac"] = (
                tr.size_out.get("kernels.greedy_match", 0) / walked)
    for name in ("analysis.link_matrix", "analysis.cross_correlate",
                 "analysis.match_coincidences", "doqkd.sift_frames"):
        if tr.called(name):
            m[f"{name}_s"] = tr.total_s(name)
    if tr.called("analysis.match_coincidences"):
        m["analysis.match_coincidences_calls"] = tr.calls["analysis.match_coincidences"]
    if tr.called("analysis.link_matrix"):
        m["analysis.self_s"] = tr.self_s("analysis.")
    if tr.called("doqkd.analyze_link"):
        m["doqkd.analyze_link_s"] = tr.total_s("doqkd.analyze_link")
        m["doqkd.analyze_link.self_s"] = m["doqkd.analyze_link_s"] - tr.child_s(
            "doqkd.analyze_link", "analysis.match_coincidences")
        per_link = tr.durations_s("doqkd.analyze_link")
        m["doqkd.analyze_link.p50_ms"] = float(np.median(per_link)) * 1e3
        pct, value = tail_ms(per_link)
        if value == value:  # enough links for a tail
            m["doqkd.analyze_link.tail_ms"] = value
            m["doqkd.analyze_link.tail_pct"] = pct
    return m


def layer_shares(tr: Tracer, wall_s: float, write_s: float) -> dict:
    """Shares of wall_s: by pipeline stage (inclusive of the kernels each
    stage calls) and by layer self time (kernels on their own)."""
    kernels = sum(tr.total_s(f"kernels.{k}") for k in
                  ("dead_time_prune", "greedy_match", "correlation_histogram"))
    stage = {
        "sim+photonics": tr.total_s("sim.run_scenario") + tr.total_s("sim.user_stream"),
        "analysis+doqkd": tr.total_s("analysis.link_matrix")
        + tr.total_s("doqkd.analyze_link"),
        "report.write_bundle": write_s,
    }
    own = {layer: tr.self_s(layer + ".")
           for layer in ("sim", "photonics", "analysis", "doqkd")}
    own["kernels"] = kernels
    return {"stage": {k: v / wall_s for k, v in stage.items()},
            "self": {k: v / wall_s for k, v in own.items()}}


def main() -> dict:
    wl = SPEC["workload"]
    setup = {"setup.import_s": time.monotonic() - t_import}
    t0 = time.monotonic()
    cfg = config.with_overrides(config.default_config(), seed=SPEC["seed"],
                                duration_s=wl["duration_s"], links=wl["links"])
    t1 = time.monotonic()
    plan = cfg.network_plan()
    t2 = time.monotonic()
    links = report.resolve_links(plan, cfg.links)
    t3 = time.monotonic()
    setup.update({"config.load_s": t1 - t0, "plan.build_s": t2 - t1,
                  "plan.resolve_links_s": t3 - t2})
    setup_s = t3 - SPEC["t_spawn"]
    overrides = {"run.seed": cfg.seed, "run.duration_s": cfg.duration_s,
                 "run.links": cfg.links}

    tracer = Tracer(clock=SPEC["trace"])
    tracer.install()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cpu0 = time.process_time()
        t4 = time.perf_counter()
        bundle = report.run_bundle(cfg, collect_truth=wl["dump_truth"])
        t5 = time.perf_counter()
        rss_analysis = rss_hw_mb()
        written = report.write_bundle(
            bundle, SPEC["out_dir"], wall_time_s=t5 - t4, overrides=overrides,
            figures=wl["figures"], dump_tags=wl["dump_tags"],
            dump_truth=wl["dump_truth"])
        t6 = time.perf_counter()
        cpu_s = time.process_time() - cpu0
    peak_rss_mb = rss_hw_mb()
    tracer.uninstall()
    wall_s = t6 - t4

    digest, n_files, n_bytes = bundle_digest(SPEC["out_dir"], written)
    keys = bundle.key_reports.values()
    counts = {
        "links": len(links),
        "emitted_pairs": sum(bundle.result.emitted_pairs.values()),
        "tags": sum(bundle.singles_counts.values()),
        "matched_pairs": sum(k.counts["matched_pairs"] for k in keys),
        "key_pairs": sum(k.counts["key_pairs"] for k in keys),
        "sifted_pairs": sum(k.counts["sifted_pairs"] for k in keys),
        "files_written": len(written),
        "bytes_written": n_bytes,
        "low_symbol_warnings": sum(
            1 for w in caught if LOW_SYMBOL.search(str(w.message))),
    }
    if tracer.called("photonics.detector"):
        counts["arrivals"] = tracer.size_first["photonics.detector"]
    if tracer.called("analysis.match_coincidences"):
        counts["match_calls"] = tracer.calls["analysis.match_coincidences"]
    bad_singles, worst = singles_violations(bundle, plan, cfg.duration_s)

    out = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "tags_per_s": counts["tags"] / wall_s,
        "digest": digest,
        "reproducible_files": n_files,
        "counts": counts,
        "singles_violations": bad_singles,
        "singles_worst_rel": worst,
        "missing": tracer.missing(),
        "env": {"kernel_backend": entnetsim.kernel_backend,
                "python": sys.version.split()[0],
                "numpy": np.__version__},
    }
    if SPEC["trace"]:
        out["layers"] = layer_metrics(
            tracer, setup, t5 - t4, t6 - t5, counts,
            {"analysis": rss_analysis, "write_bundle": peak_rss_mb})
        out["shares"] = layer_shares(tracer, wall_s, t6 - t5)
    return out


if __name__ == "__main__":
    print(json.dumps(main()))
