#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the entnetsim scenario pipeline.

    python3 perfbench/run.py --workload figures --seed 42 --seconds 40 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file (the NumPy fallback needs no build; the compiled
kernels are used when an importable extension is already there, and
ENTNETSIM_KERNELS is left as found). Each sample is a fresh process
(perfbench/worker.py) that runs the reference 40-user scenario through
``report.run_bundle`` and ``report.write_bundle``, one at a time
(closed loop, one client), until --seconds is spent; at least
MIN_SAMPLES run. All samples of a run use the workload seed, so their
bundles must be byte-identical.

--trace 0 prints the end-to-end metrics (medians over the samples);
--trace 1 alternates traced and untraced samples and prints the
per-layer metrics (medians over the traced samples) plus the tracing
overhead. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the full record, with every
sample, goes to .perfbench_out/. Exit code 1 when any output check
fails, 2 when the package is not in the checkout.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
PACKAGE = ROOT / "src" / "entnetsim"

# Run lengths (simulated seconds) are sized so one sample takes a few
# host seconds on a 2-core box and a 40 s run holds five or more samples.
WORKLOADS = {
    # The 42 links behind the paper's figures in key-generation mode: the
    # one workload where the simulation itself (pair generation, arrival
    # transform, detector) holds a visible share of the time and the tag
    # streams set peak memory.
    "figures": {"links": "figures", "duration_s": 1.5, "figures": [],
                "dump_tags": False, "dump_truth": False},
    # All 780 links, short: per-link analysis (matching, histograms,
    # sifting) does almost all the work and sim hardly shows.
    "all_links": {"links": "all", "duration_s": 0.2, "figures": [],
                  "dump_tags": False, "dump_truth": False},
    # The figures set with truth collection, tag and truth dumps and all
    # four figure CSVs: the write path beside the read-only analysis path.
    "dump": {"links": "figures", "duration_s": 0.25,
             "figures": ["fig3a", "fig3b", "fig4a", "fig4b"],
             "dump_tags": True, "dump_truth": True},
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("tags_per_s", "1/s"))
MIN_SAMPLES = 3
HARD_LIMIT_S = 165.0  # every run ends well inside 180 s

# Units of the per-layer metrics; a metric whose target is missing is
# left out of the result and named on the "missing" line.
LAYER_UNITS = {
    "setup.import_s": "s", "config.load_s": "s", "plan.build_s": "s",
    "plan.resolve_links_s": "s",
    "sim.run_scenario_s": "s", "sim.self_s": "s", "sim.user_stream_s": "s",
    "sim.emitted_pairs": "count", "sim.arrivals": "count",
    "sim.rss_hw_mb": "MB", "sim.user_stream.rss_hw_mb": "MB",
    "photonics.detector_s": "s", "photonics.detector_calls": "count",
    "photonics.tags": "count", "photonics.detected_frac": "ratio",
    "kernels.dead_time_prune_s": "s", "kernels.dead_time_prune.tags_per_s": "1/s",
    "kernels.greedy_match_s": "s", "kernels.greedy_match.tags_per_s": "1/s",
    "kernels.greedy_match_calls": "count",
    "kernels.greedy_match.matched_frac": "ratio",
    "kernels.correlation_histogram_s": "s",
    "kernels.correlation_histogram.tags_per_s": "1/s",
    "analysis.link_matrix_s": "s", "analysis.cross_correlate_s": "s",
    "analysis.match_coincidences_s": "s",
    "analysis.match_coincidences_calls": "count", "analysis.self_s": "s",
    "analysis.rss_hw_mb": "MB",
    "doqkd.analyze_link_s": "s", "doqkd.analyze_link.self_s": "s",
    "doqkd.analyze_link.p50_ms": "ms", "doqkd.analyze_link.tail_ms": "ms",
    "doqkd.analyze_link.tail_pct": "%", "doqkd.sift_frames_s": "s",
    "doqkd.matched_pairs": "count", "doqkd.key_pairs": "count",
    "doqkd.sifted_pairs": "count", "doqkd.sifted_frac": "ratio",
    "doqkd.low_symbol_warnings": "count",
    "report.run_bundle_s": "s", "report.write_bundle_s": "s",
    "report.bytes_written": "count", "report.files_written": "count",
    "report.write_mb_per_s": "MB/s", "report.write_bundle.rss_hw_mb": "MB",
    "trace.overhead_s": "s",
}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def source_digest() -> str:
    """Digest of the package and benchmark sources, standing in for
    'same commit'."""
    h = hashlib.sha256()
    for path in sorted([*PACKAGE.rglob("*"), *HERE.glob("*.py")]):
        if path.suffix in (".py", ".pyx", ".c") and path.is_file():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def worker_env() -> dict:
    """The caller's environment, ENTNETSIM_KERNELS included, except that
    NumPy's transparent-hugepage advice is off unless set explicitly:
    with it on, ru_maxrss of identical runs jumps by whole 2 MB pages
    depending on how many huge pages the machine has free (measured
    95.1 vs 102.2 MB on one seed), while wall time does not move."""
    env = dict(os.environ)
    env.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    return env


def run_sample(workload: str, seed: int, trace: bool, index: int,
               deadline: float) -> dict:
    """One fresh worker process; returns its result or an 'error' entry."""
    out_dir = OUT / f"{workload}-seed{seed}-s{index}"
    shutil.rmtree(out_dir, ignore_errors=True)
    spec = {"root": str(ROOT), "out_dir": str(out_dir),
            "workload": WORKLOADS[workload], "seed": seed, "trace": trace,
            "t_spawn": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            capture_output=True, text=True, cwd=ROOT, env=worker_env(),
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "timed out", "trace": trace}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {"error": f"worker exit {proc.returncode}", "trace": trace}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": "worker printed no result", "trace": trace}
    result["trace"] = trace
    return result


def collect(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Closed loop: the next sample starts when the previous one ended,
    until the next would overrun --seconds (at least MIN_SAMPLES each
    of traced and untraced)."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    need = 2 * MIN_SAMPLES if trace else MIN_SAMPLES
    samples: list[dict] = []
    took: list[float] = []
    while True:
        traced = trace and len(samples) % 2 == 0
        t0 = time.monotonic()
        samples.append(run_sample(workload, seed, traced, len(samples), deadline))
        took.append(time.monotonic() - t0)
        next_end = time.monotonic() + statistics.median(took)
        if samples[-1].get("error") == "timed out" or next_end > deadline:
            break
        if len(samples) >= need and next_end - start > seconds:
            break
    return samples


def check(samples: list[dict], seed_record: dict, key: str) -> None:
    """Mark failed samples in place. Digests and work counts are held
    against the earlier record for this source, seed and backend when
    there is one, else against the run's majority, which is then
    recorded if every sample agreed with it."""
    ok = [s for s in samples if "error" not in s]
    for s in samples:
        if "error" in s:
            s["failed"] = [s["error"]]
        elif s["singles_violations"]:
            s["failed"] = ["singles out of tolerance: "
                           + "; ".join(s["singles_violations"][:3])]
        else:
            s["failed"] = []
    if not ok:
        return
    previous = seed_record.get(key)
    if previous:
        ref = previous
    else:
        ref = {field: json.loads(collections.Counter(
            json.dumps(s[field], sort_keys=True) for s in ok).most_common(1)[0][0])
            for field in ("digest", "counts")}
    for s in ok:
        if s["digest"] != ref["digest"]:
            s["failed"].append("bundle digest differs"
                               + (" from an earlier run" if previous else ""))
        if s["counts"] != ref["counts"]:
            s["failed"].append("work counts differ"
                               + (" from an earlier run" if previous else ""))
    if not previous and not any(s["failed"] for s in samples):
        seed_record[key] = ref


def fmt(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no entnetsim package under {PACKAGE.parent};"
              " run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Warm-up outside the measurement: byte-compiles the package once, as
    # an installed package would be, and fails fast on a broken import.
    warm = subprocess.run([sys.executable, "-c", "import entnetsim"],
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                          capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        sys.stderr.write(warm.stderr)
        print("perfbench: the package does not import", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    samples = collect(args.workload, args.seed, args.seconds, trace)
    ok = [s for s in samples if "error" not in s]
    env = dict(ok[0]["env"]) if ok else {}
    env.update({"nproc": os.cpu_count(), "seed": args.seed,
                "ENTNETSIM_KERNELS": os.environ.get("ENTNETSIM_KERNELS", "unset")
                + " (left as found)",
                "NUMPY_MADVISE_HUGEPAGE": worker_env()["NUMPY_MADVISE_HUGEPAGE"]})

    record_path = OUT / "digests.json"
    seed_record = (json.loads(record_path.read_text())
                   if record_path.is_file() else {})
    key = "|".join([args.workload, str(args.seed), source_digest(),
                    env.get("kernel_backend", "?")])
    check(samples, seed_record, key)
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seed_record, indent=1, sort_keys=True))
    os.replace(tmp, record_path)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    notes = []
    if result_path.is_file():
        before = json.loads(result_path.read_text())["env"].get("kernel_backend")
        if before != env.get("kernel_backend"):
            notes.append(f"the previous result here used kernel_backend={before}:"
                         " not comparable with this one")
    failed = sum(1 for s in samples if s["failed"])
    good = [s for s in samples if not s["failed"]]
    plain = [s for s in good if not s["trace"]]
    traced = [s for s in good if s["trace"]]

    print(f"workload {args.workload}: links={WORKLOADS[args.workload]['links']}"
          f" duration={WORKLOADS[args.workload]['duration_s']} s simulated,"
          f" closed loop, 1 client, {len(samples)} samples in"
          f" {'traced+untraced' if trace else 'untraced'} mode")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for s in samples:
        for why in s["failed"]:
            print(f"FAILED sample: {why}")
    for note in notes:
        print(f"note: {note}")
    print(f"failed_frac: {failed / len(samples):.4g} ratio"
          f" ({failed} of {len(samples)} failed)")
    if good:
        print("counts: " + json.dumps(good[0]["counts"], sort_keys=True))
        print(f"bundle digest: {good[0]['digest'][:16]}"
              f" ({good[0]['reproducible_files']} reproducible files);"
              f" worst singles deviation {max(s['singles_worst_rel'] for s in good):.3%}")

    metrics = {}
    summary = {}
    for name, unit in END_TO_END:
        values = [s[name] for s in plain]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                         "unit": unit}
        print(f"{name}: median {fmt(med)} {unit} (q1 {fmt(q1)}, q3 {fmt(q3)},"
              f" n={len(values)})")
        if not trace:
            metrics[name] = {"value": med, "unit": unit}

    missing = sorted({m for s in ok for m in s["missing"]})
    if trace and traced:
        per_layer = collections.defaultdict(list)
        for s in traced:
            for name, value in s["layers"].items():
                per_layer[name].append(value)
        if plain:
            walls = [s["wall_s"] for s in traced]
            per_layer["trace.overhead_s"] = [statistics.median(walls)
                                             - summary["wall_s"]["median"]]
        backend = env.get("kernel_backend", "?")
        for name, unit in LAYER_UNITS.items():
            if name not in per_layer:
                missing.append(name)
                continue
            values = per_layer[name]
            # exact counts repeat, so keep them whole rather than averaged
            med = (values[0] if len(set(values)) == 1
                   else statistics.median(values))
            metrics[name] = {"value": med, "unit": unit}
            label = f" [backend={backend}]" if name.startswith("kernels.") else ""
            print(f"{name}: {fmt(med)} {unit}{label}")
        for kind in ("stage", "self"):
            shares = {layer: statistics.median(s["shares"][kind][layer]
                                               for s in traced)
                      for layer in traced[0]["shares"][kind]}
            print(f"share of traced wall_s by {kind}: "
                  + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
            summary[f"{kind}_shares"] = shares
    if missing:
        print("missing: " + ", ".join(sorted(set(missing))))

    correct = failed == 0 and bool(metrics)
    record = {"workload": args.workload, "workload_spec": WORKLOADS[args.workload],
              "seed": args.seed, "seconds": args.seconds, "trace": trace,
              "env": env, "summary": summary, "metrics": metrics,
              "missing": sorted(set(missing)), "notes": notes, "samples": samples}
    result_path.write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
