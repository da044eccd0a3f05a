#!/usr/bin/env python3
"""Scenario engine throughput and memory on a fixed input.

Times run_scenario alone (pair generation, arrival transform, detector
and the merge of each user's two paths into one packed stream) on the
users of the 42 `figures` links of the default config, as
report.run_bundle calls it: without a truth log, or with one under
--truth. Best of --repeat runs at the first duration and one run at
each other. Each duration runs in a fresh subprocess, so the peaks
printed beside it (ru_maxrss) are that duration's alone: the peak of
the process that calls run_scenario ("parent") and the largest peak of
the pass-2 workers it forks ("worker", RUSAGE_CHILDREN; 0 when it
forks none). NumPy's transparent-hugepage advice is off in the children
(NUMPY_MADVISE_HUGEPAGE=0) unless the caller sets it, as in perfbench,
so that peak RSS does not move by whole 2 MB pages. Prints engine
seconds, detected tags per second, both peaks, the minor page faults
and system seconds of the best run (parent and workers together), and
peak bytes per expected tag: the sum of the two peaks over
report.expected_tags, the count report.check_memory charges
BYTES_PER_TAG (BYTES_PER_TRUTH_TAG with --truth) for. The sum bounds
what the run holds on the host at once, counting twice the pages the
parent and a worker share. The fixed cost of the interpreter and NumPy
weighs on that ratio at short durations; from about 10 s on it
approaches the per-tag cost.

Usage: python3 benchmarks/bench_engine.py [--seconds S ...] [--seed N]
                                          [--repeat K] [--truth]
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time


def measure(duration_s: float, seed: int, repeat: int, truth: bool) -> dict:
    """Best-of-repeat engine time for one duration, in this process."""
    from entnetsim import config, report
    from entnetsim.sim import run_scenario

    cfg = config.with_overrides(config.default_config(), seed=seed,
                                duration_s=duration_s, links="figures")
    plan, sys_cfg, users = cfg.network_plan(), cfg.system(), cfg.selected_users
    best = float("inf")
    for _ in range(repeat):
        before = usage()
        t0 = time.perf_counter()
        result = run_scenario(plan, sys_cfg, duration_s, seed,
                              selected_users=users, collect_truth=truth)
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
            minflt, stime = (a - b for a, b in zip(usage(), before))
        tags = sum(stream.size for stream in result.streams.values())
        del result
    return {"duration_s": duration_s, "users": len(users), "repeat": repeat,
            "engine_s": best, "tags": tags, "minflt": minflt, "stime": stime,
            "expected_tags": report.expected_tags(plan, sys_cfg, users,
                                                  duration_s),
            "parent_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "worker_kb":
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


def usage() -> tuple[int, float]:
    """Minor page faults and system seconds of this process and its
    reaped children."""
    ru = [resource.getrusage(who)
          for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return (sum(r.ru_minflt for r in ru), sum(r.ru_stime for r in ru))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, nargs="+", default=[1.5, 10.0],
                        help="simulated durations; the first is run --repeat"
                             " times, the others once")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--truth", action="store_true",
                        help="collect the ground-truth log, as --dump-truth")
    parser.add_argument("--child", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child is not None:
        print(json.dumps(measure(args.child, args.seed, args.repeat,
                                 args.truth)))
        return

    header = (f"{'simulated':>9s} {'users':>5s} {'runs':>4s} {'engine':>9s}"
              f" {'tags':>11s} {'tags/s':>10s} {'parent':>9s} {'worker':>9s}"
              f" {'minflt':>9s} {'sys':>7s} {'B/tag':>6s}")
    print(header)
    print("-" * len(header))
    env = {"NUMPY_MADVISE_HUGEPAGE": "0", **os.environ}
    for k, seconds in enumerate(args.seconds):
        repeat = args.repeat if k == 0 else 1
        proc = subprocess.run(
            [sys.executable, __file__, "--child", str(seconds),
             "--seed", str(args.seed), "--repeat", str(repeat)]
            + (["--truth"] if args.truth else []),
            capture_output=True, text=True, env=env)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            sys.exit(f"bench_engine: the {seconds:g} s run exited with"
                     f" status {proc.returncode}")
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        peak_kb = r["parent_kb"] + r["worker_kb"]
        per_tag = (f"{peak_kb * 1024 / r['expected_tags']:6.1f}"
                   if r["expected_tags"] else f"{'-':>6s}")
        print(f"{r['duration_s']:8.3g}s {r['users']:5d} {r['repeat']:4d}"
              f" {r['engine_s']:8.2f}s {r['tags']:11,d}"
              f" {r['tags'] / r['engine_s']:10.3g}"
              f" {r['parent_kb'] / 1024:7.1f}MB {r['worker_kb'] / 1024:7.1f}MB"
              f" {r['minflt']:9,d} {r['stime']:6.2f}s {per_tag}")

if __name__ == "__main__":
    main()
