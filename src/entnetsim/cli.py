"""Command-line scenario runner.

Parses a sectioned key-value config (all keys optional; an empty or absent
file runs the reference 40-user scenario), executes the pipeline and
writes the report bundle.

Exit codes: 0 success, 2 configuration/validation error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys
import time

from .config import (ConfigError, ScenarioConfig, default_config,
                     parse_config, with_overrides)
from .report import FIGURES, FigureDataError, run_bundle, write_bundle

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entnetsim",
        description="Simulate the entanglement distribution network and"
                    " write coincidence and key-rate reports.")
    parser.add_argument("--config", metavar="PATH",
                        help="scenario config file (defaults apply when omitted)")
    parser.add_argument("--out", metavar="DIR", required=True,
                        help="output directory for the report bundle")
    parser.add_argument("--seed", type=int, help="override run.seed")
    parser.add_argument("--duration", type=float, metavar="SECONDS",
                        help="override run.duration_s")
    parser.add_argument("--links",
                        help="override run.links: default|all|fig3|fig4|figures"
                             " or an explicit list like 0-1,0-2")
    parser.add_argument("--emit", action="append", default=[],
                        choices=list(FIGURES) + ["all"], metavar="FIGURE",
                        help="also write figure-shaped CSV data"
                             " (fig3a fig3b fig4a fig4b, or all)")
    parser.add_argument("--direct-detection", action="store_true",
                        help="set the dispersion magnitude to zero, as in a"
                             " coincidence characterization run")
    parser.add_argument("--dump-tags", action="store_true",
                        help="write per-(user,path) tag stream files")
    parser.add_argument("--dump-truth", action="store_true",
                        help="collect and write the ground-truth pair log"
                             " (memory-heavy at full rates)")
    return parser


def _load_config(args) -> tuple[ScenarioConfig, dict]:
    cfg = parse_config(args.config) if args.config else default_config()
    overrides = {}
    if args.seed is not None:
        overrides["run.seed"] = args.seed
    if args.duration is not None:
        overrides["run.duration_s"] = args.duration
    if args.links is not None:
        overrides["run.links"] = args.links
    if args.direct_detection:
        overrides["detector.dispersion_ps_per_nm"] = 0.0
    cfg = with_overrides(cfg, seed=args.seed, duration_s=args.duration,
                         links=args.links,
                         direct_detection=args.direct_detection)
    return cfg, overrides


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    figures = list(FIGURES) if "all" in args.emit else list(dict.fromkeys(args.emit))

    try:
        cfg, overrides = _load_config(args)
    except ConfigError as exc:
        print(f"entnetsim: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        t0 = time.perf_counter()
        bundle = run_bundle(cfg, collect_truth=args.dump_truth)
        wall = time.perf_counter() - t0
        written = write_bundle(bundle, args.out, wall_time_s=wall,
                               overrides=overrides, figures=figures,
                               dump_tags=args.dump_tags,
                               dump_truth=args.dump_truth)
    except ConfigError as exc:
        print(f"entnetsim: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FigureDataError as exc:
        print(f"entnetsim: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"entnetsim: i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # surfaced with context, still a clean exit code
        print(f"entnetsim: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    print(f"entnetsim: wrote {len(written)} files to {args.out}"
          f" ({len(bundle.links)} links, seed {cfg.seed},"
          f" duration {cfg.duration_s} s, wall {wall:.1f} s)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
