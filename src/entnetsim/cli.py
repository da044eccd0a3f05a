"""Command-line scenario runner.

Parses a sectioned key-value config (all keys optional; an empty or absent
file runs the reference 40-user scenario), executes the pipeline and
writes the report bundle.

Exit codes: 0 success, 2 configuration/validation error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
import warnings

from .config import (ConfigError, ScenarioConfig, override_map, parse_config,
                     parse_config_text)
from .report import (FIGURES, HISTOGRAMS_CSV_HEADER, FigureDataError,
                     check_figures, run_bundle, write_bundle)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
# doqkd.mutual_information warns once per link with too few symbol pairs
LOW_SYMBOL_WARNING = r"only \d+ symbol pairs"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entnetsim",
        description="Simulate the entanglement distribution network and"
                    " write coincidence and key-rate reports.",
        epilog="The bundle in --out: plan.csv, links.csv, histograms.csv"
               " (every link's delay histogram, one row per bin with the"
               f" columns {','.join(HISTOGRAMS_CSV_HEADER)}, after"
               " '# bin_width_ps=' and '# duration_ps=' lines), keyrates.json,"
               " run-metadata.json and timing.json.")
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
    """The run, resolved once, and the flags' overrides (cli_overrides)."""
    overrides = override_map(seed=args.seed, duration_s=args.duration,
                             links=args.links,
                             direct_detection=args.direct_detection)
    if args.config:
        return parse_config(args.config, overrides), overrides
    return parse_config_text("", overrides=overrides), overrides


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    figures = list(FIGURES) if "all" in args.emit else list(dict.fromkeys(args.emit))

    try:
        cfg, overrides = _load_config(args)
    except ConfigError as exc:
        print(f"entnetsim: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    with warnings.catch_warnings(record=True) as caught:
        warnings.filterwarnings("always", message=LOW_SYMBOL_WARNING,
                                category=UserWarning)
        code = _run(args, cfg, overrides, figures)
    _show_warnings(caught)
    return code


def _run(args, cfg: ScenarioConfig, overrides: dict, figures: list) -> int:
    try:
        check_figures(cfg, figures)
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


def _show_warnings(caught) -> None:
    """Print the recorded warnings to stderr, except that the low symbol
    count warnings become one line with the number of links they hit."""
    low_symbol = 0
    for w in caught:
        if re.match(LOW_SYMBOL_WARNING, str(w.message)):
            low_symbol += 1
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    if low_symbol:
        print(f"entnetsim: warning: {low_symbol} links have fewer sifted symbol"
              " pairs than their joint symbol histogram has cells; their"
              " mutual information is a biased plug-in estimate",
              file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
