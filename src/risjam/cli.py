"""Command line entry point for the jamming sweep."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .harness import load_config, rows_to_csv, run_sweep, summarize


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Monte Carlo sweep of a RIS-assisted link under reactive jamming.",
    )
    parser.add_argument("--config", required=True, help="INI experiment description")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--trials", type=int, default=None, help="override trial count")
    parser.add_argument("--jobs", type=int, default=None, help="worker process count")
    parser.add_argument(
        "--summary", action="store_true",
        help="print crossover JSR and peak gain per curve to stdout",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        flags = {k: v for k in ("seed", "trials", "jobs") if (v := getattr(args, k)) is not None}
        cfg = replace(load_config(args.config), **flags)
    except ValueError as exc:
        print(f"simulate: config error: {exc}", file=sys.stderr)
        return 1

    try:
        # an unwritable --out fails before the sweep; a file's bytes change only after it
        existed = os.path.lexists(args.out)
        open(args.out, "a").close()
        if not existed:
            os.remove(args.out)
        rows = run_sweep(cfg)
        with open(args.out, "w") as fh:
            fh.write(rows_to_csv(rows))
        if args.summary:
            sys.stdout.write(summarize(rows))
    except Exception as exc:  # noqa: BLE001 - surface as a runtime failure
        print(f"simulate: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
