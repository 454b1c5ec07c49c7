"""Command line entry points.

    irsgame run <preset> [--config FILE] [--seed N] [--out DIR] [overrides]
    irsgame validate <config>
    irsgame bound <config>

Exit codes: 0 success, 1 configuration error, 2 numeric error.  A run flag
the preset does not read (experiments.PRESET_TABLE) is a configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .config import OVERRIDES, default_config, load_config, with_scalar_overrides
from .errors import ConfigurationError, NumericError
from .experiments import PRESETS, numerators, run_experiment
from .game import stability_bound

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="irsgame", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment preset and write CSV files")
    run.add_argument("preset", choices=PRESETS)
    run.add_argument("--config", default=None, help="scenario config file (default: bundled scenario)")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--out", default=".", help="output directory (default: current)")
    run.add_argument("--mu", type=float, default=None, help="override the adaptation rate")
    run.add_argument("--delta", type=float, default=None, help="override the decision delay")
    run.add_argument("--dt", type=float, default=None, help="override the integration step")
    run.add_argument("--horizon", type=float, default=None, help="override the integration horizon")
    run.add_argument("--n-users", type=int, default=None, help="override the population size")
    run.add_argument("--json", action="store_true", help="also write a .json twin of each CSV, cell for cell")

    val = sub.add_parser("validate", help="check a config file and report problems")
    val.add_argument("config")

    bnd = sub.add_parser("bound", help="print the largest stable decision delay, pi / (2 mu C+)")
    bnd.add_argument("config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = default_config() if args.config is None else load_config(args.config)
            overrides = {name: getattr(args, name) for name in OVERRIDES if getattr(args, name) is not None}
            flags = list(overrides) + ["json"] * args.json
            paths = run_experiment(args.preset, with_scalar_overrides(cfg, **overrides), args.out, flags)
            print(*paths, sep="\n")
            return EXIT_OK
        if args.command == "validate":
            cfg = load_config(args.config)
            print(
                "ok: %d provider(s), %d service group(s), %d user(s)"
                % (len(cfg.sps), cfg.n_groups, cfg.n_users)
            )
            return EXIT_OK
        if args.command == "bound":
            cfg = load_config(args.config)
            print("%.17g" % stability_bound(numerators(cfg), cfg.mu, cfg.n_users))
            return EXIT_OK
    except ConfigurationError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print("numeric error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
