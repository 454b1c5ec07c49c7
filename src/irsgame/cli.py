"""Command line entry points.

    irsgame run <preset> [--config FILE] [--out DIR] [--json] [--KEY VALUE ...]
    irsgame validate <config>
    irsgame bound <config>

Each run flag --KEY, one per key of config.OVERRIDES, reads VALUE as the key's
config file line does.  Exit codes: 0 success, 1 configuration error, 2 numeric
error.  A malformed command line (an unknown preset, command or flag, a missing
argument), a VALUE the key cannot parse and a run flag the preset does not read
(experiments.PRESET_TABLE) are configuration errors.
"""

from __future__ import annotations

import argparse
import sys

from .config import OVERRIDES, default_config, load_config, parse_override, with_scalar_overrides
from .errors import ConfigurationError, NumericError
from .experiments import PRESETS, numerators, run_experiment
from .game import stability_bound

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    """argparse, but a malformed command line exits EXIT_CONFIG: argparse's own 2 is the numeric-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, "%s: error: %s\n" % (self.prog, message))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="irsgame", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment preset and write CSV files")
    run.add_argument("preset", choices=PRESETS)
    run.add_argument("--config", default=None, help="scenario config file (default: bundled scenario)")
    run.add_argument("--out", default=".", help="output directory (default: current)")
    for key in OVERRIDES:
        run.add_argument("--" + key.replace("_", "-"), metavar="X", help="set config key %s, parsed as in a file" % key)
    run.add_argument("--json", action="store_true", help="also write a .json twin of each CSV, cell for cell")

    sub.add_parser("validate", help="check a config file and report problems").add_argument("config")
    sub.add_parser("bound", help="print the largest stable decision delay, pi / (2 mu C+)").add_argument("config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = default_config() if args.config is None else load_config(args.config)
            overrides = {k: parse_override(k, v) for k, v in vars(args).items() if k in OVERRIDES and v is not None}
            flags = list(overrides) + ["json"] * args.json
            paths = run_experiment(args.preset, with_scalar_overrides(cfg, **overrides), args.out, flags)
            print(*paths, sep="\n")
            return EXIT_OK
        if args.command == "validate":
            cfg = load_config(args.config)
            print("ok: %d provider(s), %d service group(s), %d user(s)" % (len(cfg.sps), cfg.n_groups, cfg.n_users))
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
