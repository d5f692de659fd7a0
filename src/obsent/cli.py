"""Command-line entry point.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
Configuration errors are reported as a JSON object on stderr so callers
can parse them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .runner import ConfigError, ExperimentConfig, config_from_mapping, make_config, run, validate


def _number(text):
    """An int or float where the text reads as one, else the text itself,
    so that the config checks report it."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _number_list(text):
    return [_number(x) for x in text.split(",") if x]


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--preset", default=None)
    p.add_argument("--config", metavar="FILE", default=None, help="JSON config file")
    p.add_argument("--L", type=_number_list, metavar="N[,N...]", default=None)
    p.add_argument("--delta", type=_number_list, metavar="X[,X...]", default=None)
    p.add_argument("--m", type=_number_list, metavar="N[,N...]", default=None)
    p.add_argument("--basis", default=None)
    p.add_argument("--bc", default=None)
    p.add_argument("--n-phi", dest="n_phi", type=_number, default=None)
    p.add_argument("--seed", type=_number, default=None)
    p.add_argument("--mid-count", dest="mid_count", type=_number, default=None,
                   help="states per realization: integer, 'all', or 'L/<k>'")
    p.add_argument("--selector", default=None)
    p.add_argument("--t-min", dest="t_min", type=_number, default=None)
    p.add_argument("--t-max", dest="t_max", type=_number, default=None)
    p.add_argument("--t-points", dest="t_points", type=_number, default=None)
    p.add_argument("--times", type=_number_list, metavar="T[,T...]", default=None)
    p.add_argument("--fit-lo", dest="fit_lo", type=_number, default=None)
    p.add_argument("--fit-hi", dest="fit_hi", type=_number, default=None)
    p.add_argument("--initial-site", dest="initial_site", type=_number, default=None)
    p.add_argument("--momentum-order", dest="momentum_order", default=None)
    p.add_argument("--jobs", type=_number, default=None,
                   help="parallel workers (default: OBSENT_JOBS or 1)")
    p.add_argument("--out", default=None, metavar="DIR")


def _config_from_args(args) -> ExperimentConfig:
    mapping = {}
    if args.config:
        with open(args.config) as fh:
            mapping = json.load(fh)
        if not isinstance(mapping, dict):
            raise ConfigError([f"{args.config} must hold a JSON object of config fields"])
    overrides = {
        key: getattr(args, key)
        for key in ("L", "delta", "m", "basis", "bc", "n_phi", "seed", "mid_count",
                    "selector", "t_min", "t_max", "t_points", "times", "initial_site",
                    "momentum_order", "jobs", "out")
        if getattr(args, key, None) is not None
    }
    mapping.update(overrides)
    if args.preset is not None:
        mapping["preset"] = args.preset
    if "jobs" not in mapping and os.environ.get("OBSENT_JOBS"):
        mapping["jobs"] = _number(os.environ["OBSENT_JOBS"])
    if args.fit_lo is not None or args.fit_hi is not None:
        lo, hi = config_from_mapping(mapping).fit_window  # rejects a malformed fit_window
        mapping["fit_window"] = (lo if args.fit_lo is None else args.fit_lo,
                                 hi if args.fit_hi is None else args.fit_hi)
    return config_from_mapping(mapping)


def _fail(kind: str, payload, code: int) -> int:
    print(json.dumps({"error": kind, **payload}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="obsent",
        description="Coarse-grained observational entropy sweeps for the quasiperiodic chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a preset or custom sweep")
    _add_run_flags(run_p)
    val_p = sub.add_parser("validate", help="check a configuration without running it")
    _add_run_flags(val_p)

    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except ConfigError as exc:
        return _fail("config", {"diagnostics": exc.diagnostics}, 2)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail("config", {"diagnostics": [str(exc)]}, 2)

    if args.command == "validate":
        diagnostics = validate(config)
        print(json.dumps({"valid": not diagnostics, "diagnostics": diagnostics}, indent=2))
        return 0 if not diagnostics else 2

    try:
        outputs = run(config)
    except ConfigError as exc:
        return _fail("config", {"diagnostics": exc.diagnostics}, 2)
    except (np.linalg.LinAlgError, ValueError, FloatingPointError) as exc:
        return _fail("numerical", {"message": str(exc)}, 3)
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
