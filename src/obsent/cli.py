"""Command-line entry point.

Exit codes: 0 success, 2 configuration error or unusable ``--out``, 3 numerical or
resource failure (``"error": "numerical"``, or ``"resource"`` for a
``MemoryError`` or a pool worker that died).  ``validate`` prints its JSON
report on stdout; ``run`` reports errors as a JSON object on stderr, so
callers can parse them.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .runner import _LIST_FIELDS, ConfigError, ExperimentConfig, config_from_mapping, run, validate
from .sampling import NUMERICAL_ERRORS


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
    """One flag per config field, typed from the runner's field tables."""
    for f in fields(ExperimentConfig):
        if f.name in _LIST_FIELDS:
            item = "N" if _LIST_FIELDS[f.name] is int else "X"
            kwargs = dict(type=_number_list, metavar=f"{item}[,{item}...]")
        else:
            kwargs = dict(type=None if f.type in (str, "str") else _number)
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, **{**kwargs, **f.metadata})
        if f.name == "preset":
            p.add_argument("--config", metavar="FILE", help="JSON config file")


def _config_from_args(args: dict) -> ExperimentConfig:
    """The config that ``--config`` and the flags in ``args`` describe."""
    path, mapping = args.pop("config"), {}
    if path:
        with open(path) as fh:
            mapping = json.load(fh)
        if not isinstance(mapping, dict):
            raise ConfigError([f"{path} must hold a JSON object of config fields"])
    mapping.update({key: value for key, value in args.items() if value is not None})
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

    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    try:
        config = _config_from_args(args)
        diagnostics = validate(config)
    except ConfigError as exc:
        diagnostics = exc.diagnostics
    except (OSError, json.JSONDecodeError) as exc:
        diagnostics = [str(exc)]

    if command == "validate":
        print(json.dumps({"valid": not diagnostics, "diagnostics": diagnostics}, indent=2))
        return 0 if not diagnostics else 2
    if diagnostics:
        return _fail("config", {"diagnostics": diagnostics}, 2)
    try:
        outputs = run(config)
    except ConfigError as exc:  # an unusable --out
        return _fail("config", {"diagnostics": exc.diagnostics}, 2)
    except NUMERICAL_ERRORS as exc:
        return _fail("numerical", {"message": str(exc)}, 3)
    except (MemoryError, ChildProcessError) as exc:  # a block that cannot allocate, or a dead pool worker
        return _fail("resource", {"message": str(exc)}, 3)
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
