"""Experiment orchestration: presets, validation, and CSV/JSON emission.

Every preset writes plain CSV data files plus a JSON run manifest.  The
CSV bodies are deterministic for a fixed configuration and seed (floats
are written with 17 significant digits, row order is fixed by the grid);
wall-clock information lives only in the manifest.  A run maps the blocks
of all its tables serially or through its one process pool.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import platform
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import eigenstate_window, fit_log_slope, fit_points, normalized_fluctuation, resolve_mid_count
from .dynamics import Quench
from .entropy import BASIS_TAGS
from .model import BLAS_THREAD_SETTER, BOUNDARY_CONDITIONS, ModelParams, chain_solver, integer, real
from .sampling import MOMENTUM_ORDERS, NUMERICAL_ERRORS, SELECTORS, phase_table

class ConfigError(ValueError):
    """Invalid experiment configuration; carries the full diagnostics list."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one run; see the preset table for defaults.

    A field's ``metadata`` holds extra keywords for its command-line flag.
    """

    preset: str = "custom"
    L: tuple = (256,)
    delta: tuple = (1.0,)
    m: tuple = (1,)
    basis: str = "real"
    bc: str = "open"
    n_phi: int = 100
    seed: int = 42
    mid_count: object = field(default=10, metadata=dict(
        help="states per realization: integer, 'all', or 'L/<k>'"))
    selector: str = "mid"
    t_min: float = 0.1
    t_max: float = 100.0
    t_points: int = 60
    # an explicit time grid overrides t_min/t_max/t_points
    times: tuple | None = field(default=None, metadata=dict(metavar="T[,T...]"))
    fit_window: tuple = field(default=(3.0, 30.0), metadata=dict(metavar="LO,HI"))
    initial_site: int | None = None
    momentum_order: str = "index"
    jobs: int = field(default=1, metadata=dict(help="parallel workers (default 1)"))
    out: str = field(default=".", metadata=dict(metavar="DIR"))

    def time_grid(self) -> np.ndarray:
        if self.times is not None:
            return np.asarray(self.times, dtype=float)
        return np.geomspace(self.t_min, self.t_max, self.t_points)

    def basis_tags(self) -> tuple:
        return BASIS_TAGS if self.basis == "both" else (self.basis,)


_PRESET_DEFAULTS = {
    "fig1": dict(L=(256,), delta=(0.5, 1.0, 2.0, 3.0, 4.0), m=None, basis="real", mid_count=10),
    "fig3": dict(L=(256,), delta=(1.0, 2.0, 3.0), m=(1, 4, 16, 256), basis="real",
                 t_min=0.1, t_max=100.0, t_points=60, fit_window=(3.0, 30.0)),
    # fig4 and fig5 compare sizes, so their window grows with L: a fixed count
    # samples an ever narrower energy shell as L grows
    "fig4": dict(L=(128, 256), delta=tuple(round(0.25 * k, 10) for k in range(1, 17)),
                 m=(1, 2, 4), basis="both", mid_count="L/8"),
    "fig5": dict(L=(16, 32, 64, 128), delta=tuple(round(0.2 * k, 10) for k in range(1, 21)),
                 m=(1, 2, 4), basis="real", mid_count="L/8"),
    "custom": dict(),
}

#: numeric fields and their element type; a list field also takes one bare number
_LIST_FIELDS = {"L": int, "m": int, "delta": float, "times": float, "fit_window": float}
_SCALAR_FIELDS = {"n_phi": int, "seed": int, "t_points": int, "initial_site": int, "jobs": int,
                  "t_min": float, "t_max": float}
_NUMERIC_FIELDS = {**_LIST_FIELDS, **_SCALAR_FIELDS}
#: fields restricted to a fixed set of values, and integer fields with a lower bound
_CHOICES = {"preset": tuple(_PRESET_DEFAULTS), "basis": (*BASIS_TAGS, "both"), "bc": BOUNDARY_CONDITIONS,
            "selector": SELECTORS, "momentum_order": MOMENTUM_ORDERS}
_MINIMUM = {"n_phi": 1, "seed": 0, "jobs": 1}
_MAX_TIMES = 10_000  # most points a time grid may hold, checked before one is built


def _cast(x, kind):
    """``x`` by :func:`~obsent.model.real`, or for int by :func:`~obsent.model.integer`
    (bounds left to :func:`validate`); None where that rule refuses it."""
    with contextlib.suppress(ValueError, OverflowError):  # float(10**400) overflows
        return integer(x, "value", float("-inf")) if kind is int else real(x, "value")


def _typed(key: str, value):
    """``value`` cast to the type of numeric field ``key``, a list as a tuple;
    None if it is None or of the wrong type or length."""
    kind, is_list = _NUMERIC_FIELDS[key], key in _LIST_FIELDS
    items = value if is_list and isinstance(value, (list, tuple)) else [value]
    values = tuple(_cast(x, kind) for x in items)
    if value is None or None in values or (key == "fit_window" and len(values) != 2):
        return None
    return values if is_list else values[0]


def make_config(preset: str = "custom", **overrides) -> ExperimentConfig:
    """Fill preset defaults, then apply explicit overrides.

    Numeric values are cast to their field's type where they can be; the
    rest are kept as given for :func:`validate` to report.
    """
    if preset not in _CHOICES["preset"]:
        raise ConfigError([f"unknown preset {preset!r}; expected one of {_CHOICES['preset']}"])
    merged = dict(_PRESET_DEFAULTS[preset])
    merged.update({k: v for k, v in overrides.items() if v is not None})
    merged["preset"] = preset
    typed = {key: _typed(key, merged.get(key)) for key in _NUMERIC_FIELDS}
    merged.update({key: value for key, value in typed.items() if value is not None})
    if "out" in merged:
        merged["out"] = str(merged["out"])
    L = typed["L"]  # fig1's default m: the powers of two that divide L[0], where it has one
    if merged.get("m", ExperimentConfig.m) is None and L and L[0] >= 1:
        merged["m"] = tuple(2**k for k in range((L[0] & -L[0]).bit_length()))
    return ExperimentConfig(**merged)


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build a config from a parsed config file (flags merged by the CLI)."""
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(mapping) - known
    if unknown:
        raise ConfigError([f"unknown config field(s): {', '.join(sorted(unknown))}"])
    return make_config(**mapping)


def validate(config: ExperimentConfig) -> list:
    """All configuration violations, without executing anything.

    A numeric field of the wrong type or length is reported and left out of
    the value checks, so that it hides no other violation.  An ``out`` that
    is a file, or lies under one, is reported too; nothing is created.
    """
    diags, typed, bad = [], {}, set()
    for key, kind in _NUMERIC_FIELDS.items():
        raw = getattr(config, key)
        typed[key] = _typed(key, raw)
        if raw is not None and typed[key] is None:
            shape = ("two values" if key == "fit_window"
                     else "a list of values" if key in _LIST_FIELDS else "one value")
            diags.append(f"{key} must be {shape} of type {kind.__name__}, got {raw!r}")
            bad.add(key)
    for key in ("L", "m", "delta"):
        if typed[key] == ():
            diags.append(f"{key} list is empty")
        elif typed[key] is not None and len(set(typed[key])) < len(typed[key]):
            diags.append(f"{key}={list(typed[key])} repeats a value")
    for L in typed["L"] or ():
        if L < 2:
            diags.append(f"L={L} is below the minimum lattice size 2")
    for m in typed["m"] or ():
        if m < 1:
            diags.append(f"m={m} is not a positive block size")
        else:
            diags += [f"m={m} does not divide L={L}" for L in typed["L"] or () if L % m != 0]
    for delta in typed["delta"] or ():
        if delta < 0:
            diags.append(f"delta={delta} is negative")
    for key in ("delta", "t_min", "t_max", "times", "fit_window"):
        if typed[key] is not None and not np.all(np.isfinite(typed[key])):
            diags.append(f"{key}={typed[key]} is not finite")
            bad.add(key)
    for key, allowed in _CHOICES.items():
        if getattr(config, key) not in allowed:
            diags.append(f"{key} must be one of {', '.join(allowed)}; got {getattr(config, key)!r}")
    for key, minimum in _MINIMUM.items():
        if typed[key] is not None and typed[key] < minimum:
            diags.append(f"{key}={typed[key]} must be >= {minimum}")
    for key, n_times in (("t_points", typed["t_points"] or 0), ("times", len(typed["times"] or ()))):
        if n_times > _MAX_TIMES:
            diags.append(f"{key} asks for {n_times} times; a time grid holds at most {_MAX_TIMES}")
            bad.add(key)
    tables = _tables(config)
    for _, name, columns, extra in tables:
        if "L" not in columns and len(typed["L"] or ()) > 1:
            diags.append(f"{name} has no L column and takes one L; got L={list(typed['L'])}")
        if extra is _fig5_fluctuation and len(typed["L"] or ()) == 1:
            diags.append(f"fig5_fluctuation.csv compares sizes and takes at least two L; "
                         f"got L={list(typed['L'])}")
        if "basis" not in columns and config.basis == "both":
            diags.append(f"{name} has no basis column and takes basis real or momentum; got both")
    try:
        resolve_mid_count(config.mid_count, 2)  # the rule does not depend on L
    except ValueError as exc:
        diags.append(str(exc))
    if typed["initial_site"] is not None:
        diags += [f"initial_site={typed['initial_site']} outside 1..{L}"
                  for L in typed["L"] or () if not 1 <= typed["initial_site"] <= L]
    out = Path(config.out)  # run() creates it: it must be, or lie under, a directory
    try:
        existing = next((path for path in (out, *out.parents) if path.exists()), None)
        if existing is not None and not existing.is_dir():
            diags.append(f"out={config.out!r} is not a usable directory: {existing} is not a directory")
    except OSError as exc:  # a name too long to examine, for one
        diags.append(f"out={config.out!r} is not a usable directory: {exc}")
    runs_quench = any(kind == "quench" for kind, *_ in tables)
    if runs_quench and not bad & {"t_min", "t_max", "t_points", "times", "fit_window"}:
        lo, hi = config.fit_window
        if not lo < hi:
            diags.append(f"fit window [{lo}, {hi}] is empty")
        log_grid_ok = 0 < config.t_min < config.t_max and config.t_points >= 2
        grid = config.time_grid() if config.times is not None or log_grid_ok else None
        if grid is None:
            diags.append("log time grid needs 0 < t_min < t_max and t_points >= 2")
        elif grid.size == 0:
            diags.append("time grid is empty")
        elif grid[0] < 0 or np.any(np.diff(grid) <= 0):
            diags.append("time grid must be non-negative and strictly ascending")
        elif config.preset == "fig3" and lo < hi:
            try:
                fit_points(grid, config.fit_window)
            except ValueError as exc:
                diags.append(f"fit_window: {exc}")
    return diags


# ---------------------------------------------------------------------------
# the run's one pool

def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _one_blas_thread():
    """Pool initializer: one BLAS thread in this worker, so that ``pool``
    workers do not each start a thread per core."""
    BLAS_THREAD_SETTER(1)


@contextlib.contextmanager
def _map_grid(pool: int):
    """The builtin ``map`` when ``pool`` is 1, else that of one pool of ``pool``
    processes, each running one BLAS thread where numpy's BLAS exports a setter;
    a worker that dies, as one the OOM killer ends, raises ``ChildProcessError``."""
    if pool < 2:
        yield map
        return
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor  # about 20 ms of import; serial runs skip it

    initializer = _one_blas_thread if BLAS_THREAD_SETTER else None
    with ProcessPoolExecutor(max_workers=pool, initializer=initializer) as executor:
        try:
            yield executor.map
        except BrokenExecutor as exc:
            raise ChildProcessError(str(exc)) from exc


# ---------------------------------------------------------------------------
# output helpers

def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=",", lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _fig3_slopes(config: ExperimentConfig, tables: dict):
    times = config.time_grid()
    rows = []
    for delta in config.delta:
        for m in config.m:
            mean = tables[(config.L[0], delta)][(m, config.basis)][0]
            fit = fit_log_slope(times, mean, config.fit_window)
            rows.append((delta, m, *config.fit_window, fit.slope, fit.intercept, fit.r_squared))
    return "fig3_slopes.csv", ("delta", "m", "t_lo", "t_hi", "slope", "intercept", "r_squared"), rows


def _fig5_fluctuation(config: ExperimentConfig, tables: dict):
    rows = []
    for delta in config.delta:
        for m in config.m:
            means = [tables[(L, delta)][(m, config.basis)][0] for L in config.L]
            try:
                rows.append((delta, m, normalized_fluctuation(means)))
            except ValueError as exc:
                raise ValueError(f"delta={delta}, m={m}, {exc}") from exc
    return "fig5_fluctuation.csv", ("delta", "m", "f"), rows


_SWEEP_COLUMNS = ("basis", "L", "delta", "m", "mean_S", "stderr_S", "n_phi")

#: preset -> CSV tables, each (kind of table, file name, columns, extra CSV or None).
#: Rows run basis > L > delta > m (> t).
_PRESET_TABLES = {
    "fig1": [("eigen", "fig1.csv", ("delta", "m", "mean_S", "stderr_S", "n_phi"), None)],
    "fig3": [("quench", "fig3.csv", ("delta", "m", "t", "mean_S", "stderr_S"), _fig3_slopes)],
    "fig4": [("eigen", "fig4.csv", _SWEEP_COLUMNS, None)],
    "fig5": [("eigen", "fig5_curves.csv", ("L", "delta", "m", "mean_S", "stderr_S"),
              _fig5_fluctuation)],
    "custom": [("eigen", "sweep.csv", _SWEEP_COLUMNS, None),
               ("quench", "quench.csv", ("L", "delta", "m", "t", "mean_S", "stderr_S"), None)],
}


def _tables(config: ExperimentConfig) -> list:
    """The preset's tables that ``config`` writes; custom writes quench.csv only with a time grid."""
    quench = config.preset != "custom" or config.times is not None
    return [table for table in _PRESET_TABLES.get(config.preset, ()) if table[0] == "eigen" or quench]


def _table_rows(config: ExperimentConfig, kind: str, columns, tables: dict) -> list:
    """The rows of a table of ``kind`` from its ``(L, delta)`` results."""
    times = config.time_grid() if kind == "quench" else [None]
    rows = []
    for basis in config.basis_tags():
        for L in config.L:
            for delta in config.delta:
                for m in config.m:
                    mean, stderr = map(np.atleast_1d, tables[(L, delta)][(m, basis)])
                    for t, mean_t, stderr_t in zip(times, mean, stderr):
                        row = dict(basis=basis, L=L, delta=delta, m=m, t=t, mean_S=mean_t,
                                   stderr_S=stderr_t, n_phi=config.n_phi)
                        rows.append([row[c] for c in columns])
    return rows


def _unusable_out(config: ExperimentConfig, exc: OSError) -> ConfigError:
    """The config error of an ``out`` that ``exc`` shows cannot be used."""
    error = ConfigError([f"out={config.out!r} is not a usable directory: {exc}"])
    error.__cause__ = exc
    return error


def run(config: ExperimentConfig) -> list:
    """Validate, execute the preset, and write CSV outputs plus a manifest.

    Returns the list of written file paths.  Raises :class:`ConfigError`
    for invalid configurations and an unusable ``out``, before any compute.
    The blocks of every table are mapped through at most one pool.  A
    numerical or resource failure (a ``MemoryError``, or a dead pool worker,
    raised as ``ChildProcessError``) propagates before any CSV is written;
    it, and an ``OSError`` while writing the outputs (raised as
    :class:`ConfigError`), leave a manifest with ``"status": "failed"``, the
    error message and the pool size, where one can be written.
    """
    diagnostics = validate(config)
    if diagnostics:
        raise ConfigError(diagnostics)
    out_dir = Path(config.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _unusable_out(config, exc)
    started = datetime.now(timezone.utc)
    t0 = time.perf_counter()
    cpus = _usable_cpus()
    pool = min(config.jobs, cpus)  # one worker runs in this process
    flags, files, error = Counter(), [], None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its configuration
        blas = {}
    try:  # every table is computed before any file is written
        with _map_grid(pool) as mapper:
            for kind, name, columns, extra in _tables(config):
                tables = {}
                for L in config.L:
                    states = (Quench(L, config.time_grid(), config.initial_site) if kind == "quench"
                              else eigenstate_window(L, config.mid_count, config.selector))
                    grid = [ModelParams(L=L, delta=delta, bc=config.bc) for delta in config.delta]
                    group, counts = phase_table(grid, config.n_phi, config.seed, states, config.m,
                                                config.basis_tags(), config.momentum_order, mapper)
                    flags.update(counts)
                    tables.update({(L, params.delta): table for params, table in zip(grid, group)})
                files.append((name, columns, _table_rows(config, kind, columns, tables)))
                if extra is not None:
                    files.append(extra(config, tables))
    except (*NUMERICAL_ERRORS, MemoryError) as exc:
        error = exc
    except ChildProcessError as exc:  # a dead pool worker, while the loop mapped kind's table at L
        error = ChildProcessError(f"{kind} table, L={L}: {exc}")
    else:
        try:
            for name, columns, rows in files:
                _write_csv(out_dir / name, columns, rows)
        except OSError as exc:
            error = _unusable_out(config, exc)
    outputs = [] if error else [name for name, _, _ in files]
    manifest = {
        "status": "failed" if error else "complete",
        **({"error": str(error)} if error else {}),
        "preset": config.preset,
        "config": asdict(config),
        "versions": {
            "obsent": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "eigensolver": chain_solver(),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {name: os.environ.get(name)
                    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": pool,
        "cpus": cpus,
        # the symbol that set each pool worker to one BLAS thread; null when
        # no pool ran, or when numpy's BLAS exports no setter
        "worker_blas_setter": getattr(BLAS_THREAD_SETTER, "__name__", None) if pool > 1 else None,
        "window_flags": dict(sorted(flags.items())),
        "started_utc": started.isoformat(),
        "wall_time_s": time.perf_counter() - t0,
        "outputs": outputs,
    }
    try:
        with open(out_dir / "run_manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, default=list)
            fh.write("\n")
    except OSError as exc:
        error = error or _unusable_out(config, exc)
    if error:
        raise error
    return [out_dir / name for name in outputs] + [out_dir / "run_manifest.json"]
