"""Experiment orchestration: presets, validation, and CSV/JSON emission.

Every preset writes plain CSV data files plus a JSON run manifest.  The
CSV bodies are deterministic for a fixed configuration and seed (floats
are written with 17 significant digits, row order is fixed by the grid);
wall-clock information lives only in the manifest.
"""

from __future__ import annotations

import csv
import json
import math
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import eigenstate_entropy_table, fit_log_slope, normalized_fluctuation, resolve_mid_count
from .dynamics import quench_entropy_table
from .model import ModelParams

PRESETS = ("fig1", "fig3", "fig4", "fig5", "custom")


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the full diagnostics list."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one run; see the preset table for defaults."""

    preset: str = "custom"
    L: tuple = (256,)
    delta: tuple = (1.0,)
    m: tuple = (1,)
    basis: str = "real"  # real | momentum | both
    bc: str = "open"
    n_phi: int = 100
    seed: int = 42
    mid_count: object = 10  # int | "all" | "L/<k>"
    selector: str = "mid"  # mid | ground
    t_min: float = 0.1
    t_max: float = 100.0
    t_points: int = 60
    times: tuple | None = None  # explicit grid overrides t_min/t_max/t_points
    fit_window: tuple = (3.0, 30.0)
    initial_site: int | None = None
    momentum_order: str = "index"  # index | kinetic
    jobs: int = 1
    out: str = "."

    def time_grid(self) -> np.ndarray:
        if self.times is not None:
            return np.asarray(self.times, dtype=float)
        return np.geomspace(self.t_min, self.t_max, self.t_points)

    def basis_tags(self) -> tuple:
        return ("real", "momentum") if self.basis == "both" else (self.basis,)


_PRESET_DEFAULTS = {
    "fig1": dict(L=(256,), delta=(0.5, 1.0, 2.0, 3.0, 4.0), m=None, basis="real", mid_count=10),
    "fig3": dict(L=(256,), delta=(1.0, 2.0, 3.0), m=(1, 4, 16, 256), basis="real",
                 t_min=0.1, t_max=100.0, t_points=60, fit_window=(3.0, 30.0)),
    "fig4": dict(L=(128, 256), delta=tuple(round(0.25 * k, 10) for k in range(1, 17)),
                 m=(1, 2, 4), basis="both", mid_count="L/8"),
    "fig5": dict(L=(16, 32, 64, 128), delta=tuple(round(0.2 * k, 10) for k in range(1, 21)),
                 m=(1, 2, 4), basis="real", mid_count="L/8"),
    "custom": dict(),
}


def make_config(preset: str = "custom", **overrides) -> ExperimentConfig:
    """Fill preset defaults, then apply explicit overrides."""
    if preset not in PRESETS:
        raise ConfigError([f"unknown preset {preset!r}; expected one of {PRESETS}"])
    merged = dict(_PRESET_DEFAULTS[preset])
    merged.update({k: v for k, v in overrides.items() if v is not None})
    merged["preset"] = preset
    cfg = ExperimentConfig(**_normalized(merged))
    if cfg.m is None:  # fig1 default: every dyadic block size of the lattice
        L0 = cfg.L[0]
        cfg = replace(cfg, m=tuple(2**k for k in range(int(math.log2(L0)) + 1)))
    return cfg


def _normalized(d: dict) -> dict:
    out = dict(d)
    for key, cast in (("L", int), ("m", int), ("delta", float), ("times", float), ("fit_window", float)):
        if out.get(key) is not None:
            seq = out[key] if isinstance(out[key], (list, tuple)) else [out[key]]
            out[key] = tuple(cast(x) for x in seq)
    if out.get("out") is not None:
        out["out"] = str(out["out"])
    return out


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build a config from a parsed config file (flags merged by the CLI)."""
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(mapping) - known
    if unknown:
        raise ConfigError([f"unknown config field(s): {', '.join(sorted(unknown))}"])
    preset = mapping.get("preset", "custom")
    return make_config(preset, **{k: v for k, v in mapping.items() if k != "preset"})


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _runs_quench(config: ExperimentConfig) -> bool:
    return config.preset == "fig3" or (config.preset == "custom" and config.times is not None)


def validate(config: ExperimentConfig) -> list:
    """All configuration violations, without executing anything."""
    diags = []
    if config.preset not in PRESETS:
        diags.append(f"unknown preset {config.preset!r}")
    if not config.L:
        diags.append("L list is empty")
    for L in config.L:
        if L < 2:
            diags.append(f"L={L} is below the minimum lattice size 2")
        elif not _is_pow2(L):
            diags.append(f"L={L} is not a power of 2")
    if not config.m:
        diags.append("m list is empty")
    for m in config.m:
        if m < 1:
            diags.append(f"m={m} is not a positive block size")
            continue
        for L in config.L:
            if L >= 2 and L % m != 0:
                diags.append(f"m={m} does not divide L={L}")
    if not config.delta:
        diags.append("delta list is empty")
    for delta in config.delta:
        if not math.isfinite(delta):
            diags.append(f"delta={delta} is not finite")
        elif delta < 0:
            diags.append(f"delta={delta} is negative")
    finite_times = True
    for name in ("t_min", "t_max", "times", "fit_window"):
        value = getattr(config, name)
        if value is not None and not np.all(np.isfinite(value)):
            diags.append(f"{name}={value} is not finite")
            finite_times = False
    if config.basis not in ("real", "momentum", "both"):
        diags.append(f"basis must be real, momentum, or both; got {config.basis!r}")
    if config.bc not in ("open", "periodic"):
        diags.append(f"bc must be open or periodic; got {config.bc!r}")
    if config.selector not in ("mid", "ground"):
        diags.append(f"selector must be mid or ground; got {config.selector!r}")
    if config.momentum_order not in ("index", "kinetic"):
        diags.append(f"momentum_order must be index or kinetic; got {config.momentum_order!r}")
    if config.n_phi < 1:
        diags.append(f"n_phi={config.n_phi} must be >= 1")
    if config.seed < 0:
        diags.append(f"seed={config.seed} must be >= 0")
    if config.jobs < 1:
        diags.append(f"jobs={config.jobs} must be >= 1")
    try:
        for L in config.L:
            if L >= 2:
                resolve_mid_count(config.mid_count, L)
    except ValueError as exc:
        diags.append(str(exc))
    if _runs_quench(config) and finite_times:
        try:
            grid = config.time_grid()
            if grid.size == 0:
                diags.append("time grid is empty")
            elif grid[0] < 0 or np.any(np.diff(grid) <= 0):
                diags.append("time grid must be non-negative and strictly ascending")
        except ValueError as exc:
            diags.append(f"time grid is invalid: {exc}")
        if config.times is None and (config.t_min <= 0 or config.t_max <= config.t_min or config.t_points < 2):
            diags.append("log time grid needs 0 < t_min < t_max and t_points >= 2")
        lo, hi = config.fit_window
        if not lo < hi:
            diags.append(f"fit window [{lo}, {hi}] is empty")
    if config.initial_site is not None:
        for L in config.L:
            if not 1 <= config.initial_site <= L:
                diags.append(f"initial_site={config.initial_site} outside 1..{L}")
    return diags


# ---------------------------------------------------------------------------
# grid jobs (module level so a process pool can pickle them)

def _eig_point(job):
    config, L, delta = job
    return eigenstate_entropy_table(
        L, delta, config.m, config.basis_tags(), n_phi=config.n_phi, seed=config.seed,
        mid_count=config.mid_count, selector=config.selector, bc=config.bc,
        momentum_order=config.momentum_order,
    )


def _quench_point(job):
    config, L, delta = job
    basis = config.basis_tags()[0]
    table = quench_entropy_table(
        ModelParams(L=L, delta=delta, bc=config.bc), config.time_grid(), config.m,
        n_phi=config.n_phi, seed=config.seed, basis_tag=basis,
        initial_site=config.initial_site, momentum_order=config.momentum_order,
    )
    return {(m, basis): stats for m, stats in table.items()}


def _map_grid(point, config: ExperimentConfig, L_values) -> dict:
    """``{(L, delta): point((config, L, delta))}`` over L_values x config.delta."""
    jobs = [(config, L, delta) for L in L_values for delta in config.delta]
    if config.jobs <= 1 or len(jobs) <= 1:
        results = [point(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(point, jobs))
    return {(L, delta): result for (_, L, delta), result in zip(jobs, results)}


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
    basis = config.basis_tags()[0]
    rows = []
    for delta in config.delta:
        for m in config.m:
            mean = tables[(config.L[0], delta)][(m, basis)][0]
            try:
                fit = fit_log_slope(times, mean, config.fit_window)
            except ValueError:
                continue  # window not covered by this grid; flagged by validate()
            rows.append((delta, m, *config.fit_window, fit.slope, fit.intercept, fit.r_squared))
    return "fig3_slopes.csv", ("delta", "m", "t_lo", "t_hi", "slope", "intercept", "r_squared"), rows


def _fig5_fluctuation(config: ExperimentConfig, tables: dict):
    basis = config.basis_tags()[0]
    rows = [
        (delta, m, normalized_fluctuation([tables[(L, delta)][(m, basis)][0] for L in config.L]))
        for delta in config.delta
        for m in config.m
    ]
    return "fig5_fluctuation.csv", ("delta", "m", "f"), rows


_SWEEP_COLUMNS = ("basis", "L", "delta", "m", "mean_S", "stderr_S", "n_phi")

#: preset -> CSV tables, each (grid point, file name, columns, extra CSV or None).
#: A table without an "L" column covers only the first L, and one without a
#: "basis" column only the first basis.  Rows run basis > L > delta > m (> t).
_PRESET_TABLES = {
    "fig1": [(_eig_point, "fig1.csv", ("delta", "m", "mean_S", "stderr_S", "n_phi"), None)],
    "fig3": [(_quench_point, "fig3.csv", ("delta", "m", "t", "mean_S", "stderr_S"), _fig3_slopes)],
    "fig4": [(_eig_point, "fig4.csv", _SWEEP_COLUMNS, None)],
    "fig5": [(_eig_point, "fig5_curves.csv", ("L", "delta", "m", "mean_S", "stderr_S"),
              _fig5_fluctuation)],
    "custom": [(_eig_point, "sweep.csv", _SWEEP_COLUMNS, None),
               (_quench_point, "quench.csv", ("L", "delta", "m", "t", "mean_S", "stderr_S"), None)],
}


def _write_table(config: ExperimentConfig, point, path: Path, columns) -> dict:
    """Run ``point`` over the grid, write its rows, and return the results."""
    L_values = config.L if "L" in columns else config.L[:1]
    bases = config.basis_tags() if "basis" in columns else config.basis_tags()[:1]
    times = config.time_grid() if point is _quench_point else [None]
    tables = _map_grid(point, config, L_values)
    rows = []
    for basis in bases:
        for L in L_values:
            for delta in config.delta:
                for m in config.m:
                    mean, stderr = map(np.atleast_1d, tables[(L, delta)][(m, basis)])
                    for t, mean_t, stderr_t in zip(times, mean, stderr):
                        row = dict(basis=basis, L=L, delta=delta, m=m, t=t, mean_S=mean_t,
                                   stderr_S=stderr_t, n_phi=config.n_phi)
                        rows.append([row[c] for c in columns])
    _write_csv(path, columns, rows)
    return tables


def run(config: ExperimentConfig) -> list:
    """Validate, execute the preset, and write CSV outputs plus a manifest.

    Returns the list of written file paths.  Raises :class:`ConfigError`
    for invalid configurations; numerical failures propagate.
    """
    diagnostics = validate(config)
    if diagnostics:
        raise ConfigError(diagnostics)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc)
    t0 = time.perf_counter()
    outputs = []
    for point, name, columns, extra in _PRESET_TABLES[config.preset]:
        if point is _quench_point and not _runs_quench(config):
            continue
        tables = _write_table(config, point, out_dir / name, columns)
        outputs.append(name)
        if extra is not None:
            extra_name, extra_columns, extra_rows = extra(config, tables)
            _write_csv(out_dir / extra_name, extra_columns, extra_rows)
            outputs.append(extra_name)
    manifest = {
        "preset": config.preset,
        "config": asdict(config),
        "versions": {
            "obsent": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "started_utc": started.isoformat(),
        "wall_time_s": time.perf_counter() - t0,
        "outputs": outputs,
    }
    with open(out_dir / "run_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, default=list)
        fh.write("\n")
    return [out_dir / name for name in outputs] + [out_dir / "run_manifest.json"]
