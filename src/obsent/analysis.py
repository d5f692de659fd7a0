"""Eigenstate-ensemble entropy statistics, the fluctuation across sizes, and fits.

An eigenstate table is one :func:`obsent.sampling.phase_table` call,
which diagonalizes once per phase realization and reuses the eigenvectors
for every requested block size and basis.  Entropies are averaged over
the selected eigenstates within each realization first, then over
realizations; the reported spread is the standard error across
realizations.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .sampling import Window, phase_table


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float


def resolve_mid_count(mid_count, L: int) -> int:
    """Turn a state-count spec into a concrete count for lattice size L.

    Accepts a positive integer, "all", or "L/<k>" for a mid-spectrum
    window proportional to the system size (at least 2 states).
    """
    if isinstance(mid_count, str):
        if mid_count == "all":
            return L
        match = re.fullmatch(r"L/([1-9]\d*)", mid_count)
        if match:
            return max(2, L // int(match.group(1)))
    elif isinstance(mid_count, numbers.Integral) and not isinstance(mid_count, bool) and mid_count >= 1:
        return min(int(mid_count), L)
    raise ValueError(f"mid_count must be an integer >= 1, 'all' or 'L/<k>'; got {mid_count!r}")


def eigenstate_window(L: int, mid_count, selector: str) -> Window:
    """The states an eigenstate table of size L measures per realization:
    the lowest-energy state for selector "ground", else the mid-spectrum
    window of ``mid_count`` states."""
    return Window(1 if selector == "ground" else resolve_mid_count(mid_count, L), selector)


def eigenstate_entropy_table(
    L: int,
    delta: float,
    m_list,
    basis_tags=("real",),
    *,
    n_phi: int = 100,
    seed: int = 0,
    mid_count=10,
    selector: str = "mid",
    bc: str = "open",
    momentum_order: str = "index",
) -> dict:
    """Phase-averaged eigenstate entropies for several (m, basis) at once:
    ``{(m, basis_tag): (mean, stderr)}``.

    ``selector`` picks the states per realization: "mid" for the
    mid-spectrum window of ``mid_count`` states, "ground" for the
    lowest-energy state.
    """
    tables, _ = phase_table([ModelParams(L=L, delta=delta, bc=bc)], n_phi, seed,
                            eigenstate_window(L, mid_count, selector), m_list, basis_tags, momentum_order)
    return {key: (float(mean), float(stderr)) for key, (mean, stderr) in tables[0].items()}


def normalized_fluctuation(values_by_L) -> float:
    """Relative population spread sqrt(<S^2> - <S>^2) / <S> across sizes.

    Zero means the per-size values coincide (perfect data collapse); the
    value is invariant under rescaling all inputs by a positive constant.
    """
    v = np.asarray(values_by_L, dtype=float)
    if v.size < 2:
        raise ValueError("need at least two per-size values")
    mean = v.mean()
    if mean <= 0.0:
        raise ValueError(f"mean must be positive, got {mean}")
    return float(np.sqrt(np.maximum((v**2).mean() - mean**2, 0.0)) / mean)


def fit_log_slope(times, entropies, window) -> FitResult:
    """Ordinary least squares of S against ln t inside [t_lo, t_hi]."""
    times = np.asarray(times, dtype=float)
    entropies = np.asarray(entropies, dtype=float)
    t_lo, t_hi = window
    mask = (times >= t_lo) & (times <= t_hi)
    if mask.sum() < 5:
        raise ValueError(f"only {int(mask.sum())} points inside window [{t_lo}, {t_hi}]; need >= 5")
    if np.any(times[mask] <= 0.0):
        raise ValueError("times inside the fit window must be positive")
    x = np.log(times[mask])
    y = entropies[mask]
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = ((y - y.mean()) ** 2).sum()
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - (resid**2).sum() / ss_tot
    return FitResult(slope=float(slope), intercept=float(intercept), r_squared=float(r_squared))
