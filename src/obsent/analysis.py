"""Eigenstate-ensemble entropy statistics, fits, and finite-size metrics.

The sweep driver diagonalizes once per phase realization (through
:func:`obsent.sampling.phase_weights`) and reuses the eigenvectors for
every requested block size and basis.  Entropies are averaged over the
selected eigenstates within each realization first, then over
realizations; the reported spread is the standard error across
realizations.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass

import numpy as np

from .entropy import uniform_block_entropy
from .model import EigenSystem, ModelParams
from .sampling import Window, mean_stderr, phase_weights


@dataclass(frozen=True)
class FluctuationResult:
    """Relative spread of the entropy across system sizes."""

    delta: float
    m: int
    f: float
    L_set: tuple[int, ...]


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float

    def __iter__(self):
        return iter((self.slope, self.intercept, self.r_squared))


@dataclass(frozen=True)
class SizeScalingReport:
    """Per-size mean entropies plus the successive doubling differences."""

    delta: float
    m: int
    basis_tag: str
    L_values: tuple[int, ...]
    mean_S: np.ndarray
    stderr_S: np.ndarray
    diffs: np.ndarray  # mean_S[i+1] - mean_S[i]


def mid_spectrum_states(eig: EigenSystem, count: int = 10) -> np.ndarray:
    """The ``count`` eigenstates with energies nearest zero, one per row.

    Ties in |E| are broken toward the lower eigenvalue index (stable
    sort), so the selection is deterministic.  Rows come back ordered by
    their position in the spectrum.  A stack of systems gives a
    (..., count, L) stack of rows.
    """
    return Window(count)(eig)


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
    elif isinstance(mid_count, numbers.Integral) and mid_count >= 1:
        return min(int(mid_count), L)
    raise ValueError(f"mid_count must be an integer >= 1, 'all' or 'L/<k>'; got {mid_count!r}")


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
    fallbacks=None,
):
    """Phase-averaged eigenstate entropies for several (m, basis) at once.

    Returns ``{(m, basis_tag): (mean, stderr)}``.  ``selector`` picks the
    states per realization: "mid" for the mid-spectrum window of
    ``mid_count`` states, "ground" for the lowest-energy state.  A
    ``fallbacks`` Counter gains the phases that left the windowed solver,
    by reason (see :func:`obsent.sampling.window_rows`).
    """
    if selector not in ("mid", "ground"):
        raise ValueError(f"selector must be 'mid' or 'ground', got {selector!r}")
    params = ModelParams(L=L, delta=delta, bc=bc)
    states = Window(1, "ground") if selector == "ground" else Window(resolve_mid_count(mid_count, L))
    samples = {(m, b): [] for m in m_list for b in basis_tags}
    for weights in phase_weights(params, n_phi, seed, states, basis_tags, momentum_order, fallbacks):
        for (m, b), vals in samples.items():
            vals.append(uniform_block_entropy(weights[b], m).mean(axis=-1))
    return {key: tuple(float(x) for x in mean_stderr(np.concatenate(vals)))
            for key, vals in samples.items()}


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


def size_scaling_report(
    delta: float,
    m: int,
    basis_tag: str,
    L_list,
    n_phi: int = 100,
    seed: int = 0,
    *,
    mid_count="L/8",
    bc: str = "open",
    momentum_order: str = "index",
) -> SizeScalingReport:
    """Entropy against system size with successive doubling differences.

    Size comparisons default to a mid-spectrum window proportional to L
    (``"L/8"``) so the state ensembles stay comparable across sizes; a
    fixed count samples an ever narrower energy shell as L grows and
    contaminates the size dependence.
    """
    L_values = tuple(int(L) for L in L_list)
    mean, stderr = np.array([
        eigenstate_entropy_table(L, delta, [m], (basis_tag,), n_phi=n_phi, seed=seed,
                                 mid_count=mid_count, bc=bc, momentum_order=momentum_order)[(m, basis_tag)]
        for L in L_values
    ]).T
    return SizeScalingReport(
        delta=delta, m=m, basis_tag=basis_tag, L_values=L_values,
        mean_S=mean, stderr_S=stderr, diffs=np.diff(mean),
    )


def fluctuation_table(
    delta_list,
    m_list,
    L_list,
    *,
    n_phi: int = 100,
    seed: int = 0,
    mid_count="L/8",
    bc: str = "open",
) -> list[FluctuationResult]:
    """Normalized fluctuation across sizes for every (delta, m) pair."""
    L_values = tuple(int(L) for L in L_list)
    results = []
    for delta in map(float, delta_list):
        tables = [
            eigenstate_entropy_table(L, delta, m_list, ("real",), n_phi=n_phi, seed=seed,
                                     mid_count=mid_count, bc=bc)
            for L in L_values
        ]
        for m in m_list:
            f = normalized_fluctuation([table[(m, "real")][0] for table in tables])
            results.append(FluctuationResult(delta=delta, m=m, f=f, L_set=L_values))
    return results
