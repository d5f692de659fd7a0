"""Quench time evolution, entropy time series, and the free-lattice oracle.

A quench starts from a particle localized on one site and evolves it with
the full chain Hamiltonian.  For delta = 0 on a ring the site amplitudes
are Bessel functions of the first kind, ``<j|psi(t)> = i^n J_n(2t)`` with
n the signed distance from the initial site, which gives an independent
closed-form reference for the finest-grained entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import CoarseGraining, uniform_block_entropy
from .model import EigenSystem, ModelParams, site_state
from .sampling import mean_stderr, phase_weights

#: Largest Bessel order the downward recurrence is tuned (and tested) for.
BESSEL_MAX_ORDER = 300
#: Largest argument the downward recurrence is tuned (and tested) for.
BESSEL_MAX_ARG = 100.0


@dataclass(frozen=True)
class QuenchSpec:
    """Quench protocol: initial site (1-based, default the middle of the
    lattice) and the times at which the entropy is sampled."""

    params: ModelParams
    times: np.ndarray
    initial_site: int | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a non-empty 1-D array")
        if times[0] < 0.0 or np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be non-negative and strictly ascending")
        object.__setattr__(self, "times", times)
        site = self.params.L // 2 if self.initial_site is None else self.initial_site
        if not 1 <= site <= self.params.L:
            raise ValueError(f"initial_site must lie in 1..{self.params.L}, got {site}")
        object.__setattr__(self, "initial_site", int(site))


@dataclass(frozen=True)
class EntropySeries:
    """Mean entropy against an abscissa (time, potential strength, or block
    size) with the standard error across phase realizations."""

    abscissa: np.ndarray
    values: np.ndarray
    spread: np.ndarray
    meta: dict = field(default_factory=dict)


def evolve(eig: EigenSystem, psi0: np.ndarray, t: float) -> np.ndarray:
    """Propagate psi0 to time t through the eigendecomposition."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    return evolve_many(eig, psi0, np.array([float(t)]))[0]


def evolve_many(eig: EigenSystem, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """States at all requested times, shape (n_times, L).

    The eigenbasis projection of psi0 is computed once; each time then
    costs a single matrix-vector product.
    """
    psi0 = np.asarray(psi0)
    if psi0.shape != (eig.L,):
        raise ValueError(f"state has shape {psi0.shape}, expected ({eig.L},)")
    coeff = eig.vectors.conj().T @ psi0
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), eig.energies))
    return (eig.vectors @ (phases * coeff).T).T


def quench_entropy_table(
    params: ModelParams,
    times: np.ndarray,
    m_list,
    *,
    n_phi: int = 100,
    seed: int = 0,
    basis_tag: str = "real",
    initial_site: int | None = None,
    momentum_order: str = "index",
):
    """Phase-averaged quench entropies for several block sizes at once.

    One diagonalization per phase realization serves every time and block
    size.  Returns ``{m: (mean, stderr)}`` with arrays over the time grid.
    """
    L = params.L
    psi0 = site_state(L, L // 2 if initial_site is None else initial_site)
    times = np.asarray(times, dtype=float)
    samples = {m: np.empty((n_phi, times.size)) for m in m_list}
    states = lambda eig: evolve_many(eig, psi0, times).T
    for r, weights in enumerate(phase_weights(params, n_phi, seed, states, (basis_tag,), momentum_order)):
        for m, vals in samples.items():
            vals[r] = uniform_block_entropy(weights[basis_tag], m)
    return {m: mean_stderr(vals) for m, vals in samples.items()}


def quench_entropy_series(
    spec: QuenchSpec,
    cg: CoarseGraining,
    *,
    n_phi: int = 100,
    seed: int = 0,
    momentum_order: str = "index",
) -> EntropySeries:
    """Phase-averaged entropy over time for one uniform block coarse-graining.

    ``cg`` must be contiguous blocks of one size, as built by
    :func:`obsent.entropy.make_block_partition`; other partitions raise
    ``ValueError``.  Momentum-space coarse-grainings see the evolved state in
    the plane-wave basis.
    """
    params = spec.params
    L = params.L
    if cg.L != L:
        raise ValueError(f"coarse-graining is over {cg.L} indices, lattice has {L}")
    m = cg.m
    if m is None or not np.array_equal(np.concatenate(cg.blocks), np.arange(L)):
        raise ValueError("quench_entropy_series needs contiguous blocks of one size")
    table = quench_entropy_table(
        params, spec.times, [m], n_phi=n_phi, seed=seed, basis_tag=cg.basis_tag,
        initial_site=spec.initial_site, momentum_order=momentum_order,
    )
    mean, spread = table[m]
    meta = {
        "L": L,
        "delta": params.delta,
        "m": m,
        "basis_tag": cg.basis_tag,
        "bc": params.bc,
        "n_phi": n_phi,
        "seed": seed,
        "initial_site": spec.initial_site,
    }
    return EntropySeries(abscissa=spec.times.copy(), values=mean, spread=spread, meta=meta)


def _bessel_sequence_raw(n_max: int, x: float) -> np.ndarray:
    """J_0(x)..J_n_max(x) by downward recurrence with sum-rule normalization.

    The recurrence starts well above both n_max and x so the dominant
    solution has decayed by the time the wanted orders are reached; the
    result is normalized with J_0 + 2 * sum_k J_{2k} = 1.  Intermediate
    values are rescaled before they can overflow.
    """
    if x == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    top = max(n_max, int(math.ceil(x))) + int(2.0 * math.sqrt(40.0 * max(n_max, x, 4.0))) + 40
    if top % 2:
        top += 1
    vals = np.zeros(top + 2)
    vals[top] = 1e-30
    for k in range(top, 0, -1):
        vals[k - 1] = (2.0 * k / x) * vals[k] - vals[k + 1]
        if abs(vals[k - 1]) > 1e250:
            vals[k - 1:] /= 1e250
    norm = 2.0 * vals[0::2].sum() - vals[0]
    return vals[: n_max + 1] / norm


def bessel_j_sequence(n_max: int, x: float) -> np.ndarray:
    """Orders 0..n_max of the Bessel function of the first kind at x >= 0."""
    if not 0 <= n_max <= BESSEL_MAX_ORDER:
        raise ValueError(f"order must lie in 0..{BESSEL_MAX_ORDER}, got {n_max}")
    if not 0.0 <= x <= BESSEL_MAX_ARG:
        raise ValueError(f"argument must lie in [0, {BESSEL_MAX_ARG}], got {x}")
    return _bessel_sequence_raw(n_max, x)


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for |n| <= BESSEL_MAX_ORDER, 0 <= x <= BESSEL_MAX_ARG.

    Negative orders use J_{-n}(x) = (-1)^n J_n(x).
    """
    order = abs(int(n))
    sign = -1.0 if (n < 0 and order % 2) else 1.0
    return sign * float(bessel_j_sequence(order, x)[order])


def bessel_reference_entropy(t: float, span: int) -> float:
    """Closed-form finest-graining quench entropy of the free ring.

    Sums the site probabilities ``p_n = J_n(2t)^2`` over the signed
    distances n = -span/2 .. span/2 - 1 from the initial site and returns
    their Shannon entropy (the literal log of a signed amplitude is read
    as the log of its modulus, which is the only reading consistent with
    an entropy of probabilities).  Grows as ln t + const once the
    wavefront spans many sites.  Raises when span is too small to capture
    the norm at this t.
    """
    if span < 2 or span % 2:
        raise ValueError(f"span must be a positive even integer, got {span}")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    half = span // 2
    j = bessel_j_sequence(half, 2.0 * t)
    p = j**2
    # orders 1..half-1 appear twice (+n and -n), order 0 once, order half once
    total = p[0] + 2.0 * p[1:half].sum() + p[half]
    if total < 1.0 - 1e-12:
        raise ValueError(
            f"span={span} captures only {total:.15f} of the norm at t={t}; increase span"
        )
    nz = p > 0.0
    plogp = np.where(nz, p * np.log(np.where(nz, p, 1.0)), 0.0)
    return float(max(0.0, -(plogp[0] + 2.0 * plogp[1:half].sum() + plogp[half])))
