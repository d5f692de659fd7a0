"""Quench time evolution, quench entropy tables, and the free-lattice oracle.

A quench starts from a particle localized on one site and evolves it with
the full chain Hamiltonian.  For delta = 0 on a ring the site amplitudes
are Bessel functions of the first kind, ``<j|psi(t)> = i^n J_n(2t)`` with
n the signed distance from the initial site, which gives an independent
closed-form reference for the finest-grained entropy.  A quench table is
one :func:`obsent.sampling.phase_table` call that keeps each phase's
entropies per time.
"""

from __future__ import annotations

import math

import numpy as np

from .entropy import block_entropy
from .model import EigenSystem, ModelParams, site_state
from .sampling import phase_table

#: Largest Bessel order the downward recurrence is tuned (and tested) for.
BESSEL_MAX_ORDER = 300
#: Largest argument the downward recurrence is tuned (and tested) for.
BESSEL_MAX_ARG = 100.0


def evolve_many(eig: EigenSystem, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """States at all requested times, shape (n_times, L).

    The eigenbasis projection of psi0 is computed once; each time then
    costs a single matrix-vector product.  A stack of systems gives a
    (..., n_times, L) stack.  Negative times raise ``ValueError``, and an
    overflowing t * E raises ``FloatingPointError``.
    """
    psi0 = np.asarray(psi0)
    if psi0.shape != (eig.L,):
        raise ValueError(f"state has shape {psi0.shape}, expected ({eig.L},)")
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise ValueError(f"times must be >= 0, got {times.min()}")
    if not math.isfinite(float(times.max(initial=0.0)) * float(np.abs(eig.energies).max(initial=0.0))):
        raise FloatingPointError(f"t * E overflows for t up to {times.max():g}")
    coeff = eig.vectors.conj().swapaxes(-1, -2) @ psi0
    phases = -1j * (times[:, None] * eig.energies[..., None, :])
    np.exp(phases, out=phases)  # in place, like the product: these are a chunk's largest arrays
    phases *= coeff[..., None, :]
    return (eig.vectors @ phases.swapaxes(-1, -2)).swapaxes(-1, -2)


def quench_states(L: int, times, initial_site: int | None = None):
    """The states a quench table of size L measures: a function of a stack
    of eigensystems that evolves the particle on the 1-based site
    ``initial_site`` (default the middle of the lattice) to each of ``times``."""
    psi0 = site_state(L, L // 2 if initial_site is None else initial_site)
    times = np.asarray(times, dtype=float)
    return lambda eig: evolve_many(eig, psi0, times)


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
) -> dict:
    """Phase-averaged quench entropies for several block sizes at once:
    ``{m: (mean, stderr)}``, arrays over the time grid.

    One diagonalization per phase realization serves every time and block
    size.  The particle starts on the 1-based site ``initial_site`` (default
    the middle of the lattice).
    """
    tables, _ = phase_table([params], n_phi, seed, quench_states(params.L, times, initial_site), m_list,
                            (basis_tag,), momentum_order)
    return {m: stats for (m, _), stats in tables[0].items()}


def bessel_j_sequence(n_max: int, x: float) -> np.ndarray:
    """Orders 0..n_max of the Bessel function of the first kind at x >= 0.

    Downward recurrence with sum-rule normalization: the recurrence starts
    well above both n_max and x so the dominant solution has decayed by the
    time the wanted orders are reached; the result is normalized with
    J_0 + 2 * sum_k J_{2k} = 1.  Intermediate values are rescaled before
    they can overflow.
    """
    if not 0 <= n_max <= BESSEL_MAX_ORDER:
        raise ValueError(f"order must lie in 0..{BESSEL_MAX_ORDER}, got {n_max}")
    if not 0.0 <= x <= BESSEL_MAX_ARG:
        raise ValueError(f"argument must lie in [0, {BESSEL_MAX_ARG}], got {x}")
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
    p = bessel_j_sequence(half, 2.0 * t) ** 2
    # |n| over n = -half..half-1: half once, half-1..1 twice, 0 once
    p = np.concatenate([p[half:0:-1], p[:half]])
    total = p.sum()
    if total < 1.0 - 1e-12:
        raise ValueError(f"span={span} captures only {total:.15f} of the norm at t={t}; increase span")
    return float(block_entropy(p, 0.0))
