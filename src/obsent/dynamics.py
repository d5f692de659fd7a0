"""Quench time evolution, quench entropy tables, and the free-lattice oracle.

A quench starts from a particle localized on one site and evolves it with
the full chain Hamiltonian.  For delta = 0 on a ring the site amplitudes
are Bessel functions of the first kind, ``<j|psi(t)> = i^n J_n(2t)`` with
n the signed distance from the initial site, which gives an independent
closed-form reference for the finest-grained entropy.  A quench table is
one :func:`obsent.sampling.phase_table` call on a :class:`Quench`, which
keeps each phase's entropies per time and holds no arrays between blocks.
"""

from __future__ import annotations

import math

import numpy as np

from .entropy import block_entropy
from .model import EigenSystem, ModelParams, chain_eigensystem, integer, real, site_state
from .sampling import chunk_size, phase_table

#: Largest Bessel order the downward recurrence is tuned (and tested) for.
BESSEL_MAX_ORDER = 300
#: Largest argument the downward recurrence is tuned (and tested) for.
BESSEL_MAX_ARG = 100.0


def _checked_times(times) -> np.ndarray:
    """``times`` as floats; they must form a non-empty 1-D grid of finite t >= 0."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not times.size or not np.all(np.isfinite(times) & (times >= 0.0)):
        raise ValueError(f"times must be a non-empty 1-D grid of finite t >= 0, got {np.array2string(times, threshold=8)}")
    return times


def evolve_many(eig: EigenSystem, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """States at all requested times, shape (n_times, L).

    The eigenbasis projection of psi0 is computed once; each time then
    costs a single matrix-vector product, all of them one complex product
    of V + 0i, copied into a fresh C-ordered array, with the phase factors.
    A stack of systems gives a (..., n_times, L) stack: the transposed view
    of the C-ordered (..., L, n_times) product.  Once V + 0i is copied the
    eigensystem is dropped, so a caller that hands it over, as
    :meth:`Quench.rows` does, frees V before the phase factors are
    allocated.  Times other than a non-empty 1-D grid of finite t >= 0 raise
    ``ValueError``, and an overflowing t * E raises ``FloatingPointError``.
    """
    psi0 = np.asarray(psi0)
    if psi0.shape != (eig.L,):
        raise ValueError(f"state has shape {psi0.shape}, expected ({eig.L},)")
    times = _checked_times(times)
    if not math.isfinite(float(times.max()) * float(np.abs(eig.energies).max(initial=0.0))):
        raise FloatingPointError(f"t * E overflows for t up to {times.max():g}")
    coeff = eig.vectors.conj().swapaxes(-1, -2) @ psi0
    vectors = eig.vectors.astype(complex, order="C")  # the operand numpy's cast would build for the product
    energies = eig.energies
    del eig
    phases = np.multiply(times[:, None], energies[..., None, :], dtype=complex)
    phases *= -1j
    np.exp(phases, out=phases)
    phases *= coeff[..., None, :]
    return np.matmul(vectors, phases.swapaxes(-1, -2)).swapaxes(-1, -2)


class Quench:
    """The states a quench table of size L measures: the particle on the
    1-based site ``initial_site`` (default the middle site, (L + 1) // 2),
    evolved to each of ``times``; their entropies are kept per time.  A block
    counts each realization's eigenvectors and (n_times, L) complex states;
    the eigenvectors are freed before the phase factors are allocated."""

    averaged = False

    def __init__(self, L: int, times, initial_site: int | None = None):
        L = integer(L, "L", 1)
        self.psi0 = site_state(L, (L + 1) // 2 if initial_site is None else integer(initial_site, "initial_site", 1, L))
        self.times = _checked_times(times)

    def blocks(self, L: int, bc: str) -> int:
        """Realizations solved together, each with its eigenvectors and states."""
        return chunk_size(L, L + 2 * self.times.size)

    def rows(self, diag: np.ndarray, bc: str) -> tuple:
        """(B, n_times, L) states and no flags."""
        # Only evolve_many holds the eigensystem, so it frees the vectors before
        # the phase factors exist.  That relies on CPython >= 3.11 moving a
        # call's arguments into the callee's frame.
        return evolve_many(chain_eigensystem(diag, periodic=bc != "open"), self.psi0, self.times), ()


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
    size; the states are those of :class:`Quench`.
    """
    tables, _ = phase_table([params], n_phi, seed, Quench(params.L, times, initial_site), m_list,
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
    n_max, x = integer(n_max, "order", 0, BESSEL_MAX_ORDER), real(x, "x")
    if not 0.0 <= x <= BESSEL_MAX_ARG:
        raise ValueError(f"x must lie in [0, {BESSEL_MAX_ARG}], got {x}")
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
    order = abs(integer(n, "order", -BESSEL_MAX_ORDER, BESSEL_MAX_ORDER))
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
    half, odd = divmod(integer(span, "span", 2), 2)
    if odd:
        raise ValueError(f"span must be a positive even integer, got {span}")
    if not real(t, "t") >= 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    p = bessel_j_sequence(half, 2.0 * t) ** 2
    # |n| over n = -half..half-1: half once, half-1..1 twice, 0 once
    p = np.concatenate([p[half:0:-1], p[:half]])
    total = p.sum()
    if total < 1.0 - 1e-12:
        raise ValueError(f"span={span} captures only {total:.15f} of the norm at t={t}; increase span")
    return float(block_entropy(p, 0.0))
