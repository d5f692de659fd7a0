"""Exact quench states for the oracle tests, in mpmath at 30 digits.

A chain is given by its double on-site energies, which are exact binary
numbers; the dense matrix (hopping -1, and for a ring the wrap bond -1
added between sites L and 1) is built here and diagonalized by
``mpmath.eigsy``.  Nothing comes from ``obsent``, so the package's LAPACK
and dense routes are compared with states whose error is far below double
rounding.
"""

import mpmath as mp

DIGITS = 30


def chain_matrix(diag, periodic):
    """The dense chain with on-site energies ``diag`` as an mpmath matrix."""
    L = len(diag)
    h = mp.zeros(L, L)
    for j, energy in enumerate(diag):
        h[j, j] = mp.mpf(float(energy))
    for j in range(L - 1):
        h[j, j + 1] = h[j + 1, j] = -1
    if periodic:
        h[0, L - 1] -= 1
        h[L - 1, 0] -= 1
    return h


def quench_weights(diag, periodic, site, times):
    """Site weights |<j|psi(t)>|^2 of the particle started on the 1-based
    ``site``, one list of L mpf values per time: psi(t) = V exp(-iEt) V^T psi0."""
    with mp.workdps(DIGITS):
        energies, vectors = mp.eigsy(chain_matrix(diag, periodic))
        L = len(diag)
        coeff = [vectors[site - 1, k] for k in range(L)]  # V^T psi0 is row `site` of V
        weights = []
        for t in times:
            phased = [mp.expj(-energies[k] * mp.mpf(float(t))) * coeff[k] for k in range(L)]
            amplitudes = [mp.fsum(vectors[j, k] * phased[k] for k in range(L)) for j in range(L)]
            weights.append([abs(a) ** 2 for a in amplitudes])
    return weights


def block_entropy(weights, m):
    """Observational entropy sum_i p_i (ln m - ln p_i) of the consecutive
    blocks of m sites, with p_i a block's summed weight and 0 ln 0 = 0."""
    with mp.workdps(DIGITS):
        total = mp.mpf(0)
        for start in range(0, len(weights), m):
            p = mp.fsum(weights[start:start + m])
            if p > 0:
                total += p * (mp.log(m) - mp.log(p))
    return total
