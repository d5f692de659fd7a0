"""Deterministic phase sampling and the phase-realization engine.

The random phases for a given (seed, L, delta) come from a dedicated
``numpy`` substream keyed on the values themselves (the bit pattern of
delta, not its position in any sweep grid), so rearranging or splitting a
parameter grid can never change the realizations of an individual grid
point, and parallel workers need no shared RNG state.

:func:`phase_weights` is the one loop over phase realizations that every
eigenstate and quench average runs through.
"""

from __future__ import annotations

import math

import numpy as np

from .model import build_hamiltonian, eigendecompose, kinetic_index_order, momentum_basis, to_momentum


def phase_stream(seed: int, L: int, delta: float) -> np.random.Generator:
    """Generator seeded by (seed, L, bit pattern of delta)."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    delta_bits = int(np.float64(delta).view(np.uint64))
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(L), delta_bits]))


def phase_sequence(seed: int, L: int, delta: float, n_phi: int) -> np.ndarray:
    """First n_phi potential phases, uniform on [0, 2*pi)."""
    if n_phi < 1:
        raise ValueError(f"n_phi must be >= 1, got {n_phi}")
    return phase_stream(seed, L, delta).uniform(0.0, 2.0 * math.pi, n_phi)


def phase_weights(params, n_phi: int, seed: int, states, basis_tags, momentum_order: str = "index"):
    """Yield ``{basis_tag: |amplitude|^2}`` for one phase realization at a time.

    Each seeded phase is built and diagonalized once; ``states(eig)`` picks
    the (L, n) column stack to measure.  Momentum tags see that stack in the
    plane-wave basis, sorted by kinetic energy when ``momentum_order`` is
    "kinetic".  Every yielded array has shape (n, L).
    """
    L = params.L
    basis = momentum_basis(L) if "momentum" in basis_tags else None
    perm = kinetic_index_order(L) if momentum_order == "kinetic" else None
    for phi in phase_sequence(seed, L, params.delta, n_phi):
        cols = states(eigendecompose(build_hamiltonian(params.with_phase(phi))))
        weights = {}
        if "real" in basis_tags:
            weights["real"] = (np.abs(cols) ** 2).T
        if basis is not None:
            k_cols = to_momentum(cols, basis)
            if perm is not None:
                k_cols = k_cols[perm, :]
            weights["momentum"] = (np.abs(k_cols) ** 2).T
        yield weights


def mean_stderr(samples: np.ndarray):
    """Mean over realizations (axis 0) and its standard error."""
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    if n == 1:
        return mean, np.zeros_like(mean)
    return mean, samples.std(axis=0, ddof=1) / math.sqrt(n)
