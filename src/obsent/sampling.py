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

from .model import eigendecompose, hamiltonian_stack, kinetic_index_order, momentum_basis, to_momentum

#: Memory budget of one chunk of Hamiltonians in :func:`phase_weights`.
CHUNK_BYTES = 256 * 1024


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


def chunk_size(L: int) -> int:
    """Phases diagonalized together: as many L x L float64 matrices as fit
    in :data:`CHUNK_BYTES`, at least one.  Depends on L only, so results
    never depend on how a grid is split across workers."""
    return max(1, CHUNK_BYTES // (8 * L * L))


def phase_weights(params, n_phi: int, seed: int, states, basis_tags, momentum_order: str = "index"):
    """Yield ``{basis_tag: |amplitude|^2}`` for one chunk of phase realizations at a time.

    The seeded phases are processed in chunks of :func:`chunk_size` (L):
    each chunk's Hamiltonians are built as one stack and diagonalized in one
    call, and ``states(eig)`` picks the (B, n, L) stack of states (one row
    each) to measure.  Momentum tags see those states in the plane-wave
    basis, sorted by kinetic energy when ``momentum_order`` is "kinetic".
    Every yielded array has shape (B, n, L); the chunks run through the
    phases in order.
    """
    L = params.L
    basis = momentum_basis(L) if "momentum" in basis_tags else None
    perm = kinetic_index_order(L) if momentum_order == "kinetic" else None
    phis = phase_sequence(seed, L, params.delta, n_phi)
    step = chunk_size(L)
    for start in range(0, n_phi, step):
        rows = states(eigendecompose(hamiltonian_stack(params, phis[start:start + step])))
        weights = {}
        if "real" in basis_tags:
            weights["real"] = np.abs(rows) ** 2
        if basis is not None:
            k_rows = to_momentum(rows, basis, axis=-1)
            if perm is not None:
                k_rows = k_rows[..., perm]
            weights["momentum"] = np.abs(k_rows) ** 2
        yield weights


def mean_stderr(samples: np.ndarray):
    """Mean over realizations (axis 0) and its standard error."""
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    if n == 1:
        return mean, np.zeros_like(mean)
    return mean, samples.std(axis=0, ddof=1) / math.sqrt(n)
