"""Deterministic phase sampling and the phase-realization engine.

The random phases for a given (seed, L, delta) come from a dedicated
``numpy`` substream keyed on the values themselves (the bit pattern of
delta, not its position in any sweep grid), so rearranging or splitting a
parameter grid can never change the realizations of an individual grid
point, and parallel workers need no shared RNG state.

:func:`phase_table` is the one loop over phase realizations and the one
reduction of their weights into averaged entropies that every eigenstate
and quench table runs through, and :class:`Window` the one selector of
eigenstates: call ``Window(count)(eig)`` for the ``count`` states nearest
zero energy, ``Window(count, "ground")(eig)`` for the lowest ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import BASIS_TAGS, uniform_block_entropy
from .model import (
    build_hamiltonian,
    chain_diagonals,
    chain_eigensystem,
    chain_eigenvalues,
    chain_eigenvectors,
    eigendecompose,
    eigenpair_errors,
    kinetic_index_order,
    to_momentum,
)

#: Memory budget of one chunk of eigenvector matrices, or of one chunk of
#: window rows, in :func:`phase_table`.
CHUNK_BYTES = 256 * 1024
#: Smallest spacing (in units of the hopping) between a selected level and
#: its neighbours for which inverse iteration is trusted.  Closer levels
#: make single eigenvectors solver-dependent at about 1e-15 / spacing.
GAP_MIN = 1e-4
#: Largest entry of ``(T - E) x`` and of ``X X^T - I`` accepted from inverse
#: iteration.
EIGENPAIR_TOL = 1e-10


def phase_sequence(seed: int, L: int, delta: float, n_phi: int) -> np.ndarray:
    """First n_phi potential phases, uniform on [0, 2*pi), from a generator
    seeded by (seed, L, bit pattern of delta)."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if n_phi < 1:
        raise ValueError(f"n_phi must be >= 1, got {n_phi}")
    delta_bits = int(np.float64(delta).view(np.uint64))
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(L), delta_bits]))
    return rng.uniform(0.0, 2.0 * math.pi, n_phi)


def chunk_size(L: int, n: int | None = None) -> int:
    """Phases processed together: as many (L, n) float64 arrays per phase as
    fit in :data:`CHUNK_BYTES`, at least one.  ``n`` defaults to L (full
    eigensystems); it is the window size for chunks of window rows.
    Depends on L and n only, so results never depend on how a grid is split
    across workers."""
    return max(1, CHUNK_BYTES // (8 * L * (L if n is None else n)))


@dataclass(frozen=True)
class Window:
    """Eigenstates an eigenstate table measures: ``count`` levels picked by
    ``selector``.  Calling it on an :class:`~obsent.model.EigenSystem` (or a
    stack) returns the (..., count, L) rows of those eigenvectors."""

    count: int
    selector: str = "mid"

    def __post_init__(self):
        if self.selector not in ("mid", "ground"):
            raise ValueError(f"selector must be 'mid' or 'ground', got {self.selector!r}")

    def indices(self, energies: np.ndarray) -> np.ndarray:
        """Spectrum positions of the selected eigenstates, shape (..., count).

        ``energies`` are ascending along the last axis.  "mid" takes the
        ``count`` levels nearest zero, ties in |E| broken toward the lower
        index (stable sort), in spectrum order; "ground" takes the ``count``
        lowest.
        """
        if self.count > energies.shape[-1]:
            raise ValueError(f"count={self.count} exceeds the {energies.shape[-1]} available states")
        if self.selector == "ground":
            return np.broadcast_to(np.arange(self.count), energies.shape[:-1] + (self.count,))
        order = np.argsort(np.abs(energies), axis=-1, kind="stable")
        return np.sort(order[..., :self.count], axis=-1)

    def margin(self, energies: np.ndarray) -> np.ndarray:
        """How far the first level left out lies beyond the last one picked,
        in the selection key (|E| for "mid", E for "ground"); inf when the
        window holds every level.  Shape (...,)."""
        if self.count == energies.shape[-1]:
            return np.full(energies.shape[:-1], np.inf)
        key = np.sort(np.abs(energies), axis=-1) if self.selector == "mid" else energies
        return key[..., self.count] - key[..., self.count - 1]

    def __call__(self, eig) -> np.ndarray:
        picked = self.indices(eig.energies)
        return np.take_along_axis(eig.vectors, picked[..., None, :], axis=-1).swapaxes(-1, -2)


def window_rows(params, phis: np.ndarray, window: Window, fallbacks=None) -> np.ndarray:
    """(B, n, L) rows of ``window`` for open chains at the phases ``phis``.

    Eigenvalues come from :func:`~obsent.model.chain_eigenvalues` of the
    chains' diagonals, and :func:`~obsent.model.chain_eigenvectors` finds
    the eigenvectors of all selected levels at once; unless a phase fell
    back, the result is its C-ordered working array.  A phase is redone on
    the full eigensystem, and counted by reason in the ``fallbacks``
    Counter if one is given, when a selected level lies within
    :data:`GAP_MIN` of a neighbour ("near_degenerate"), when the window
    edge is a tie within :data:`EIGENPAIR_TOL` so that rounding decides
    which level is picked ("window_tie"), or when its vectors miss
    :data:`EIGENPAIR_TOL` ("inaccurate").  The first two are decided from
    the eigenvalues and solved before the inverse iteration allocates its
    arrays, which then leaves those phases out, so that a full eigensystem
    and a block of lanes are never held at once.  Each row depends only on
    its own phase, not on the others in ``phis``.
    """
    diag = chain_diagonals(params, phis)
    energies = chain_eigenvalues(diag)
    picked = window.indices(energies)
    level = np.take_along_axis(energies, picked, axis=-1)
    with np.errstate(over="ignore"):  # a spacing beyond the float range is a wide gap
        spacing = np.diff(energies, axis=-1, prepend=-np.inf, append=np.inf)
        gap = np.minimum(np.take_along_axis(spacing, picked, axis=-1),
                         np.take_along_axis(spacing, picked + 1, axis=-1)).min(axis=-1)
        reason = np.select([gap < GAP_MIN, window.margin(energies) < EIGENPAIR_TOL],
                           ["near_degenerate", "window_tie"], "")
    solve = lambda p: window(chain_eigensystem(diag[p:p + 1]))[0]
    redo, rest = np.flatnonzero(reason), np.flatnonzero(reason == "")
    full = [solve(p) for p in redo]
    rows = chain_eigenvectors(diag[rest], level[rest])
    error = np.maximum(*eigenpair_errors(diag[rest], level[rest], rows))
    for i in np.flatnonzero(~(error <= EIGENPAIR_TOL)):
        reason[rest[i]] = "inaccurate"
        rows[i] = solve(rest[i])
    if redo.size:  # the phases solved in full go back to their places
        rows, found = np.empty((len(diag),) + rows.shape[1:]), rows
        rows[rest] = found
        for p, full_rows in zip(redo, full):
            rows[p] = full_rows
    if fallbacks is not None:
        fallbacks.update(reason[reason != ""].tolist())
    return rows


def phase_table(params, n_phi: int, seed: int, states, m_list, basis_tags, momentum_order: str = "index",
                fallbacks=None):
    """Phase-averaged entropies ``{(m, basis_tag): (mean, stderr)}`` under
    size-m contiguous blocks: the one loop over phase realizations, and the
    one reduction of their weights, that every eigenstate and quench table
    runs through.

    ``states`` picks the (B, n, L) stack of states (one row each) to measure
    in a chunk of B phases.  It is either a :class:`Window` of eigenstates,
    whose n entropies are averaged within each phase, or a function of the
    chunk's stacked :class:`~obsent.model.EigenSystem`, whose n entropies
    per phase are kept (a quench's times), so that the means and standard
    errors over phases have shape (n,).  A window of open chains runs on
    eigenvalues plus inverse iteration (see :func:`window_rows`, which
    counts its fallbacks in ``fallbacks``) in blocks of
    ``max(chunk_size(L, n), L // n)`` phases, so that at least L lanes share
    each sweep; its pivots and vectors then take up to 2*8*L**2 bytes, as
    much as one full eigensystem of a fallback.  Everything else
    diagonalizes :func:`chunk_size` (L) phases at a time, open chains
    through :func:`~obsent.model.chain_eigensystem` and periodic ones as
    dense Hamiltonians.  Either way the weights of one basis at a time are
    formed and reduced in chunks of :func:`chunk_size` phases, and a block
    is released before the next one is built.  Momentum tags see the states
    in the plane-wave basis, sorted by kinetic energy when
    ``momentum_order`` is "kinetic".  Numerical errors name the failing
    phase indices.
    """
    if not set(basis_tags) <= set(BASIS_TAGS):
        raise ValueError(f"basis tags must be among {BASIS_TAGS}, got {tuple(basis_tags)}")
    L, window = params.L, isinstance(states, Window)
    perm = kinetic_index_order(L) if momentum_order == "kinetic" else slice(None)
    phis = phase_sequence(seed, L, params.delta, n_phi)
    windowed = window and params.bc == "open"
    step = chunk_size(L, states.count) if windowed else chunk_size(L)
    block = max(step, L // states.count) if windowed else step
    samples = {(m, b): [] for m in m_list for b in basis_tags}
    for start in range(0, n_phi, block):
        phases = phis[start:start + block]
        try:
            if windowed:
                rows = window_rows(params, phases, states, fallbacks)
            elif params.bc == "open":
                rows = states(chain_eigensystem(chain_diagonals(params, phases)))
            else:
                rows = states(eigendecompose(build_hamiltonian(params, phases)))
        except (np.linalg.LinAlgError, ValueError, FloatingPointError) as exc:
            raise type(exc)(f"phase index {start}-{start + len(phases) - 1}: {exc}") from exc
        for chunk in range(0, len(rows), step):
            part = rows[chunk:chunk + step]
            for b in basis_tags:
                weights = np.abs(part if b == "real" else to_momentum(part, axis=-1)[..., perm]) ** 2
                for m in m_list:
                    entropy = uniform_block_entropy(weights, m)
                    samples[(m, b)].append(entropy.mean(axis=-1) if window else entropy)
        rows = part = weights = None  # the last chunk's view and weights would keep the block alive
    return {key: mean_stderr(np.concatenate(vals)) for key, vals in samples.items()}


def mean_stderr(samples: np.ndarray):
    """Mean over realizations (axis 0) and its standard error."""
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    if n == 1:
        return mean, np.zeros_like(mean)
    return mean, samples.std(axis=0, ddof=1) / math.sqrt(n)
