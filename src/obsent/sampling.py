"""Deterministic phase sampling and the phase-realization engine.

The random phases for a given (seed, L, delta) come from a dedicated
substream keyed on the values themselves (the bit pattern of delta, not
its position in any sweep grid), so rearranging or splitting a parameter
grid can never change the realizations of an individual grid point, and
parallel workers need no shared RNG state.  The package computes this
stream itself (see :func:`phase_sequence`); it does not import
``numpy.random``.

:func:`phase_table` is the one loop over the (delta, phase) realizations
of one size and the one reduction of their weights into averaged
entropies that every eigenstate and quench table runs through, and
:class:`Window` the one selector of eigenstates: call ``Window(count)(eig)``
for the ``count`` states nearest zero energy, ``Window(count, "ground")(eig)``
for the lowest ones.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .entropy import BASIS_TAGS, uniform_block_entropy
from .model import (
    chain_diagonals,
    chain_eigensystem,
    chain_eigenvalues,
    chain_eigenvectors,
    chain_matrices,
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


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's hash of one 32-bit word, whose constant advances by
    ``mult`` at each call."""
    def hashed(value):
        nonlocal const
        value = (value ^ const) * (const := const * mult & _MASK32) & _MASK32
        return value ^ value >> 16
    return hashed


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return value ^ value >> 16


def _seed_words(entropy) -> list:
    """numpy's ``SeedSequence(entropy).generate_state(4, uint64)``: the
    non-negative ints split into little-endian 32-bit words, hashed into a
    pool of four words, and the pool hashed out into four 64-bit words."""
    words = [n >> s & _MASK32 for n in entropy for s in range(0, max(n.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = _hasher(0x8B51F9DD, 0x58F38DED)
    state = [out(pool[i % 4]) for i in range(8)]
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def phase_sequence(seed: int, L: int, delta: float, n_phi: int) -> np.ndarray:
    """First n_phi potential phases, uniform on [0, 2*pi), keyed by
    (seed, L, bit pattern of delta).

    The stream is numpy's ``default_rng(SeedSequence([seed, L, bits])).uniform(0, 2*pi, n_phi)``,
    computed here in plain integers so that it depends on this package
    alone: the SeedSequence state seeds PCG64 (XSL-RR output, O'Neill 2014),
    and each phase is 2*pi times the top 53 bits of one 64-bit output.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if n_phi < 1:
        raise ValueError(f"n_phi must be >= 1, got {n_phi}")
    delta_bits = int(np.float64(delta).view(np.uint64))
    s0, s1, i0, i1 = _seed_words([int(seed), int(L), delta_bits])
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128  # pcg_setseq_128_srandom_r
    phases = []
    for _ in range(n_phi):
        state = (state * _PCG_MULT + inc) & _MASK128
        value, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        value = (value >> rot | value << (64 - rot)) & _MASK64
        phases.append(2.0 * math.pi * ((value >> 11) * 2.0**-53))
    return np.array(phases)


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


def window_rows(diag: np.ndarray, window: Window) -> tuple:
    """(B, n, L) rows of ``window`` for the B open chains whose on-site
    energies are the rows of ``diag`` (B, L), and the B reasons they fell
    back, "" where a chain did not.

    Eigenvalues come from :func:`~obsent.model.chain_eigenvalues`, and
    :func:`~obsent.model.chain_eigenvectors` finds the eigenvectors of all
    selected levels at once; unless a chain fell back, the rows are its
    C-ordered working array.  A chain is redone on the full eigensystem
    when a selected level lies within :data:`GAP_MIN` of a neighbour
    (reason "near_degenerate"), when the window edge is a tie within
    :data:`EIGENPAIR_TOL` so that rounding decides which level is picked
    ("window_tie"), or when its vectors miss :data:`EIGENPAIR_TOL`
    ("inaccurate").  The first two are decided from
    the eigenvalues and solved before the inverse iteration allocates its
    arrays, which then leaves those chains out, so that a full eigensystem
    and a block of lanes are never held at once.  Each row depends only on
    its own chain, not on the others in ``diag``.
    """
    energies = chain_eigenvalues(diag)
    picked = window.indices(energies)
    level = np.take_along_axis(energies, picked, axis=-1)
    with np.errstate(over="ignore"):  # a spacing beyond the float range is a wide gap
        spacing = np.diff(energies, axis=-1, prepend=-np.inf, append=np.inf)
        gap = np.minimum(np.take_along_axis(spacing, picked, axis=-1),
                         np.take_along_axis(spacing, picked + 1, axis=-1)).min(axis=-1)
        reason = np.select([gap < GAP_MIN, window.margin(energies) < EIGENPAIR_TOL],
                           ["near_degenerate", "window_tie"], "")
    del energies, spacing  # not needed beside the lanes, a block's largest arrays
    solve = lambda p: window(chain_eigensystem(diag[p:p + 1]))[0]
    redo, rest = np.flatnonzero(reason), np.flatnonzero(reason == "")
    full = [solve(p) for p in redo]
    kept, level = (diag[rest], level[rest]) if redo.size else (diag, level)
    rows = chain_eigenvectors(kept, level)
    error = np.maximum(*eigenpair_errors(kept, level, rows))
    for i in np.flatnonzero(~(error <= EIGENPAIR_TOL)):
        reason[rest[i]] = "inaccurate"
        rows[i] = solve(rest[i])
    if redo.size:  # the chains solved in full go back to their places
        rows, found = np.empty((len(diag),) + rows.shape[1:]), rows
        rows[rest] = found
        for p, full_rows in zip(redo, full):
            rows[p] = full_rows
    return rows, reason.tolist()


def phase_table(grid, n_phi: int, seed: int, states, m_list, basis_tags, momentum_order: str = "index"):
    """Phase-averaged entropies ``{(m, basis_tag): (mean, stderr)}`` under
    size-m contiguous blocks, one table per chain in ``grid``, and the count
    of dense fallbacks by reason: the one loop over phase realizations, and
    the one reduction of their weights, that every eigenstate and quench
    table runs through.

    ``grid`` holds chains of one L and boundary condition, typically the
    deltas of one size.  Their ``n_phi`` phases each, in grid order, are
    solved in shared blocks; since each chain, lane and row is computed on
    its own, a table does not depend on which chains share ``grid``.
    ``states`` picks the (B, n, L) stack of states (one row each) to measure
    in a chunk of B realizations.  It is either a :class:`Window` of
    eigenstates, whose n entropies are averaged within each realization, or
    a function of the chunk's stacked :class:`~obsent.model.EigenSystem`,
    whose n entropies per realization are kept (a quench's times), so that
    the means and standard errors over phases have shape (n,).  A window of
    open chains runs on eigenvalues plus inverse iteration (see
    :func:`window_rows`) in blocks of ``max(chunk_size(L, n), L // n)``
    realizations, so that at least L lanes share each sweep; its pivots and
    vectors then take up to 2*8*L**2 bytes, as much as one full eigensystem
    of a fallback.
    Everything else diagonalizes :func:`chunk_size` (L) realizations at a
    time, open chains through :func:`~obsent.model.chain_eigensystem` and
    periodic ones as dense matrices.  Either way the weights of one basis
    at a time are formed and reduced in chunks of :func:`chunk_size`
    realizations, and a block is released before the next one is built.
    Momentum tags see the states in the plane-wave basis, sorted by kinetic
    energy when ``momentum_order`` is "kinetic".  Numerical errors name
    each delta of the failing block and its phase indices.
    """
    if not set(basis_tags) <= set(BASIS_TAGS):
        raise ValueError(f"basis tags must be among {BASIS_TAGS}, got {tuple(basis_tags)}")
    if len({(params.L, params.bc) for params in grid}) != 1:
        raise ValueError("a grid holds chains of one L and one boundary condition")
    L, bc, window = grid[0].L, grid[0].bc, isinstance(states, Window)
    perm = kinetic_index_order(L) if momentum_order == "kinetic" else slice(None)
    phis = [phase_sequence(seed, L, params.delta, n_phi) for params in grid]
    windowed = window and bc == "open"
    step = chunk_size(L, states.count) if windowed else chunk_size(L)
    block = max(step, L // states.count) if windowed else step
    if windowed:
        solve = lambda diag: window_rows(diag, states)
    elif bc == "open":
        solve = lambda diag: (states(chain_eigensystem(diag)), ())
    else:
        solve = lambda diag: (states(eigendecompose(chain_matrices(diag, periodic=True))), ())
    tables, samples, fallbacks = [], {(m, b): [] for m in m_list for b in basis_tags}, Counter()
    total = len(grid) * n_phi
    for start in range(0, total, block):
        stop = min(start + block, total)
        # (grid index, first phase, end phase) of each chain the block holds
        parts = [(g, max(start - g * n_phi, 0), min(stop - g * n_phi, n_phi))
                 for g in range(start // n_phi, (stop - 1) // n_phi + 1)]
        try:
            rows, reason = solve(np.concatenate([chain_diagonals(grid[g], phis[g][lo:hi])
                                                 for g, lo, hi in parts]))
            fallbacks.update(filter(None, reason))
            for chunk in range(0, len(rows), step):
                part = rows[chunk:chunk + step]
                for b in basis_tags:
                    weights = np.abs(part if b == "real" else to_momentum(part, axis=-1)[..., perm])
                    np.square(weights, out=weights)
                    for m in m_list:
                        entropy = uniform_block_entropy(weights, m)
                        samples[(m, b)].append(entropy.mean(axis=-1) if window else entropy)
        except (np.linalg.LinAlgError, ValueError, FloatingPointError) as exc:
            where = "; ".join(f"delta={grid[g].delta}, phase index {lo}-{hi - 1}" for g, lo, hi in parts)
            raise type(exc)(f"{where}: {exc}") from exc
        rows = part = weights = None  # the last chunk's view and weights would keep the block alive
        for _ in range(len(tables), stop // n_phi):  # the chains whose realizations are all in
            tables.append({})
            for key, vals in samples.items():  # one key at a time, each list released as it is joined
                vals = np.concatenate(vals)
                tables[-1][key] = mean_stderr(vals[:n_phi])
                samples[key] = [vals[n_phi:].copy()]  # a view would keep the joined array
            vals = None  # and so would the name
    return tables, fallbacks


def mean_stderr(samples: np.ndarray):
    """Mean over realizations (axis 0) and its standard error."""
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    if n == 1:
        return mean, np.zeros_like(mean)
    return mean, samples.std(axis=0, ddof=1) / math.sqrt(n)
