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
entropies that every eigenstate and quench table runs through; an error
of :data:`NUMERICAL_ERRORS` raised in it names the size, deltas and phase
indices of the failing block.  Each kind of state owns its solve route:
``blocks(L, bc)`` gives the realizations solved together, ``rows(diag,
bc)`` a block's (B, n, L) rows and its chains' flags, and
``averaged`` whether a realization's n entropies are averaged or kept;
:func:`phase_table` sizes its reduction chunks from the rows it receives.
:class:`Window` selects eigenstates by one stable ranking of the spectrum,
:class:`~obsent.dynamics.Quench` evolves a particle.
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
    eigenpair_errors,
    integer,
    kinetic_index_order,
    to_momentum,
)

#: Memory budget of the arrays one block holds per phase realization: the
#: eigensystems and states a block solves, and the rows a chunk reduces.
CHUNK_BYTES = 256 * 1024
#: Smallest spacing (in units of the hopping) between a selected level and
#: its neighbours that leaves a window unflagged.  Closer levels make single
#: eigenvectors solver-dependent at about 1e-15 / spacing, on every route.
GAP_MIN = 1e-4
#: Largest entry of ``(T - E) x`` and of ``X X^T - I`` accepted from inverse
#: iteration.
EIGENPAIR_TOL = 1e-10
#: The errors a numerical failure raises; a run ends with exit 3 on them.
NUMERICAL_ERRORS = (np.linalg.LinAlgError, ValueError, FloatingPointError)
#: How a :class:`Window` ranks levels, and how momentum indices are ordered.
SELECTORS, MOMENTUM_ORDERS = ("mid", "ground"), ("index", "kinetic")


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
    seed, L, n_phi = integer(seed, "seed", 0), integer(L, "L", 2), integer(n_phi, "n_phi", 1)
    s0, s1, i0, i1 = _seed_words([seed, L, int(np.float64(delta).view(np.uint64))])
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128  # pcg_setseq_128_srandom_r
    phases = []
    for _ in range(n_phi):
        state = (state * _PCG_MULT + inc) & _MASK128
        value, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        value = (value >> rot | value << (64 - rot)) & _MASK64
        phases.append(2.0 * math.pi * ((value >> 11) * 2.0**-53))
    return np.array(phases)


def chunk_size(L: int, n: int) -> int:
    """Phases processed together: as many (n, L) float64 arrays per phase as
    fit in :data:`CHUNK_BYTES`, at least one; n = L for a full eigensystem.
    Depends on L and n only, so results never depend on how a grid is split
    across workers."""
    return max(1, CHUNK_BYTES // (8 * L * n))


@dataclass(frozen=True)
class Window:
    """The one selector of eigenstates: ``Window(count)`` picks the ``count``
    levels nearest zero energy, ``Window(count, "ground")`` the lowest ones,
    by one ranking rule (:meth:`select`); called on an EigenSystem (or a
    stack) it returns the (..., count, L) rows of those eigenvectors.  Open
    chains run on :func:`window_rows` in blocks of at least L lanes, whose
    pivots and vectors take up to 2*8*L**2 bytes; rings are diagonalized
    densely.  Both flag a window whose levels nearly touch their neighbours
    by one rule, :func:`_gap_flags`."""

    count: int
    selector: str = "mid"
    averaged = True

    def __post_init__(self):
        if self.selector not in SELECTORS:
            raise ValueError(f"selector must be {' or '.join(map(repr, SELECTORS))}, got {self.selector!r}")
        object.__setattr__(self, "count", integer(self.count, "count", 1))

    def select(self, energies: np.ndarray) -> np.ndarray:
        """Spectrum positions (..., count) of the levels picked from ascending
        ``energies``, in spectrum order.  One stable sort ranks the levels by
        |E| ("mid") or E ("ground"), ties to the lower index, and picks the
        first ``count``; this ranking alone decides a window, ties included."""
        if self.count > energies.shape[-1]:
            raise ValueError(f"count={self.count} exceeds the {energies.shape[-1]} available states")
        key = np.abs(energies) if self.selector == "mid" else energies
        return np.sort(np.argsort(key, axis=-1, kind="stable")[..., :self.count], axis=-1)

    def __call__(self, eig) -> np.ndarray:
        picked = self.select(eig.energies)
        return np.take_along_axis(eig.vectors, picked[..., None, :], axis=-1).swapaxes(-1, -2)

    def blocks(self, L: int, bc: str) -> int:
        """Realizations solved together; at least L lanes on open chains."""
        return chunk_size(L, L) if bc != "open" else max(chunk_size(L, self.count), L // self.count)

    def rows(self, diag: np.ndarray, bc: str) -> tuple:
        """(B, count, L) rows and each chain's flag ("" for none)."""
        if bc == "open":
            return window_rows(diag, self)
        eig = chain_eigensystem(diag, periodic=True)
        return self(eig), _gap_flags(eig.energies, self.select(eig.energies)).tolist()


def _gap_flags(energies: np.ndarray, picked: np.ndarray) -> np.ndarray:
    """Per chain, "near_degenerate" where a level at the spectrum positions
    ``picked`` (..., n) of ascending ``energies`` (..., L) lies within
    :data:`GAP_MIN` of a neighbour, else ""."""
    with np.errstate(over="ignore"):  # a spacing beyond the float range is a wide gap
        spacing = np.diff(energies, axis=-1, prepend=-np.inf, append=np.inf)
        gap = np.minimum(np.take_along_axis(spacing, picked, axis=-1),
                         np.take_along_axis(spacing, picked + 1, axis=-1)).min(axis=-1)
    return np.where(gap < GAP_MIN, "near_degenerate", "")


def window_rows(diag: np.ndarray, window: Window) -> tuple:
    """(B, n, L) rows of ``window`` for the B open chains whose on-site
    energies are the rows of ``diag`` (B, L), and the B chains' flags, ""
    where a chain has none.

    Eigenvalues come from :func:`~obsent.model.chain_eigenvalues`,
    :meth:`Window.select` picks levels from them (a tie included), and
    :func:`~obsent.model.chain_eigenvectors` finds the eigenvectors of all
    selected levels at once; the rows are its C-ordered working array.  A
    chain whose vectors miss :data:`EIGENPAIR_TOL` is flagged "inaccurate"
    and its rows are redone on its full eigensystem, the one dense route.
    A chain with a selected level within :data:`GAP_MIN` of a neighbour is
    flagged "near_degenerate" (see :func:`_gap_flags`) and keeps its rows,
    unless it is also "inaccurate".  Each row depends only on its own chain,
    not on the others in ``diag``.
    """
    energies = chain_eigenvalues(diag)
    picked = window.select(energies)
    level, flags = np.take_along_axis(energies, picked, axis=-1), _gap_flags(energies, picked)
    del energies, picked  # not needed beside the lanes, a block's largest arrays
    rows = chain_eigenvectors(diag, level)
    error = np.maximum(*eigenpair_errors(diag, level, rows))
    for p in np.flatnonzero(~(error <= EIGENPAIR_TOL)):
        flags[p] = "inaccurate"
        rows[p] = window(chain_eigensystem(diag[p:p + 1]))[0]
    return rows, flags.tolist()


def phase_table(grid, n_phi: int, seed: int, states, m_list, basis_tags, momentum_order: str = "index"):
    """Phase-averaged entropies ``{(m, basis_tag): (mean, stderr)}`` under
    size-m contiguous blocks, one table per chain in ``grid``, and the count
    of flagged realizations by flag.

    ``grid`` holds chains of one L and boundary condition, typically the
    deltas of one size.  Their ``n_phi`` phases each, in grid order, are
    solved in shared blocks; since each chain, lane and row is computed on
    its own, a table does not depend on which chains share ``grid``.
    ``states`` is a :class:`Window` or a :class:`~obsent.dynamics.Quench`
    (see the module docstring); a quench keeps its n times, so its means and
    standard errors have shape (n,).  The weights of one basis at a time are
    allocated and reduced in chunks of as many realizations' (n, L) rows as
    :func:`chunk_size` allows, and a block is released before the next one
    is built.  Momentum tags see the states in the plane-wave basis, sorted
    by kinetic energy when ``momentum_order`` is "kinetic".  Numerical errors
    name L, each delta of the failing block and its phase indices.
    """
    if not set(basis_tags) <= set(BASIS_TAGS):
        raise ValueError(f"basis tags must be among {BASIS_TAGS}, got {tuple(basis_tags)}")
    for name, values in (("m_list", list(m_list)), ("basis_tags", list(basis_tags))):
        if len(set(values)) < len(values):  # a repeat would append its samples twice to one list
            raise ValueError(f"{name}={values} repeats a value")
    if len({(params.L, params.bc) for params in grid}) != 1:
        raise ValueError("a grid holds chains of one L and one boundary condition")
    if momentum_order not in MOMENTUM_ORDERS:
        raise ValueError(f"momentum_order must be {' or '.join(map(repr, MOMENTUM_ORDERS))}, "
                         f"got {momentum_order!r}")
    L, bc, n_phi = grid[0].L, grid[0].bc, integer(n_phi, "n_phi", 1)
    perm = kinetic_index_order(L) if momentum_order == "kinetic" else slice(None)
    phis = [phase_sequence(seed, L, params.delta, n_phi) for params in grid]
    block, total = states.blocks(L, bc), len(grid) * n_phi
    tables, samples, flags = [], {(m, b): [] for m in m_list for b in basis_tags}, Counter()
    for start in range(0, total, block):
        stop = min(start + block, total)
        # (grid index, first phase, end phase) of each chain the block holds
        parts = [(g, max(start - g * n_phi, 0), min(stop - g * n_phi, n_phi))
                 for g in range(start // n_phi, (stop - 1) // n_phi + 1)]
        try:
            rows, flagged = states.rows(np.concatenate([chain_diagonals(grid[g], phis[g][lo:hi])
                                                       for g, lo, hi in parts]), bc)
            flags.update(filter(None, flagged))
            step = chunk_size(L, rows.shape[-2])
            for chunk in range(0, len(rows), step):
                part = rows[chunk:chunk + step]
                for b in basis_tags:
                    amplitudes = part if b == "real" else to_momentum(part, axis=-1)[..., perm]
                    weights = np.abs(amplitudes)
                    np.square(weights, out=weights)
                    for m in m_list:
                        entropy = uniform_block_entropy(weights, m)
                        samples[(m, b)].append(entropy.mean(axis=-1) if states.averaged else entropy)
        except NUMERICAL_ERRORS as exc:
            where = "; ".join(f"delta={grid[g].delta}, phase index {lo}-{hi - 1}" for g, lo, hi in parts)
            raise type(exc)(f"L={L}, {where}: {exc}") from exc
        rows = part = amplitudes = weights = None  # the last chunk's arrays would keep the block alive
        for _ in range(len(tables), stop // n_phi):  # the chains whose realizations are all in
            tables.append({})
            for key, vals in samples.items():  # one key at a time, each list released as it is joined
                vals = np.concatenate(vals)
                tables[-1][key] = mean_stderr(vals[:n_phi])
                samples[key] = [vals[n_phi:].copy()]  # a view would keep the joined array
            vals = None  # and so would the name
    return tables, flags


def mean_stderr(samples: np.ndarray):
    """Mean over realizations (axis 0) and its standard error."""
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    if n == 1:
        return mean, np.zeros_like(mean)
    return mean, samples.std(axis=0, ddof=1) / math.sqrt(n)
