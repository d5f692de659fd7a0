"""Coarse-graining partitions, macrostate probabilities, and entropy functionals.

A coarse-graining is an ordered partition of the basis indices 0..L-1 into
blocks; each block is a macrostate whose volume is the block size.  The
observational entropy of a probability vector p over macrostates with
volumes V is ``-sum p ln p + sum p ln V`` with the convention 0 ln 0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: |sum(p) - 1| up to this is accepted silently.
_PROB_SUM_TOL = 1e-10
#: beyond _PROB_SUM_TOL but within this the probabilities are renormalized.
_PROB_SUM_RENORM = 1e-8

BASIS_TAGS = ("real", "momentum")


@dataclass(frozen=True, eq=False)
class CoarseGraining:
    """Ordered partition of basis indices into macrostate blocks.

    ``m`` is the common block size for uniform partitions and None
    otherwise.  Build instances through :func:`make_block_partition` or
    :func:`partition_from_blocks`, which validate that the blocks are
    disjoint and cover 0..L-1.
    """

    blocks: tuple[np.ndarray, ...]
    basis_tag: str
    m: int | None = None

    @property
    def volumes(self) -> np.ndarray:
        return np.array([b.size for b in self.blocks], dtype=int)

    @property
    def L(self) -> int:
        return int(sum(b.size for b in self.blocks))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class MacrostateDistribution:
    """Probabilities and volumes of the macrostates of one coarse-graining."""

    probs: np.ndarray
    volumes: np.ndarray

    def __post_init__(self):
        if self.probs.shape != self.volumes.shape:
            raise ValueError("probs and volumes must have equal length")
        if np.any(self.volumes < 1):
            raise ValueError("macrostate volumes must be >= 1")


def partition_from_blocks(blocks, basis_tag: str = "real") -> CoarseGraining:
    """Validate an explicit list of index blocks and wrap it."""
    if basis_tag not in BASIS_TAGS:
        raise ValueError(f"basis_tag must be one of {BASIS_TAGS}, got {basis_tag!r}")
    arrs = tuple(np.asarray(b, dtype=int) for b in blocks)
    if not arrs or any(a.size == 0 for a in arrs):
        raise ValueError("blocks must be non-empty")
    joined = np.concatenate(arrs)
    L = joined.size
    if not np.array_equal(np.sort(joined), np.arange(L)):
        raise ValueError("blocks must partition 0..L-1 exactly")
    sizes = {a.size for a in arrs}
    m = sizes.pop() if len(sizes) == 1 else None
    return CoarseGraining(blocks=arrs, basis_tag=basis_tag, m=m)


def make_block_partition(L: int, m: int, basis_tag: str = "real") -> CoarseGraining:
    """Uniform partition of 0..L-1 into L/m contiguous blocks of size m.

    m = 1 is the finest coarse-graining (all volumes 1, observational
    entropy reduces to the Shannon entropy) and m = L the roughest (a
    single identity block with entropy ln L).  m must divide L.
    """
    if basis_tag not in BASIS_TAGS:
        raise ValueError(f"basis_tag must be one of {BASIS_TAGS}, got {basis_tag!r}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if L % m != 0:
        raise ValueError(f"m must divide L: got L={L}, m={m}")
    blocks = tuple(np.arange(eta * m, (eta + 1) * m) for eta in range(L // m))
    return CoarseGraining(blocks=blocks, basis_tag=basis_tag, m=m)


def is_rougher(c1: CoarseGraining, c2: CoarseGraining) -> bool:
    """True iff every block of c1 is a union of blocks of c2.

    This is the partial order of coarse-grainings: c1 rougher-than c2
    implies the entropy under c1 is at least the entropy under c2, for
    every state.  Both arguments must share L and basis_tag.
    """
    if c1.basis_tag != c2.basis_tag:
        raise ValueError("coarse-grainings live in different bases")
    L = c1.L
    if L != c2.L:
        raise ValueError("coarse-grainings have different L")
    owner = np.empty(L, dtype=int)
    for i, blk in enumerate(c1.blocks):
        owner[blk] = i
    return all(np.all(owner[blk] == owner[blk[0]]) for blk in c2.blocks)


def _checked_probs(p: np.ndarray) -> np.ndarray:
    """Clip accumulated probabilities into [0, 1] and fix tiny norm drift."""
    drift = abs(p.sum() - 1.0)
    if drift > _PROB_SUM_RENORM:
        raise ValueError(f"probabilities sum to 1 only within {drift:.3e}; state not normalized?")
    p = np.clip(p, 0.0, 1.0)
    if drift <= _PROB_SUM_TOL:
        return p
    return p / p.sum()


def macrostate_probs(state: np.ndarray, cg: CoarseGraining) -> MacrostateDistribution:
    """Probability of finding ``state`` in each block of ``cg``.

    The state must already be expressed in the basis the coarse-graining
    refers to (transform with ``to_momentum`` first for momentum blocks).
    """
    state = np.asarray(state)
    if state.shape[0] != cg.L:
        raise ValueError(f"state has {state.shape[0]} amplitudes, coarse-graining expects {cg.L}")
    amp2 = np.abs(state) ** 2
    p = np.array([amp2[blk].sum() for blk in cg.blocks])
    return MacrostateDistribution(probs=_checked_probs(p), volumes=cg.volumes)


def shannon_entropy(d: MacrostateDistribution) -> float:
    """-sum p ln p with 0 ln 0 = 0."""
    p = d.probs
    nz = p > 0.0
    return float(max(0.0, -(p[nz] * np.log(p[nz])).sum()))


def observational_entropy(d: MacrostateDistribution) -> float:
    """Shannon part plus the mean log macrostate volume, sum p ln V."""
    p = d.probs
    nz = p > 0.0
    return float(max(0.0, (p[nz] * (np.log(d.volumes[nz]) - np.log(p[nz]))).sum()))


def uniform_block_entropy(amp2: np.ndarray, m: int) -> np.ndarray:
    """Observational entropy under size-m contiguous blocks, vectorized.

    ``amp2`` holds probability weights over the last axis (length L with
    m | L); any leading axes are batch dimensions.  Used by the sweep and
    quench drivers; agrees with the scalar path through
    :func:`macrostate_probs` + :func:`observational_entropy`.
    """
    L = amp2.shape[-1]
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if L % m != 0:
        raise ValueError(f"m must divide L: got L={L}, m={m}")
    p = amp2.reshape(amp2.shape[:-1] + (L // m, m)).sum(axis=-1)
    np.clip(p, 0.0, 1.0, out=p)
    plogp = np.where(p > 0.0, p, 1.0)
    np.log(plogp, out=plogp)  # 0 ln 0 = 0 ln 1 = 0
    plogp *= p
    return np.maximum(-plogp.sum(axis=-1), 0.0) + math.log(m)
