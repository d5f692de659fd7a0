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

from .model import integer

#: |sum(p) - 1| up to this is accepted silently.
_PROB_SUM_TOL = 1e-10
#: beyond _PROB_SUM_TOL but within this the probabilities are renormalized.
_PROB_SUM_RENORM = 1e-8

BASIS_TAGS = ("real", "momentum")


@dataclass(frozen=True, eq=False)
class CoarseGraining:
    """Ordered partition of basis indices into macrostate blocks.

    ``owner[i]`` is the block number of basis index i; the blocks are
    numbered 0..n_blocks-1 and each holds at least one index.  Build
    instances through :func:`make_block_partition` or
    :func:`partition_from_blocks`, which validate the partition.
    """

    owner: np.ndarray
    basis_tag: str

    def __post_init__(self):
        if self.basis_tag not in BASIS_TAGS:
            raise ValueError(f"basis_tag must be one of {BASIS_TAGS}, got {self.basis_tag!r}")

    @property
    def volumes(self) -> np.ndarray:
        return np.bincount(self.owner)

    @property
    def L(self) -> int:
        return self.owner.size

    @property
    def n_blocks(self) -> int:
        return self.volumes.size


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
    """Validate an explicit list of index blocks and wrap it; block i becomes macrostate i."""
    arrs = [np.asarray(b, dtype=int) for b in blocks]
    if not arrs or any(a.ndim != 1 or a.size == 0 for a in arrs):
        raise ValueError("blocks must be non-empty")
    joined = np.concatenate(arrs)
    if not np.array_equal(np.sort(joined), np.arange(joined.size)):
        raise ValueError("blocks must partition 0..L-1 exactly")
    owner = np.repeat(np.arange(len(arrs)), [a.size for a in arrs])[np.argsort(joined)]
    return CoarseGraining(owner=owner, basis_tag=basis_tag)


def block_size(L: int, m: int) -> int:
    """``m`` as its int if it is a block size that divides ``L``, else ``ValueError``."""
    m = integer(m, "m", 1)
    if L % m != 0:
        raise ValueError(f"m={m} does not divide L={L}")
    return m


def make_block_partition(L: int, m: int, basis_tag: str = "real") -> CoarseGraining:
    """Uniform partition of 0..L-1 into L/m contiguous blocks of size m.

    m = 1 is the finest coarse-graining (all volumes 1, observational
    entropy reduces to the Shannon entropy) and m = L the roughest (a
    single identity block with entropy ln L).  m must divide L.
    """
    L = integer(L, "L", 1)
    return CoarseGraining(owner=np.arange(L) // block_size(L, m), basis_tag=basis_tag)


def is_rougher(c1: CoarseGraining, c2: CoarseGraining) -> bool:
    """True iff every block of c1 is a union of blocks of c2.

    This is the partial order of coarse-grainings: c1 rougher-than c2
    implies the entropy under c1 is at least the entropy under c2, for
    every state.  Both arguments must share L and basis_tag.
    """
    if c1.basis_tag != c2.basis_tag:
        raise ValueError("coarse-grainings live in different bases")
    if c1.L != c2.L:
        raise ValueError("coarse-grainings have different L")
    # label each c2 block by the c1 block of one of its indices, which all its indices must share
    label = np.empty(c2.n_blocks, dtype=int)
    label[c2.owner] = c1.owner
    return bool(np.array_equal(label[c2.owner], c1.owner))


def macrostate_probs(state: np.ndarray, cg: CoarseGraining) -> MacrostateDistribution:
    """Probability of finding ``state`` in each block of ``cg``.

    The state must already be expressed in the basis the coarse-graining
    refers to (transform with ``to_momentum`` first for momentum blocks).
    The probabilities are clipped into [0, 1] and tiny norm drift is fixed."""
    state = np.asarray(state)
    if state.shape != (cg.L,):
        raise ValueError(f"state has shape {state.shape}, coarse-graining expects ({cg.L},)")
    p = np.bincount(cg.owner, weights=np.abs(state) ** 2)
    drift = abs(p.sum() - 1.0)
    if drift > _PROB_SUM_RENORM:
        raise ValueError(f"probabilities sum to 1 only within {drift:.3e}; state not normalized?")
    p = np.clip(p, 0.0, 1.0)
    if drift > _PROB_SUM_TOL:
        p /= p.sum()
    return MacrostateDistribution(probs=p, volumes=cg.volumes)


def block_entropy(p: np.ndarray, log_volume) -> np.ndarray:
    """``max(-sum p ln p, 0) + log_volume`` over the last axis of ``p``, with
    ``p`` clipped into [0, 1] and 0 ln 0 = 0.  With the mean log volume
    ``sum p ln V`` as ``log_volume`` this is the observational entropy, with 0
    the Shannon entropy; the package evaluates ``p ln p`` nowhere else.  It
    holds one temporary the size of ``p``; a ±inf entry gives NaN."""
    plogp = np.clip(p, 0.0, 1.0)
    plogp += plogp == 0.0  # 0 ln 0 = 0 ln 1 = 0
    np.log(plogp, out=plogp)
    plogp *= p  # where ln is not 0, the clipped value is p
    return np.maximum(-plogp.sum(axis=-1), 0.0) + log_volume


def shannon_entropy(d: MacrostateDistribution) -> float:
    """-sum p ln p with 0 ln 0 = 0."""
    return float(block_entropy(d.probs, 0.0))


def observational_entropy(d: MacrostateDistribution) -> float:
    """Shannon part plus the mean log macrostate volume, sum p ln V."""
    return float(block_entropy(d.probs, d.probs @ np.log(d.volumes)))


def uniform_block_entropy(amp2: np.ndarray, m: int) -> np.ndarray:
    """Observational entropy under size-m contiguous blocks, vectorized:
    ``amp2`` holds probability weights over the last axis (length L with
    m | L), and any leading axes are batch dimensions.  For 1 < m < 8 the
    block sums are strided adds, ``amp2[..., 0::m] + amp2[..., 1::m]`` and then
    ``+= amp2[..., j::m]`` for j = 2..m-1: numpy sums a row of fewer than 8
    terms in that order, so the bits equal those of the reshape-sum that
    larger m use.  ``amp2`` itself is never written."""
    L = amp2.shape[-1]
    m = block_size(L, m)
    if m == 1 or m >= 8:
        p = amp2 if m == 1 else amp2.reshape(amp2.shape[:-1] + (L // m, m)).sum(axis=-1)
    else:
        p = amp2[..., 0::m] + amp2[..., 1::m]
        for j in range(2, m):
            p += amp2[..., j::m]
    return block_entropy(p, math.log(m))
