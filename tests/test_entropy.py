"""Partitions, macrostate probabilities, and entropy functional properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from obsent import (
    MacrostateDistribution,
    block_entropy,
    is_rougher,
    macrostate_probs,
    make_block_partition,
    observational_entropy,
    partition_from_blocks,
    shannon_entropy,
    site_state,
    uniform_block_entropy,
)

import reference


def random_state(L, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=L) + 1j * rng.normal(size=L)
    return psi / np.linalg.norm(psi)


def test_block_partition_l4_m2():
    cg = make_block_partition(4, 2)
    assert [b.tolist() for b in cg.blocks] == [[0, 1], [2, 3]]
    assert cg.volumes.tolist() == [2, 2]
    assert cg.m == 2


def test_finest_and_roughest():
    finest = make_block_partition(4, 1)
    assert finest.n_blocks == 4 and set(finest.volumes) == {1}
    roughest = make_block_partition(4, 4)
    assert roughest.n_blocks == 1 and roughest.volumes.tolist() == [4]


def test_partition_rejects_non_divisor():
    with pytest.raises(ValueError):
        make_block_partition(8, 3)
    with pytest.raises(ValueError):
        make_block_partition(8, 0)
    with pytest.raises(ValueError):
        make_block_partition(8, 2, basis_tag="position")
    for m in (0, -2):  # the vectorized path names the same rule
        with pytest.raises(ValueError, match="m must be >= 1"):
            uniform_block_entropy(np.full(8, 1 / 8), m)


def test_partition_from_blocks_validates():
    cg = partition_from_blocks([[0, 2], [1, 3]])
    assert cg.m == 2
    with pytest.raises(ValueError):
        partition_from_blocks([[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        partition_from_blocks([[0], [2]])


def test_is_rougher_dyadic():
    c4 = make_block_partition(8, 4)
    c2 = make_block_partition(8, 2)
    assert is_rougher(c4, c2)
    assert not is_rougher(c2, c4)
    assert is_rougher(c2, c2)


def test_is_rougher_non_uniform():
    coarse = partition_from_blocks([[0, 1, 2, 3], [4, 5]])
    fine = partition_from_blocks([[0, 1], [2, 3], [4], [5]])
    shuffled = partition_from_blocks([[0, 4], [1, 2], [3, 5]])
    assert is_rougher(coarse, fine)
    assert not is_rougher(coarse, shuffled)


def test_is_rougher_requires_same_space():
    with pytest.raises(ValueError):
        is_rougher(make_block_partition(8, 2), make_block_partition(4, 2))
    with pytest.raises(ValueError):
        is_rougher(make_block_partition(8, 2), make_block_partition(8, 2, basis_tag="momentum"))


def test_plane_wave_probs_uniform():
    L = 16
    for m in (1, 2, 4, 8, 16):
        d = macrostate_probs(np.ones(L, dtype=complex) / math.sqrt(L), make_block_partition(L, m))  # k = 0 plane wave
        assert_allclose(d.probs, np.full(L // m, m / L), atol=1e-12)


def test_site_state_probs_one_hot():
    L = 16
    d = macrostate_probs(site_state(L, 7), make_block_partition(L, 4))
    expected = np.zeros(4)
    expected[(7 - 1) // 4] = 1.0
    assert_allclose(d.probs, expected, atol=0.0)


def test_finest_probs_are_amplitudes():
    psi = random_state(16, 0)
    d = macrostate_probs(psi, make_block_partition(16, 1))
    assert_allclose(d.probs, np.abs(psi) ** 2, atol=1e-14)
    assert abs(d.probs.sum() - 1.0) < 1e-10


def test_probs_dimension_mismatch():
    with pytest.raises(ValueError):
        macrostate_probs(np.ones(8) / math.sqrt(8), make_block_partition(16, 2))


def test_probs_renormalizes_small_drift():
    psi = site_state(8, 1) * math.sqrt(1.0 + 5e-9)
    d = macrostate_probs(psi, make_block_partition(8, 2))
    assert abs(d.probs.sum() - 1.0) < 1e-12


def test_probs_rejects_large_drift():
    with pytest.raises(ValueError):
        macrostate_probs(site_state(8, 1) * 1.01, make_block_partition(8, 2))


def test_entropy_identity_block():
    L = 64
    d = MacrostateDistribution(probs=np.array([1.0]), volumes=np.array([L]))
    assert_allclose(observational_entropy(d), math.log(L), atol=1e-14)


def test_entropy_certain_block_of_volume_m():
    for m in (1, 2, 8):
        d = MacrostateDistribution(probs=np.array([1.0, 0.0]), volumes=np.array([m, m]))
        assert_allclose(observational_entropy(d), math.log(m), atol=1e-14)


def test_entropy_uniform_blocks_is_max():
    L, m = 32, 4
    d = MacrostateDistribution(
        probs=np.full(L // m, m / L), volumes=np.full(L // m, m)
    )
    assert_allclose(observational_entropy(d), math.log(L), atol=1e-12)


def test_shannon_examples():
    v = np.array([1, 1])
    assert shannon_entropy(MacrostateDistribution(np.array([1.0, 0.0]), v)) == 0.0
    assert_allclose(
        shannon_entropy(MacrostateDistribution(np.array([0.5, 0.5]), v)),
        math.log(2.0),
        atol=1e-15,
    )
    L = 32
    d = MacrostateDistribution(np.full(L, 1.0 / L), np.ones(L, dtype=int))
    assert_allclose(shannon_entropy(d), math.log(L), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), log2m=st.integers(0, 5))
def test_decomposition_identity(seed, log2m):
    L, m = 32, 2**log2m
    d = macrostate_probs(random_state(L, seed), make_block_partition(L, m))
    lhs = observational_entropy(d)
    rhs = shannon_entropy(d) + float((d.probs * np.log(d.volumes)).sum())
    assert abs(lhs - rhs) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_monotone_along_dyadic_chain(seed):
    L = 64
    psi = random_state(L, seed)
    values = [
        observational_entropy(macrostate_probs(psi, make_block_partition(L, 2**k)))
        for k in range(7)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), log2m=st.integers(0, 6))
def test_bounds_between_finest_and_roughest(seed, log2m):
    L, m = 64, 2**log2m
    psi = random_state(L, seed)
    fine = shannon_entropy(macrostate_probs(psi, make_block_partition(L, 1)))
    s = observational_entropy(macrostate_probs(psi, make_block_partition(L, m)))
    assert fine - 1e-12 <= s <= math.log(L) + 1e-12


def test_roughest_equals_log_dim_in_both_bases():
    L = 32
    psi = random_state(L, 9)
    for tag in ("real", "momentum"):
        d = macrostate_probs(psi, make_block_partition(L, L, basis_tag=tag))
        assert_allclose(observational_entropy(d), math.log(L), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), log2m=st.integers(0, 5))
def test_vectorized_path_matches_scalar(seed, log2m):
    L, m = 32, 2**log2m
    psi = random_state(L, seed)
    expected = reference.observational_entropy(np.abs(psi) ** 2, reference.contiguous_blocks(L, m))
    scalar = observational_entropy(macrostate_probs(psi, make_block_partition(L, m)))
    vectorized = float(uniform_block_entropy(np.abs(psi) ** 2, m))
    assert abs(scalar - expected) < 1e-12
    assert abs(vectorized - expected) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 5040])
def test_block_sums_have_the_reshape_sums_bits(m):
    # fails if numpy stops summing rows of fewer than 8 terms one after another
    L = 5040  # every m above divides it
    rng = np.random.default_rng(m)
    stacked, wide = rng.random((3, 4, L)) / L, rng.random((2, 2 * L)) / L
    for p in (stacked, stacked[1, 2], wide[:, ::2]):  # a stack, a vector, a non-contiguous view
        before = p.copy()
        expected = block_entropy(p.reshape(p.shape[:-1] + (L // m, m)).sum(axis=-1), math.log(m))
        assert np.array_equal(uniform_block_entropy(p, m), expected)
        assert np.array_equal(p, before)


def shuffled_blocks(draw, indices):
    """A random partition of ``indices`` into lists: a shuffle of them cut at
    random places, so blocks of 0..L-1 are generally not contiguous."""
    order = draw(st.permutations(indices))
    n = len(order)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    return [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), L=st.integers(2, 24), seed=st.integers(0, 2**31), refine=st.booleans())
def test_shuffled_partitions_match_reference(data, L, seed, refine):
    blocks1 = shuffled_blocks(data.draw, list(range(L)))
    # half the cases cut the blocks of the first partition further, so that
    # it is rougher than the second
    blocks2 = ([part for b in blocks1 for part in shuffled_blocks(data.draw, b)] if refine
               else shuffled_blocks(data.draw, list(range(L))))
    c1, c2 = partition_from_blocks(blocks1), partition_from_blocks(blocks2)
    assert [b.tolist() for b in c1.blocks] == [sorted(b) for b in blocks1]
    assert c1.volumes.tolist() == [len(b) for b in blocks1]
    psi = random_state(L, seed)
    expected = reference.observational_entropy(np.abs(psi) ** 2, blocks1)
    assert abs(observational_entropy(macrostate_probs(psi, c1)) - expected) < 1e-12
    assert is_rougher(c1, c2) == reference.is_rougher(blocks1, blocks2)
    assert is_rougher(c2, c1) == reference.is_rougher(blocks2, blocks1)
