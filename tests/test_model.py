"""Hamiltonian structure, spectra, and the momentum basis change."""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from obsent import (
    GOLDEN_RATIO_INVERSE,
    ModelParams,
    build_hamiltonian,
    chain_diagonals,
    chain_eigensystem,
    chain_eigenvalues,
    chain_eigenvectors,
    eigendecompose,
    evolve_many,
    site_state,
    to_momentum,
)
from obsent import model
from obsent.model import eigenpair_errors
from obsent.sampling import Window


def test_golden_ratio_default():
    assert ModelParams(L=4).alpha == (math.sqrt(5.0) - 1.0) / 2.0


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(L=1)
    with pytest.raises(ValueError):
        ModelParams(L=4, delta=-0.5)
    with pytest.raises(ValueError):
        ModelParams(L=4, alpha=1.5)
    with pytest.raises(ValueError):
        ModelParams(L=4, bc="twisted")


@pytest.mark.parametrize("field", ["delta", "alpha", "phi"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError):
        ModelParams(L=4, **{field: value})


def test_phase_wraps_into_two_pi():
    p = ModelParams(L=4, phi=7.0)
    assert 0.0 <= p.phi < 2.0 * math.pi
    assert_allclose(p.phi, 7.0 - 2.0 * math.pi, atol=1e-15)


def test_hopping_only_two_sites():
    h = build_hamiltonian(ModelParams(L=2, delta=0.0))
    assert_allclose(h, [[0.0, -1.0], [-1.0, 0.0]], atol=0.0)


def test_zero_potential_diagonal_is_zero():
    for L in (2, 5, 16):
        h = build_hamiltonian(ModelParams(L=L, delta=0.0, phi=1.3))
        assert np.all(np.diag(h) == 0.0)


def test_diagonal_against_high_precision_formula():
    # oracle: delta * cos(2*pi*alpha*j + phi) for j=1..4 at 50 digits
    mp.mp.dps = 50
    alpha = (mp.sqrt(5) - 1) / 2
    expected = [float(2 * mp.cos(2 * mp.pi * alpha * j)) for j in range(1, 5)]
    h = build_hamiltonian(ModelParams(L=4, delta=2.0, phi=0.0))
    assert_allclose(np.diag(h), expected, atol=5e-15)


@pytest.mark.parametrize("bc", ["open", "periodic"])
def test_structure_random_params(bc):
    rng = np.random.default_rng(11)
    for _ in range(20):
        L = int(rng.integers(2, 40))
        params = ModelParams(
            L=L,
            delta=float(rng.uniform(0.0, 6.0)),
            phi=float(rng.uniform(0.0, 2 * math.pi)),
            bc=bc,
        )
        h = build_hamiltonian(params)
        assert np.array_equal(h, h.T)
        off = h - np.diag(np.diag(h))
        expected = np.zeros((L, L))
        idx = np.arange(L - 1)
        expected[idx, idx + 1] = -1.0
        expected[idx + 1, idx] = -1.0
        if bc == "periodic":
            expected[0, L - 1] = -1.0
            expected[L - 1, 0] = -1.0
        assert np.array_equal(off, expected)


def test_eigendecompose_two_site():
    eig = eigendecompose(build_hamiltonian(ModelParams(L=2, delta=0.0)))
    assert_allclose(eig.energies, [-1.0, 1.0], atol=1e-14)


def test_eigendecompose_free_ring_l4():
    eig = eigendecompose(build_hamiltonian(ModelParams(L=4, delta=0.0, bc="periodic")))
    assert_allclose(eig.energies, [-2.0, 0.0, 0.0, 2.0], atol=1e-14)


def test_open_chain_analytic_spectrum():
    # open hopping chain: energies -2 cos(n*pi/(L+1)), n = 1..L
    L = 8
    eig = eigendecompose(build_hamiltonian(ModelParams(L=L, delta=0.0)))
    analytic = np.sort(-2.0 * np.cos(np.arange(1, L + 1) * math.pi / (L + 1)))
    assert_allclose(eig.energies, analytic, atol=1e-12)


def test_eigensystem_invariants_random_params():
    rng = np.random.default_rng(5)
    for _ in range(10):
        L = int(rng.integers(8, 64))
        params = ModelParams(
            L=L,
            delta=float(rng.uniform(0.0, 5.0)),
            phi=float(rng.uniform(0.0, 2 * math.pi)),
            bc=("open", "periodic")[int(rng.integers(2))],
        )
        h = build_hamiltonian(params)
        eig = eigendecompose(h)
        assert np.all(np.diff(eig.energies) >= 0.0)
        gram = eig.vectors.T @ eig.vectors
        assert np.abs(gram - np.eye(L)).max() < 1e-10
        resid = h @ eig.vectors - eig.vectors * eig.energies
        assert np.linalg.norm(resid, axis=0).max() < 1e-8


def test_rejects_asymmetric_matrix():
    with pytest.raises(ValueError):
        eigendecompose(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        eigendecompose(np.ones((2, 3)))


def test_rejects_nan_matrix():
    with pytest.raises(ValueError):
        eigendecompose(np.full((3, 3), math.nan))
    h = build_hamiltonian(ModelParams(L=4))
    h[1, 1] = math.nan
    with pytest.raises(ValueError):
        eigendecompose(h)


def test_rejects_infinite_matrix():
    with pytest.raises(ValueError):
        eigendecompose(np.array([[math.inf, -1.0], [-1.0, 0.0]]))


def test_chain_eigenvectors_open_chain_analytic():
    # free open chain: psi_n(j) = sqrt(2/(L+1)) sin(n*pi*j/(L+1)), E_n = -2 cos(n*pi/(L+1))
    L = 12
    n = np.array([1, 4, 7, 12])
    energies = -2.0 * np.cos(n * math.pi / (L + 1))
    rows = chain_eigenvectors(np.zeros((1, L)), energies[None, :])
    j = np.arange(1, L + 1)
    exact = math.sqrt(2.0 / (L + 1)) * np.sin(np.outer(n, j) * math.pi / (L + 1))
    assert rows.shape == (1, 4, L)
    assert np.abs(rows[0] ** 2 - exact**2).max() < 1e-13


@pytest.mark.parametrize("delta", [0.5, 2.0, 4.5])
def test_chain_eigenvectors_match_dense_stack(delta):
    stack = build_hamiltonian(ModelParams(L=40, delta=delta), [0.2, 2.9, 5.1])
    eig = eigendecompose(stack)
    picked = np.array([0, 9, 20, 39])
    diag = np.diagonal(stack, axis1=-2, axis2=-1)
    rows = chain_eigenvectors(diag, eig.energies[:, picked])
    dense = eig.vectors[:, :, picked].swapaxes(-1, -2)
    assert np.abs(rows**2 - dense**2).max() < 1e-12
    residual, overlap = eigenpair_errors(diag, eig.energies[:, picked], rows)
    assert residual.max() < 1e-12 and overlap.max() < 1e-12


@pytest.mark.parametrize("L, n", [(2, 1), (64, 1), (64, 2), (100, 7), (512, 64)])
def test_chain_eigenvectors_of_a_block_equal_per_chain_calls(L, n):
    # chains of different delta share the block, so their pivot floors differ
    diag = np.concatenate([chain_diagonals(ModelParams(L=L, delta=d), [0.3, 2.0, 4.4]) for d in (0.5, 2.5, 6.0)])
    levels = chain_eigenvalues(diag)[:, L // 2 - n // 2:][:, :n]
    rows = chain_eigenvectors(diag, levels)
    assert rows.shape == (9, n, L) and rows.flags.c_contiguous
    single = np.concatenate([chain_eigenvectors(diag[b:b + 1], levels[b:b + 1]) for b in range(9)])
    assert np.array_equal(rows, single)


@pytest.mark.parametrize("delta", [0.0, 0.3, 2.0, 6.0])
@pytest.mark.parametrize("L", [2, 3, 16, 64, 256])
def test_chain_solvers_match_dense_route(monkeypatch, L, delta):
    diag = chain_diagonals(ModelParams(L=L, delta=delta), [0.4, 2.1, 5.3])
    energies, eig = chain_eigenvalues(diag), chain_eigensystem(diag)
    monkeypatch.setattr(model, "_DSTERF", None)
    monkeypatch.setattr(model, "_DSTEVD", None)
    assert model.chain_solvers() == {"chain_eigenvalues": "numpy-dense", "chain_eigensystem": "numpy-dense"}
    dense = chain_eigensystem(diag)
    assert np.array_equal(energies, chain_eigenvalues(diag))
    assert eig.vectors.shape == (3, L, L)
    # dstevd and eigh agree up to column signs; at delta = 0 the spectrum's
    # symmetry leaves the last bits to the algorithm
    tol = 1e-10 if delta == 0.0 else 0.0
    assert np.abs(eig.energies - dense.energies).max() <= tol
    assert np.abs(np.abs(eig.vectors) - np.abs(dense.vectors)).max() <= tol
    assert np.abs(eig.vectors @ (eig.energies[:, :, None] * eig.vectors.swapaxes(-1, -2))
                  - build_hamiltonian(ModelParams(L=L, delta=delta), [0.4, 2.1, 5.3])).max() < 1e-12


@pytest.mark.parametrize("solver", [chain_eigenvalues, chain_eigensystem])
@pytest.mark.parametrize("diag", [np.array([[0.0, math.nan, 1.0]]), np.zeros(3)], ids=["nan", "1-D"])
def test_chain_solvers_reject_bad_diagonals(solver, diag):
    with pytest.raises(ValueError):
        solver(diag)


def test_rejects_stack_with_one_asymmetric_matrix():
    stack = build_hamiltonian(ModelParams(L=6, delta=1.5), [0.1, 0.2, 0.3, 0.4])
    eigendecompose(stack)
    stack[2, 0, 1] += 1e-9
    with pytest.raises(ValueError):
        eigendecompose(stack)


@pytest.mark.parametrize("bc", ["open", "periodic"])
def test_hamiltonian_stack_matches_build_hamiltonian(bc):
    params = ModelParams(L=12, delta=2.7, bc=bc)
    phis = [0.0, 1.1, 6.2, 7.5, -0.4]
    stack = build_hamiltonian(params, phis)
    assert stack.shape == (5, 12, 12)
    for h, phi in zip(stack, phis):
        single = build_hamiltonian(ModelParams(L=12, delta=2.7, phi=phi, bc=bc))
        assert np.array_equal(h, single)


def test_hamiltonian_stack_rejects_non_finite_phases():
    with pytest.raises(ValueError):
        build_hamiltonian(ModelParams(L=4), [0.0, math.nan])


@pytest.mark.parametrize("bc", ["open", "periodic"])
def test_stacked_eigendecompose_is_bit_identical(bc):
    phis = np.random.default_rng(8).uniform(0.0, 2 * math.pi, 7)
    stack = build_hamiltonian(ModelParams(L=24, delta=1.9, bc=bc), phis)
    eig = eigendecompose(stack)
    psi0, times = site_state(24, 12), np.array([0.0, 0.5, 3.0])
    assert eig.energies.shape == (7, 24) and eig.vectors.shape == (7, 24, 24)
    assert eig.L == 24
    for i, h in enumerate(stack):
        single = eigendecompose(h)
        assert np.array_equal(eig.energies[i], single.energies)
        assert np.array_equal(eig.vectors[i], single.vectors)
        assert np.array_equal(Window(5)(eig)[i], Window(5)(single))
        assert np.array_equal(evolve_many(eig, psi0, times)[i], evolve_many(single, psi0, times))


def test_phase_shift_is_cyclic_relabeling_at_rational_alpha():
    # with alpha = p/L the shift phi -> phi + 2*pi*alpha*k matches relabeling
    # the ring sites by k, so the spectra coincide; irrational alpha only
    # satisfies this in the L -> infinity limit.
    L, p = 13, 8
    alpha = p / L
    for k in (1, 2, 5):
        a = ModelParams(L=L, delta=1.7, alpha=alpha, phi=0.31, bc="periodic")
        b = ModelParams(L=L, delta=1.7, alpha=alpha, phi=0.31 + 2 * math.pi * alpha * k, bc="periodic")
        ea = eigendecompose(build_hamiltonian(a)).energies
        eb = eigendecompose(build_hamiltonian(b)).energies
        assert np.abs(ea - eb).max() < 1e-10


def test_free_ring_spectrum_multiset():
    for L in (4, 8, 32):
        eig = eigendecompose(build_hamiltonian(ModelParams(L=L, delta=0.0, bc="periodic")))
        expected = np.sort(-2.0 * np.cos(2.0 * math.pi * np.arange(L) / L))
        assert np.abs(eig.energies - expected).max() < 1e-10


def test_plane_wave_maps_to_single_momentum_index():
    L, n = 16, 5
    amps = to_momentum(np.exp(2j * math.pi * n * np.arange(L) / L) / math.sqrt(L))
    expected = np.zeros(L)
    expected[n] = 1.0
    assert_allclose(np.abs(amps) ** 2, expected, atol=1e-12)


def test_site_state_is_uniform_in_momentum():
    L = 16
    amps = to_momentum(site_state(L, 7))
    assert_allclose(np.abs(amps) ** 2, np.full(L, 1.0 / L), atol=1e-12)


@pytest.mark.parametrize("L", [6, 10])
def test_fft_matches_explicit_dft_sum(L):
    # <k_n|psi> = sum_j exp(-i k_n j) psi_j / sqrt(L), k_n = 2 pi n / L
    rng = np.random.default_rng(L)
    cols = rng.normal(size=(L, 3)) + 1j * rng.normal(size=(L, 3))
    j = np.arange(L)
    explicit = np.array([[np.sum(np.exp(-2j * math.pi * n * j / L) * cols[:, c]) / math.sqrt(L)
                          for c in range(3)] for n in range(L)])
    assert np.abs(to_momentum(cols) - explicit).max() < 1e-13
    assert np.abs(to_momentum(cols[:, 1]) - explicit[:, 1]).max() < 1e-13
    assert np.abs(to_momentum(cols.T, axis=-1) - explicit.T).max() < 1e-13
