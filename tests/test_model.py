"""Hamiltonian structure, spectra, and the momentum basis change."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from obsent import (
    GOLDEN_RATIO_INVERSE,
    ConfigError,
    ModelParams,
    bessel_j,
    bessel_j_sequence,
    bessel_reference_entropy,
    build_hamiltonian,
    chain_diagonals,
    chain_eigensystem,
    chain_eigenvalues,
    chain_eigenvectors,
    eigendecompose,
    eigenstate_entropy_table,
    evolve_many,
    make_block_partition,
    make_config,
    phase_sequence,
    resolve_mid_count,
    site_state,
    to_momentum,
    uniform_block_entropy,
    validate,
)
from obsent import model
from obsent.dynamics import Quench
from obsent.model import eigenpair_errors, integer
from obsent.sampling import Window, phase_table


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


@pytest.mark.parametrize("field", ["delta", "alpha"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError):
        ModelParams(L=4, **{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_hamiltonian_rejects_non_finite_phase(value):
    for phase in (value, [0.0, value]):
        with pytest.raises(ValueError, match="finite phases"):
            build_hamiltonian(ModelParams(L=4, delta=1.0), phase)


def test_phase_wraps_into_two_pi():
    # 7 - 2 pi is exact (Sterbenz), and -0.4 reduces to -0.4 + 2 pi, so the reduced phases are these floats
    for bc in ("open", "periodic"):
        params, reduced = ModelParams(L=4, delta=1.0, bc=bc), [7.0 - 2.0 * math.pi, 2.0 * math.pi - 0.4]
        assert np.array_equal(chain_diagonals(params, [7.0, -0.4]), chain_diagonals(params, reduced))
        assert np.array_equal(build_hamiltonian(params, 7.0), build_hamiltonian(params, reduced[0]))
        assert np.array_equal(build_hamiltonian(params, [7.0, -0.4]), build_hamiltonian(params, reduced))


def test_hopping_only_two_sites():
    h = build_hamiltonian(ModelParams(L=2, delta=0.0))
    assert_allclose(h, [[0.0, -1.0], [-1.0, 0.0]], atol=0.0)


def test_zero_potential_diagonal_is_zero():
    for L in (2, 5, 16):
        h = build_hamiltonian(ModelParams(L=L, delta=0.0), 1.3)
        assert np.all(np.diag(h) == 0.0)


def test_diagonal_against_high_precision_formula():
    # oracle: delta * cos(2*pi*alpha*j + phi) for j=1..4 at 50 digits
    mp.mp.dps = 50
    alpha = (mp.sqrt(5) - 1) / 2
    expected = [float(2 * mp.cos(2 * mp.pi * alpha * j)) for j in range(1, 5)]
    h = build_hamiltonian(ModelParams(L=4, delta=2.0))
    assert_allclose(np.diag(h), expected, atol=5e-15)


@pytest.mark.parametrize("bc", ["open", "periodic"])
def test_structure_random_params(bc):
    rng = np.random.default_rng(11)
    for _ in range(20):
        L = int(rng.integers(2, 40))
        params = ModelParams(L=L, delta=float(rng.uniform(0.0, 6.0)), bc=bc)
        h = build_hamiltonian(params, float(rng.uniform(0.0, 2 * math.pi)))
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
        L, delta, phi = int(rng.integers(8, 64)), float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 2 * math.pi))
        h = build_hamiltonian(ModelParams(L=L, delta=delta, bc=("open", "periodic")[int(rng.integers(2))]), phi)
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
    monkeypatch.setattr(model, "_DSTEVD", None)
    assert model.chain_solver() == "numpy-dense"
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


@pytest.mark.parametrize("delta", [1e150, 1e200, 1.7e308])
def test_chain_eigenvalues_equal_eigvalsh_where_lapack_prescales(monkeypatch, delta):
    # above max|d| of about 1e146 dstevd scales the chain down, as eigvalsh's
    # driver scales the dense matrix, so the two routes keep the same bits
    diag = chain_diagonals(ModelParams(L=33, delta=delta), [0.4, 2.1, 5.3])
    energies = chain_eigenvalues(diag)
    monkeypatch.setattr(model, "_DSTEVD", None)
    assert np.array_equal(energies, chain_eigenvalues(diag))


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
        single = build_hamiltonian(params, phi)
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
        params = ModelParams(L=L, delta=1.7, alpha=alpha, bc="periodic")
        ea = eigendecompose(build_hamiltonian(params, 0.31)).energies
        eb = eigendecompose(build_hamiltonian(params, 0.31 + 2 * math.pi * alpha * k)).energies
        assert np.abs(ea - eb).max() < 1e-10


def test_free_ring_spectrum_multiset():
    for L in (2, 3, 4, 8, 32):  # an L = 2 ring counts both of its bonds
        eig = eigendecompose(build_hamiltonian(ModelParams(L=L, delta=0.0, bc="periodic")))
        expected = np.sort(-2.0 * np.cos(2.0 * math.pi * np.arange(L) / L))
        assert np.abs(eig.energies - expected).max() < 1e-10


def test_plane_wave_maps_to_single_momentum_index():
    L, n = 16, 5
    amps = to_momentum(np.exp(2j * math.pi * n * np.arange(L) / L) / math.sqrt(L))
    expected = np.zeros(L)
    expected[n] = 1.0
    assert_allclose(np.abs(amps) ** 2, expected, atol=1e-12)


def test_site_state_takes_integral_sites_only():
    assert np.array_equal(site_state(8, 3.0), site_state(8, 3))
    with pytest.raises(ValueError, match="site must lie in 1..8"):
        site_state(8, 1.5)
    assert np.array_equal(site_state(8.0, 2), site_state(8, 2))  # and so does an integral float size
    for L in (8.5, 0, -4, math.inf, math.nan):
        with pytest.raises(ValueError, match="L must be an integer >= 1"):
            site_state(L, 1)


def _validated(config):
    """``config`` if :func:`validate` passes it, else the ``ConfigError`` that ``run`` raises."""
    diagnostics = validate(config)
    if diagnostics:
        raise ConfigError(diagnostics)
    return config


#: Each entry point that takes an integer: (name its errors start with, call of the
#: value, a value out of range).  2 is in range everywhere.
INTEGER_ARGUMENTS = {
    "ModelParams.L": ("L", lambda v: ModelParams(L=v).L, 1),
    "site_state.L": ("L", lambda v: site_state(v, 1), 0),
    "site_state.site": ("site", lambda v: site_state(8, v), 9),
    "Quench.initial_site": ("initial_site", lambda v: Quench(8, [0.0, 1.0], v).psi0, 0),
    "Window.count": ("count", lambda v: Window(v).count, 0),
    "phase_sequence.seed": ("seed", lambda v: phase_sequence(v, 8, 1.0, 3), -1),
    "phase_sequence.L": ("L", lambda v: phase_sequence(0, v, 1.0, 3), 1),
    "phase_sequence.n_phi": ("n_phi", lambda v: phase_sequence(0, 8, 1.0, v), 0),
    "eigenstate_entropy_table.n_phi": (
        "n_phi", lambda v: eigenstate_entropy_table(8, 1.0, [1], n_phi=v, mid_count=2)[(1, "real")], 0),
    "bessel_j_sequence.order": ("order", lambda v: bessel_j_sequence(v, 1.0), 301),
    "bessel_j.order": ("order", lambda v: bessel_j(v, 1.0), 301),
    "bessel_reference_entropy.span": ("span", lambda v: bessel_reference_entropy(0.0, v), 0),
    "make_block_partition.L": ("L", lambda v: make_block_partition(v, 1).owner, 0),
    "make_block_partition.m": ("m", lambda v: make_block_partition(8, v).owner, 0),
    "uniform_block_entropy.m": ("m", lambda v: uniform_block_entropy(np.full(8, 0.125), v), 0),
    "resolve_mid_count": ("mid_count", lambda v: resolve_mid_count(v, 16), 0),
    "validate.n_phi": ("n_phi", lambda v: _validated(make_config("fig1", L=[16], m=[1], n_phi=v)).n_phi, 0),
    "validate.seed": ("seed", lambda v: _validated(make_config("fig1", L=[16], m=[1], seed=v)).seed, -1),
}


@pytest.mark.parametrize("entry", INTEGER_ARGUMENTS)
def test_every_integer_argument_follows_one_rule(entry):
    """An integral float reads as its int; a bool, a fraction, inf, NaN and a value
    out of range raise ValueError, whose message starts with the argument's name."""
    name, call, out_of_range = INTEGER_ARGUMENTS[entry]
    by_int, by_float = call(2), call(2.0)
    assert type(by_float) is type(by_int) and np.array_equal(by_float, by_int)
    if isinstance(by_int, np.ndarray):
        assert by_float.tobytes() == by_int.tobytes()
    for bad in (2.5, True, np.True_, math.inf, math.nan, out_of_range):
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            call(bad)


#: Each entry point that takes a real number: (name its errors start with, call of the
#: value, a value in range).  validate()'s delta is the reference the others follow.
REAL_ARGUMENTS = {
    "ModelParams.delta": ("delta", lambda v: ModelParams(L=16, delta=v).delta, 1.5),
    "ModelParams.alpha": ("alpha", lambda v: ModelParams(L=16, alpha=v).alpha, 0.5),
    "bessel_j_sequence.x": ("x", lambda v: bessel_j_sequence(3, v), 1.5),
    "bessel_reference_entropy.t": ("t", lambda v: bessel_reference_entropy(v, 20), 0.5),
    "validate.delta": ("delta", lambda v: _validated(make_config("fig1", L=[16], m=[1], delta=v)).delta, 1.5),
}


@pytest.mark.parametrize("entry", REAL_ARGUMENTS)
def test_every_real_argument_follows_one_rule(entry):
    """Any real number reads as its float; a bool (Python's or numpy's), a string, a
    complex number and NaN raise ValueError, whose message starts with the argument's name."""
    name, call, value = REAL_ARGUMENTS[entry]
    by_float = call(value)
    for same in (np.float64(value), Fraction(value)):
        assert type(call(same)) is type(by_float) and np.array_equal(call(same), by_float)
    for bad in (True, np.True_, str(value), complex(value), math.nan):
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            call(bad)


def test_dense_solves_do_not_recheck_the_matrices_they_build(monkeypatch):
    # rings, and open chains without dstevd, are solved from checked diagonals;
    # eigendecompose checks only the matrices that callers pass in
    params, phis = ModelParams(L=16, delta=1.3, bc="periodic"), [0.4, 2.2, 5.0]
    diag, expected = chain_diagonals(params, phis), eigendecompose(build_hamiltonian(params, phis))

    def unreachable(h):
        raise AssertionError("a matrix built from checked diagonals was checked again")

    monkeypatch.setattr(model, "_checked_entries", unreachable)
    ring = chain_eigensystem(diag, periodic=True)
    assert np.array_equal(ring.energies, expected.energies) and np.array_equal(ring.vectors, expected.vectors)
    for states in (Window(4), Quench(16, [0.0, 1.0])):
        phase_table([params], 3, 0, states, [1, 4], ("real",))
    monkeypatch.setattr(model, "_DSTEVD", None)
    assert chain_eigensystem(diag).vectors.shape == (3, 16, 16)


def test_integer_is_exact_beyond_the_float_range():
    assert integer(10**400, "seed", 0) == 10**400
    assert integer(np.float64(2.0**60), "L", 2) == 2**60
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got -1$"):
        integer(-1, "seed", 0)
    with pytest.raises(ValueError, match=r"^order must lie in 0\.\.300, got 2\.5$"):
        integer(2.5, "order", 0, 300)
    assert phase_sequence(10**400, 8, 1.0, 2).shape == (2,)


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


@pytest.mark.parametrize("L, p", [(144, 89), (610, 377)])
def test_momentum_basis_in_dual_order_is_the_dual_chain(L, p):
    # Aubry-Andre self-duality on an even ring with alpha = p/L and phi = 2 pi r/L:
    # read in plane waves in the dual order n_k = p k mod L, H(delta, phi) is
    # (delta/2) H(4/delta, pi - 2 pi p/L) in sites.  The hopping -2 cos(2 pi p k/L)
    # becomes the potential, the potential a hopping whose phase gauges away since
    # L phi is a multiple of 2 pi, and whose sign gauges away by (-1)^k.  Measured:
    # spectra within 2.8e-12, entropies within 4.7e-9 (1.1e-9 at L=144); with the
    # golden ratio in place of p/L the spectra differ by up to 0.13.
    order = p * np.arange(L) % L
    for delta in (0.5, 1.0, 2.0, 3.0, 4.0):
        waves = eigendecompose(build_hamiltonian(ModelParams(L=L, delta=delta, alpha=p / L, bc="periodic"),
                                                 2 * math.pi * 3 / L))
        sites = eigendecompose(build_hamiltonian(ModelParams(L=L, delta=4 / delta, alpha=p / L, bc="periodic"),
                                                 math.pi - 2 * math.pi * p / L))
        assert np.abs(waves.energies * (2 / delta) - sites.energies).max() < 1e-11, delta
        # exact degeneracies make single eigenvectors arbitrary, the weights averaged
        # over a cluster of levels within 1e-5 of each other are not
        clusters = np.split(np.arange(L), np.flatnonzero(np.diff(sites.energies) > 1e-5) + 1)
        dual = np.abs(to_momentum(waves.vectors, axis=0)[order]) ** 2
        waves_w, sites_w = ([w[:, c].mean(axis=1) for c in clusters] for w in (dual, sites.vectors**2))
        for m in (1, 2):
            assert np.abs(uniform_block_entropy(np.array(waves_w), m)
                          - uniform_block_entropy(np.array(sites_w), m)).max() < 1e-7, (delta, m)
