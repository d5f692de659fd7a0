"""Quench evolution, quench entropy tables, and Bessel machinery."""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from obsent import (
    ModelParams,
    bessel_j,
    bessel_j_sequence,
    bessel_reference_entropy,
    build_hamiltonian,
    eigendecompose,
    evolve_many,
    fit_log_slope,
    quench_entropy_table,
    site_state,
)


def bessel_series_oracle(n, x, terms=60):
    """Ascending power series sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!)."""
    mp.mp.dps = 50
    x = mp.mpf(x)
    total = mp.mpf(0)
    for k in range(terms):
        total += (-1) ** k * (x / 2) ** (n + 2 * k) / (mp.factorial(k) * mp.factorial(n + k))
    return float(total)


def free_ring_eig(L):
    return eigendecompose(build_hamiltonian(ModelParams(L=L, delta=0.0, bc="periodic")))


def test_evolve_t0_is_identity():
    eig = free_ring_eig(32)
    psi0 = site_state(32, 16)
    assert np.abs(evolve_many(eig, psi0, np.array([0.0]))[0] - psi0).max() < 1e-14


def test_evolve_preserves_norm():
    eig = eigendecompose(build_hamiltonian(ModelParams(L=48, delta=2.3, phi=0.7)))
    psi0 = site_state(48, 24)
    for t in (0.3, 2.0, 17.5):
        assert abs(np.linalg.norm(evolve_many(eig, psi0, np.array([t]))[0]) - 1.0) < 1e-10


def test_evolve_rejects_negative_time_and_bad_shape():
    eig = free_ring_eig(8)
    with pytest.raises(ValueError):
        evolve_many(eig, site_state(8, 4), np.array([-1.0]))[0]
    with pytest.raises(ValueError):
        evolve_many(eig, site_state(16, 4), np.array([1.0]))[0]


def test_evolve_rejects_overflowing_phases():
    eig = eigendecompose(build_hamiltonian(ModelParams(L=8, delta=1e307, phi=0.3)))
    with pytest.raises(FloatingPointError, match="t \\* E overflows"):
        evolve_many(eig, site_state(8, 4), np.array([0.0, 1.0, 50.0]))
    assert np.all(np.isfinite(evolve_many(eig, site_state(8, 4), np.array([0.0, 1.0]))))


def test_free_ring_amplitudes_are_bessel():
    # |<j|psi(t)>| = |J_{j-j0}(2t)| while the wavefront is far from the edge
    L = 256
    eig = free_ring_eig(L)
    psi0 = site_state(L, L // 2)
    half = L // 2
    for t in (1.0, 4.0, 10.0):
        psi_t = evolve_many(eig, psi0, np.array([t]))[0]
        j = bessel_j_sequence(half, 2.0 * t)
        orders = np.abs(np.arange(1, L + 1) - half)
        assert np.abs(np.abs(psi_t) - np.abs(j[orders])).max() < 1e-6


def test_quench_spec_validation():
    params = ModelParams(L=8)
    times = np.array([0.0, 1.0])
    default = quench_entropy_table(params, times, [1], n_phi=2, seed=0)
    middle = quench_entropy_table(params, times, [1], n_phi=2, seed=0, initial_site=4)
    assert np.array_equal(default[1][0], middle[1][0])
    with pytest.raises(ValueError):
        quench_entropy_table(params, np.array([-1.0, 0.5]), [1], n_phi=2, seed=0)
    with pytest.raises(ValueError):
        quench_entropy_table(params, times, [1], n_phi=2, seed=0, initial_site=9)


def test_quench_series_start_values():
    params = ModelParams(L=16, delta=1.0)
    table = quench_entropy_table(params, np.array([0.0, 0.5]), [1, 2, 4], n_phi=3, seed=1)
    assert table[1][0][0] < 1e-12  # exact zero up to eigenbasis round-trip noise
    for m in (2, 4):
        assert_allclose(table[m][0][0], math.log(m), atol=1e-12)


def test_quench_series_roughest_is_log_dim():
    params = ModelParams(L=16, delta=2.0)
    table = quench_entropy_table(params, np.array([0.0, 1.0, 5.0]), [16], n_phi=2, seed=0)
    assert_allclose(table[16][0], math.log(16), atol=1e-12)


def test_quench_series_metadata_and_spread():
    params = ModelParams(L=8, delta=1.5)
    mean, spread = quench_entropy_table(params, np.array([0.2, 1.0]), [2], n_phi=4, seed=3)[2]
    assert np.all(spread >= 0.0)
    assert np.all(mean <= math.log(8) + 1e-10)


def test_localized_phase_shows_no_log_growth():
    # deep in the localized phase the phase-averaged entropy saturates and
    # oscillates; a log-time fit over late times has essentially no slope
    params = ModelParams(L=128, delta=3.0)
    times = np.geomspace(5.0, 100.0, 25)
    table = quench_entropy_table(params, times, [1], n_phi=40, seed=8)
    fit = fit_log_slope(times, table[1][0], (10.0, 100.0))
    assert abs(fit.slope) < 0.05
    assert table[1][0].max() - table[1][0][times > 10.0].min() < 1.0


def test_off_center_initial_site():
    params = ModelParams(L=16, delta=1.0)
    table = quench_entropy_table(params, np.array([0.0]), [4], n_phi=2, seed=0,
                                 initial_site=3)
    assert_allclose(table[4][0][0], math.log(4), atol=1e-12)
    table = quench_entropy_table(params, np.array([0.0]), [8], n_phi=2, seed=0, initial_site=1)
    assert_allclose(table[8][0][0], math.log(8), atol=1e-12)


def test_quench_order_relations_small():
    params = ModelParams(L=32, delta=1.0)
    times = np.concatenate([[0.0], np.geomspace(0.1, 20.0, 12)])
    table = quench_entropy_table(params, times, [1, 2, 4, 8, 16, 32], n_phi=5, seed=2)
    for m in (1, 2, 4, 8, 16, 32):
        mean = table[m][0]
        assert np.all(mean >= mean[0] - 1e-12)
    for fine, rough in ((1, 2), (2, 4), (4, 8), (8, 16), (16, 32)):
        assert np.all(table[rough][0] >= table[fine][0] - 1e-12)


# --- Bessel ---------------------------------------------------------------


def test_bessel_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    for n in (1, 2, 7, 300):
        assert bessel_j(n, 0.0) == 0.0


def test_bessel_j0_frozen_value():
    # frozen from the ascending power series oracle (>= 30 terms)
    oracle = bessel_series_oracle(0, 2.0)
    assert abs(oracle - 0.2238907791412357) < 1e-15
    assert abs(bessel_j(0, 2.0) - 0.2238907791412357) < 1e-13


def test_bessel_negative_order_parity():
    for n in (1, 2, 5):
        assert bessel_j(-n, 3.3) == (-1.0) ** n * bessel_j(n, 3.3)


def test_bessel_matches_series_oracle():
    xs = np.linspace(0.4, 20.0, 25)
    for n in (0, 1, 3, 11):
        for x in xs:
            assert abs(bessel_j(n, float(x)) - bessel_series_oracle(n, float(x))) < 1e-12


def test_bessel_sum_rule():
    for x in (0.5, 7.0, 60.0):
        j = bessel_j_sequence(300, x)
        assert abs(j[0] ** 2 + 2.0 * (j[1:] ** 2).sum() - 1.0) < 1e-12


def test_bessel_range_checks():
    with pytest.raises(ValueError):
        bessel_j(301, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, -0.5)
    with pytest.raises(ValueError):
        bessel_j(0, 101.0)


def test_reference_entropy_at_zero():
    assert bessel_reference_entropy(0.0, 256) == 0.0


def test_reference_entropy_matches_simulation():
    L = 256
    table = quench_entropy_table(
        ModelParams(L=L, delta=0.0, bc="periodic"), np.array([5.0]), [1], n_phi=1, seed=0
    )
    ref = bessel_reference_entropy(5.0, L)
    assert abs(table[1][0][0] - ref) < 1e-3


def test_reference_entropy_log_growth():
    # ln t + const asymptotics; the local slope converges to 1 from below,
    # so the check sits at late times where the transient has decayed.
    ts = np.geomspace(20.0, 50.0, 16)
    s = np.array([bessel_reference_entropy(t, 512) for t in ts])
    fit = fit_log_slope(ts, s, (20.0, 50.0))
    assert abs(fit.slope - 1.0) < 0.1


def test_reference_entropy_span_guard():
    with pytest.raises(ValueError):
        bessel_reference_entropy(30.0, 64)
    with pytest.raises(ValueError):
        bessel_reference_entropy(1.0, 7)
