"""Eigenstate-ensemble statistics, fits, fluctuation metric, and size
scaling read from fig4 runs."""

import csv
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from obsent import (
    EigenSystem,
    ModelParams,
    build_hamiltonian,
    eigendecompose,
    eigenstate_entropy_table,
    fit_log_slope,
    make_config,
    normalized_fluctuation,
    resolve_mid_count,
    run,
)
from obsent.sampling import Window


def diag_system(energies):
    e = np.asarray(energies, dtype=float)
    return EigenSystem(energies=e, vectors=np.eye(e.size))


def test_mid_spectrum_picks_nearest_zero():
    eig = diag_system([-2.0, -1.0, 1.0, 2.0])
    states = Window(2)(eig)
    picked = [int(np.argmax(s)) for s in states]
    assert picked == [1, 2]  # energies -1 and +1


def test_mid_spectrum_all_and_overflow():
    eig = diag_system([-1.0, 0.0, 1.0])
    assert len(Window(3)(eig)) == 3
    with pytest.raises(ValueError):
        Window(4)(eig)


def test_mid_spectrum_tie_break_deterministic():
    eig = diag_system([-1.0, 1.0, -3.0, 3.0])
    states = Window(1)(eig)
    assert int(np.argmax(states[0])) == 0  # |E| tie broken toward lower index


def test_mid_spectrum_symmetric_selection():
    # free open chain has a spectrum symmetric about zero, so the selected
    # energies come in +/- pairs
    h = build_hamiltonian(ModelParams(L=8, delta=0.0))
    eig = eigendecompose(h)
    picked = sorted(float(s @ h @ s) for s in Window(4)(eig))
    assert_allclose(picked, sorted(-x for x in picked), atol=1e-12)


def test_resolve_mid_count():
    assert resolve_mid_count(10, 256) == 10
    assert resolve_mid_count(10, 4) == 4  # capped at the spectrum size
    assert resolve_mid_count("all", 64) == 64
    assert resolve_mid_count("L/8", 256) == 32
    assert resolve_mid_count("L/8", 8) == 2  # floor of 2 states
    with pytest.raises(ValueError):
        resolve_mid_count("middle", 64)
    with pytest.raises(ValueError):
        resolve_mid_count(0, 64)


def test_ground_state_free_ring_is_maximal_for_every_m():
    L = 64
    for m in (1, 2, 8, 64):
        mean, _ = eigenstate_entropy_table(
            L, 0.0, [m], n_phi=2, seed=0, selector="ground", bc="periodic"
        )[(m, "real")]
        assert abs(mean - math.log(L)) < 1e-8


def test_deep_localized_limit_tracks_log_m():
    for m in (8, 16, 64):
        mean, _ = eigenstate_entropy_table(64, 10.0, [m], n_phi=10, seed=1)[(m, "real")]
        assert abs(mean - math.log(m)) < 0.1


def test_delocalized_saturates_to_log_dim():
    L = 256
    mean, _ = eigenstate_entropy_table(L, 1.0, [L // 8], n_phi=10, seed=0)[(L // 8, "real")]
    assert abs(mean - math.log(L)) < 0.05


def test_sweep_determinism_and_composition_independence():
    a = eigenstate_entropy_table(32, 2.0, [4], n_phi=6, seed=9)[(4, "real")]
    b = eigenstate_entropy_table(32, 2.0, [4], n_phi=6, seed=9)[(4, "real")]
    assert a == b
    # the same grid point inside a larger sweep sees identical realizations
    table = eigenstate_entropy_table(32, 2.0, [1, 4, 8], ("real", "momentum"), n_phi=6, seed=9)
    assert table[(4, "real")][0] == a[0]


def test_normalized_fluctuation_examples():
    assert normalized_fluctuation([3.3, 3.3, 3.3, 3.3]) == 0.0
    assert_allclose(normalized_fluctuation([1.0, 3.0]), 0.5, atol=1e-15)


def test_normalized_fluctuation_scale_free():
    vals = [1.1, 2.3, 1.9, 2.8]
    assert_allclose(
        normalized_fluctuation(vals),
        normalized_fluctuation([17.0 * v for v in vals]),
        atol=1e-14,
    )


def test_normalized_fluctuation_errors():
    with pytest.raises(ValueError):
        normalized_fluctuation([1.0])
    with pytest.raises(ValueError):
        normalized_fluctuation([-1.0, 1.0])


def test_fit_log_slope_synthetic():
    t = np.geomspace(0.5, 50.0, 30)
    fit = fit_log_slope(t, 2.0 * np.log(t) + 1.0, (1.0, 40.0))
    assert_allclose([fit.slope, fit.intercept, fit.r_squared], [2.0, 1.0, 1.0], atol=1e-12)


def test_fit_log_slope_needs_points():
    t = np.array([1.0, 2.0, 40.0, 50.0, 60.0])
    with pytest.raises(ValueError):
        fit_log_slope(t, np.log(t), (3.0, 30.0))


def fig4_size_growth(out, **overrides) -> dict:
    """S(128) - S(64) at m=2 per (basis, delta), from the fig4.csv of one run."""
    run(make_config("fig4", L=[64, 128], m=[2], out=out, **overrides))
    with open(out / "fig4.csv", newline="") as fh:
        mean = {(r["basis"], float(r["delta"]), int(r["L"])): float(r["mean_S"])
                for r in csv.DictReader(fh)}
    return {(basis, delta): mean[(basis, delta, 128)] - mean[(basis, delta, 64)]
            for basis, delta, L in mean if L == 64}


def test_fig4_delocalized_growth(tmp_path):
    growth = fig4_size_growth(tmp_path, delta=[1.0], n_phi=20, seed=4)
    assert abs(growth[("real", 1.0)] - math.log(2.0)) < 0.15


def test_duality_sign_flip(tmp_path):
    # the size-growth indicator changes sign between bases on both sides of
    # the transition: growth tracks ln2 in the basis where states spread
    # and stays near zero in the basis where they localize.
    threshold = 0.5 * math.log(2.0)
    growth = fig4_size_growth(tmp_path, delta=[1.0, 3.0], n_phi=30, seed=7)
    for delta, growing_basis in ((1.0, "real"), (3.0, "momentum")):
        signs = {basis: growth[(basis, delta)] - threshold for basis in ("real", "momentum")}
        assert signs[growing_basis] > 0.0
        other = "momentum" if growing_basis == "real" else "real"
        assert signs[other] < 0.0


def test_kinetic_momentum_ordering():
    from obsent import kinetic_index_order

    L = 32
    perm = kinetic_index_order(L)
    assert sorted(perm.tolist()) == list(range(L))
    o = -2.0 * np.cos(2.0 * math.pi * np.arange(L) / L)
    assert np.all(np.diff(o[perm]) >= -1e-15)
    # pair blocks see the same consecutive-pair sums either way because the
    # momentum distribution of a real Hamiltonian is symmetric under k -> -k,
    # so m=2 entropies agree between the index and kinetic orderings
    index = eigenstate_entropy_table(L, 1.5, [2, 4], ("momentum",), n_phi=4, seed=2)
    kinetic = eigenstate_entropy_table(L, 1.5, [2, 4], ("momentum",), n_phi=4, seed=2,
                                       momentum_order="kinetic")
    assert abs(index[(2, "momentum")][0] - kinetic[(2, "momentum")][0]) < 1e-12
    for key, (mean, _) in kinetic.items():
        assert 0.0 <= mean <= math.log(L) + 1e-10
