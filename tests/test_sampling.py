"""Chunked phase-realization engine against a per-phase scalar reference."""

import ast
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsent import (
    ModelParams,
    build_hamiltonian,
    chain_diagonals,
    chain_eigensystem,
    eigendecompose,
    eigenstate_entropy_table,
    evolve_many,
    kinetic_index_order,
    phase_sequence,
    quench_entropy_table,
    site_state,
    to_momentum,
    uniform_block_entropy,
)
from obsent import model, sampling
from obsent.sampling import Window, chunk_size, phase_table, window_rows

import reference


def scalar_entropies(states, L, m_list, basis_tag, momentum_order):
    """{m: entropy per state} from the plain-Python reference over contiguous blocks."""
    if basis_tag == "momentum":
        perm = kinetic_index_order(L) if momentum_order == "kinetic" else np.arange(L)
        states = [to_momentum(psi)[perm] for psi in states]
    return {
        m: np.array([reference.observational_entropy(np.abs(psi) ** 2, reference.contiguous_blocks(L, m))
                     for psi in states])
        for m in m_list
    }


def mean_and_stderr(samples):
    samples = np.asarray(samples)
    return samples.mean(axis=0), samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])


def phase_eigensystems(L, delta, n_phi, seed, bc):
    for phi in phase_sequence(seed, L, delta, n_phi):
        yield eigendecompose(build_hamiltonian(ModelParams(L=L, delta=delta, phi=phi, bc=bc)))


def recorded_weights(monkeypatch):
    """The list that gains the weights of every call that reaches sampling.uniform_block_entropy."""
    seen = []

    def recording(amp2, m):
        seen.append(amp2)
        return uniform_block_entropy(amp2, m)

    monkeypatch.setattr(sampling, "uniform_block_entropy", recording)
    return seen


def test_chunk_size_depends_on_L_only():
    assert [chunk_size(L) for L in (16, 32, 64, 128, 256, 512)] == [128, 32, 8, 2, 1, 1]


def test_lane_chunk_size_depends_on_L_and_window_only():
    assert [chunk_size(L, L // 8) for L in (16, 64, 128, 256, 512)] == [1024, 64, 16, 4, 1]
    assert chunk_size(256, 10) == 12


def dense_window(params, phis, window):
    """The window's rows from dense eigh of the chains at ``phis``."""
    return window(eigendecompose(build_hamiltonian(params, phis)))


def full_window(params, phis, window):
    """The window's rows from the full eigensystem of the chains ``sampling`` builds."""
    return window(chain_eigensystem(sampling.chain_diagonals(params, phis)))


def block_entropies(rows, m):
    k_rows = to_momentum(rows, axis=-1)
    return uniform_block_entropy(np.abs(rows) ** 2, m), uniform_block_entropy(np.abs(k_rows) ** 2, m)


@settings(max_examples=60, deadline=None)
@given(
    L=st.sampled_from((8, 16, 32, 64, 128)),
    delta=st.floats(0.0, 6.0),
    phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
    size=st.floats(0.0, 1.0),
    selector=st.sampled_from(("mid", "ground")),
)
def test_window_rows_match_dense_eigh(L, delta, phi, size, selector):
    params, phis = ModelParams(L=L, delta=delta), np.array([phi])
    window = Window(1 + int(size * (L - 1)), selector)
    rows = window_rows(params, phis, window)
    dense = dense_window(params, phis, window)  # Window(count)(eig) of dense eigh
    assert np.abs(rows @ rows.swapaxes(-1, -2) - np.eye(window.count)).max() <= 1e-10
    for m in (1, 2, L // 2):
        for new, old in zip(block_entropies(rows, m), block_entropies(dense, m)):
            assert np.abs(new - old).max() <= 1e-10


def fixed_diagonals(diag):
    """Stand-in for chain_diagonals: every phase gets the on-site energies ``diag``."""
    return lambda params, phis: np.tile(diag, (len(phis), 1))


def wells(twin):
    """On-site energies of 32 sites: two equally deep wells 20 sites apart in a
    strong potential of period 10 bind a pair of states split by far less than
    GAP_MIN; one well alone (``twin`` false) does not."""
    diag = 4.0 * np.cos(2.0 * math.pi * np.arange(32) / 10)
    diag[5] = -20.0
    if twin:
        diag[25] = -20.0
    return diag


@pytest.mark.parametrize("twin", [True, False], ids=["near-degenerate", "control"])
def test_near_degenerate_window_takes_dense_path(monkeypatch, twin):
    diag = wells(twin)
    monkeypatch.setattr(sampling, "chain_diagonals", fixed_diagonals(diag))
    params, phis, window = ModelParams(L=32), np.zeros(1), Window(1, "ground")
    fallbacks = Counter()
    rows = window_rows(params, phis, window, fallbacks)
    dense = full_window(params, phis, window)
    assert fallbacks["near_degenerate"] == twin
    if twin:
        assert np.array_equal(rows, dense)
    else:
        assert np.abs(rows**2 - dense**2).max() < 1e-12


def test_window_rows_of_a_block_equal_per_phase_blocks(monkeypatch):
    # phase 0.0 gets the twin wells, whose ground pair is near-degenerate
    chain_diagonals_of = sampling.chain_diagonals

    def diagonals(params, phis):
        diag = chain_diagonals_of(params, phis)
        diag[phis == 0.0] = wells(True)
        return diag

    monkeypatch.setattr(sampling, "chain_diagonals", diagonals)
    params, phis, window = ModelParams(L=32, delta=1.5), np.array([0.4, 0.0, 2.2, 5.0, 0.0]), Window(2, "ground")
    block, per_phase = Counter(), Counter()
    rows = window_rows(params, phis, window, block)
    single = np.concatenate([window_rows(params, phis[p:p + 1], window, per_phase) for p in range(len(phis))])
    assert block == per_phase == {"near_degenerate": 2}
    assert np.array_equal(rows, single)
    assert np.array_equal(rows[1], full_window(params, phis[1:2], window)[0])


@pytest.mark.parametrize("L, n, n_phi, blocks, chunk", [
    (512, 64, 25, [8, 8, 8, 1], 1),  # chunk_size(512, 64) = 1 phase, a block is L // n = 8
    (256, 32, 10, [8, 2], 4),
    (128, 16, 20, [16, 4], 16),  # chunk_size already holds at least L lanes
])
def test_lane_blocks_hold_at_least_L_lanes(monkeypatch, L, n, n_phi, blocks, chunk):
    params, window, seen = ModelParams(L=L, delta=1.0), Window(n), []

    def recording(params, phis, window, fallbacks=None):
        seen.append(len(phis))
        return window_rows(params, phis, window, fallbacks)

    monkeypatch.setattr(sampling, "window_rows", recording)
    weights = recorded_weights(monkeypatch)
    phase_table(params, n_phi, 7, window, [1], ("real", "momentum"))
    chunks = weights[1::2]  # each chunk reduces its real weights, then its momentum weights
    assert seen == blocks and chunk == chunk_size(L, n)
    assert [len(c) for c in chunks] == [min(chunk, b - s) for b in blocks for s in range(0, b, chunk)]
    rows = window_rows(params, phase_sequence(7, L, 1.0, n_phi), window)
    k_rows = to_momentum(rows, axis=-1)
    assert np.array_equal(np.concatenate(chunks), np.abs(k_rows) ** 2)


@pytest.mark.parametrize("route", ["lapack", "numpy-dense"])
def test_lane_block_peak_memory_stays_within_a_dense_fallback(monkeypatch, route):
    # One fig4-sized grid point that also takes dense fallbacks: the block's
    # pivots and vectors (2*8*L**2 bytes) never coexist with a full eigensystem,
    # and the dense route builds one L x L matrix at a time.
    if route == "numpy-dense":
        monkeypatch.setattr(model, "_DSTERF", None)
        monkeypatch.setattr(model, "_DSTEVD", None)
    L, fallbacks = 512, Counter()
    tracemalloc.start()
    try:
        eigenstate_entropy_table(L, 2.5, (1, 2, 4, 8), ("real", "momentum"), n_phi=25, seed=42,
                                 mid_count="L/8", fallbacks=fallbacks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fallbacks["near_degenerate"] > 0
    assert peak <= 3 * 8 * L**2


def test_window_edge_tie_takes_dense_path():
    # At delta = 0 the open chain's spectrum is symmetric about zero, so an
    # odd mid window ends on a |E| tie that rounding alone would decide.
    params, phis, window = ModelParams(L=16), np.zeros(1), Window(9)
    fallbacks = Counter()
    rows = window_rows(params, phis, window, fallbacks)
    assert fallbacks == {"window_tie": 1}
    assert np.array_equal(rows, Window(9)(chain_eigensystem(chain_diagonals(params, phis))))


def test_inaccurate_vectors_take_dense_path(monkeypatch):
    params, phis, window = ModelParams(L=32, delta=1.3), np.array([0.4, 2.2, 5.0]), Window(4)

    def garbled(diag, energies):
        rows = np.ones(energies.shape + diag.shape[-1:]) / math.sqrt(diag.shape[-1])
        rows[1] = np.nan
        return rows

    monkeypatch.setattr(sampling, "chain_eigenvectors", garbled)
    fallbacks = Counter()
    rows = window_rows(params, phis, window, fallbacks)
    assert fallbacks == {"inaccurate": 3}
    assert np.array_equal(rows, full_window(params, phis, window))


@pytest.mark.parametrize("selector", ["mid", "ground"])
@pytest.mark.parametrize("L", [2, 16])
def test_huge_delta_falls_back_without_warnings(L, selector):
    # the suite turns RuntimeWarnings into errors, so an overflow warning fails here
    fallbacks = Counter()
    table = eigenstate_entropy_table(L, 1.7e308, [1, L], n_phi=3, mid_count=2, selector=selector,
                                     fallbacks=fallbacks)
    assert table[(1, "real")][0] == pytest.approx(0.0, abs=1e-12)
    assert table[(L, "real")][0] == pytest.approx(math.log(L), abs=1e-12)
    assert fallbacks == {"inaccurate": 3}


def test_chunks_cover_every_phase_in_order(monkeypatch):
    params, chunks = ModelParams(L=64, delta=1.0), recorded_weights(monkeypatch)
    phase_table(params, 37, 5, lambda eig: eig.vectors[..., :2].swapaxes(-1, -2), [1], ("real",))
    assert [c.shape for c in chunks] == [(8, 2, 64)] * 4 + [(5, 2, 64)]
    single = list(phase_eigensystems(64, 1.0, 37, 5, "open"))
    batched = np.concatenate(chunks)
    for r in (0, 7, 8, 36):
        assert np.array_equal(batched[r], np.abs(single[r].vectors[:, :2].T) ** 2)


def test_window_rejects_unknown_selector():
    with pytest.raises(ValueError, match="selector must be 'mid' or 'ground', got 'bogus'"):
        Window(3, "bogus")


def test_eigenstate_table_rejects_selector_before_solving(monkeypatch):
    def unreachable(diag):
        raise AssertionError("a phase was solved")

    monkeypatch.setattr(sampling, "chain_eigenvalues", unreachable)
    with pytest.raises(ValueError, match="selector must be 'mid' or 'ground', got 'bogus'"):
        eigenstate_entropy_table(16, 1.0, [1], selector="bogus")


def test_phase_table_rejects_unknown_basis(monkeypatch):
    monkeypatch.setattr(sampling, "chain_eigenvalues", None)  # fails if a phase is solved
    with pytest.raises(ValueError, match="basis tags must be among"):
        phase_table(ModelParams(L=16), 2, 0, Window(2), [1], ("real", "position"))


def test_one_loop_over_phases_and_one_reduction():
    # every phase average draws its phases and reduces its weights in phase_table alone
    callers = set()

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("phase_sequence", "uniform_block_entropy"):
                callers.add((name, module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted(Path(sampling.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert callers == {("phase_sequence", "sampling", "phase_table"),
                       ("uniform_block_entropy", "sampling", "phase_table")}


@pytest.mark.parametrize(
    "L, n_phi, bases, bc, selector, momentum_order",
    [
        (64, 37, ("real", "momentum"), "open", "mid", "index"),
        (64, 37, ("momentum",), "periodic", "mid", "kinetic"),
        (16, 9, ("real", "momentum"), "periodic", "ground", "kinetic"),
        (32, 41, ("real",), "open", "ground", "index"),
    ],
)
def test_eigenstate_table_matches_scalar_reference(L, n_phi, bases, bc, selector, momentum_order):
    delta, seed, m_list, count = 1.7, 3, (1, 2, 4), 6
    table = eigenstate_entropy_table(L, delta, m_list, bases, n_phi=n_phi, seed=seed, mid_count=count,
                                     selector=selector, bc=bc, momentum_order=momentum_order)
    per_phase = {(m, b): [] for m in m_list for b in bases}
    for eig in phase_eigensystems(L, delta, n_phi, seed, bc):
        states = eig.vectors[:, :1].T if selector == "ground" else Window(count)(eig)
        for b in bases:
            for m, values in scalar_entropies(states, L, m_list, b, momentum_order).items():
                per_phase[(m, b)].append(values.mean())
    assert set(table) == set(per_phase)
    for key, samples in per_phase.items():
        mean, stderr = mean_and_stderr(samples)
        assert abs(table[key][0] - mean) < 1e-12
        assert abs(table[key][1] - stderr) < 1e-12


@pytest.mark.parametrize(
    "L, basis_tag, bc, momentum_order",
    [(32, "real", "open", "index"), (32, "momentum", "periodic", "kinetic"), (64, "real", "periodic", "index")],
)
def test_quench_table_matches_scalar_reference(L, basis_tag, bc, momentum_order):
    delta, seed, n_phi, m_list = 1.2, 4, 37, (1, 4, L)
    times = np.array([0.0, 0.3, 1.0, 4.0, 12.0])
    table = quench_entropy_table(ModelParams(L=L, delta=delta, bc=bc), times, m_list, n_phi=n_phi,
                                 seed=seed, basis_tag=basis_tag, momentum_order=momentum_order)
    psi0 = site_state(L, L // 2)
    per_phase = {m: [] for m in m_list}
    for eig in phase_eigensystems(L, delta, n_phi, seed, bc):
        for m, values in scalar_entropies(evolve_many(eig, psi0, times), L, m_list, basis_tag,
                                          momentum_order).items():
            per_phase[m].append(values)
    for m, samples in per_phase.items():
        mean, stderr = mean_and_stderr(samples)
        assert np.abs(table[m][0] - mean).max() < 1e-12
        assert np.abs(table[m][1] - stderr).max() < 1e-12
