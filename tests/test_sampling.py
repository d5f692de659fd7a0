"""Chunked phase-realization engine against a per-phase scalar reference."""

import ast
import math
import subprocess
import sys
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
from obsent.analysis import eigenstate_window
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


#: The package's phase stream: the first phases of a few keys (seed, L, delta).
PINNED_PHASES = {
    (0, 2, 0.0): (0.5078324153998789, 2.528591221707902, 3.778011505998807),
    (0, 512, 1.0): (4.871554947551244, 0.9938397098707038, 1.432598223235378),
    (42, 2, 5e-324): (2.998689073708555, 3.4441661148848315, 4.596179511117724),
    (42, 512, 1.7e308): (3.009741199791436, 1.9985153454497695, 3.0795591423248596),
    (42, 512, 1.0): (5.156111802229748, 2.1823546983565825, 5.793552755202288),
    (2**70 + 3, 2, 1.0): (0.5677707069996313, 1.7500629384326287, 5.830472004349655),
    (2**70 + 3, 512, 0.0): (0.08348627320122108, 5.780591636108762, 3.083745680780797),
    (2**70 + 3, 512, 5e-324): (4.1227282508911225, 3.475462040217813, 3.7603619257277665),
}


@pytest.mark.parametrize("key", PINNED_PHASES, ids=str)
def test_phase_sequence_pinned_values(key):
    phases = phase_sequence(*key, n_phi=3)
    assert phases.dtype == np.float64 and phases.shape == (3,)
    assert phases.tolist() == list(PINNED_PHASES[key])
    assert phase_sequence(*key, n_phi=1).tolist() == list(PINNED_PHASES[key][:1])


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**70 + 3, 2**130 + 11])
def test_phase_sequence_equals_numpy_generator(seed):
    """The stream is numpy's default_rng(SeedSequence([seed, L, bits(delta)])).uniform(0, 2 pi)."""
    for L in (2, 3, 16, 512, 2**40):
        for delta in (0.0, -0.0, 0.2, 1.0, 2.5, 5e-324, 1e300, 1.7e308):
            bits = int(np.float64(delta).view(np.uint64))
            rng = np.random.default_rng(np.random.SeedSequence([seed, L, bits]))
            expected = rng.uniform(0.0, 2 * math.pi, 40)
            assert phase_sequence(seed, L, delta, 40).tobytes() == expected.tobytes(), (seed, L, delta)


def test_phase_sequence_checks_its_arguments():
    with pytest.raises(ValueError, match="seed"):
        phase_sequence(-1, 16, 1.0, 4)
    with pytest.raises(ValueError, match="n_phi"):
        phase_sequence(0, 16, 1.0, 0)


def test_runs_never_import_numpy_random(tmp_path):
    script = """
import contextlib, io, sys
from obsent.cli import main
runs = [("fig1", "--L", "16", "--m", "1,2"), ("fig3", "--L", "16", "--m", "1,4"),
        ("fig4", "--L", "16,32", "--delta", "1,2", "--m", "1,2"),
        ("fig5", "--L", "16,32", "--delta", "1,2", "--m", "1,2")]
with contextlib.redirect_stdout(io.StringIO()):
    for preset, *flags in runs:
        assert main(["run", "--preset", preset, *flags, "--n-phi", "3", "--out", sys.argv[1] + "/" + preset]) == 0
print(sorted(name for name in sys.modules if name.startswith("numpy.random")))
"""
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
    assert len(list(tmp_path.glob("*/*.csv"))) == 6


def test_chunk_size_depends_on_L_only():
    assert [chunk_size(L) for L in (16, 32, 64, 128, 256, 512)] == [128, 32, 8, 2, 1, 1]


def test_lane_chunk_size_depends_on_L_and_window_only():
    assert [chunk_size(L, L // 8) for L in (16, 64, 128, 256, 512)] == [1024, 64, 16, 4, 1]
    assert chunk_size(256, 10) == 12


def dense_window(params, phis, window):
    """The window's rows from dense eigh of the chains at ``phis``."""
    return window(eigendecompose(build_hamiltonian(params, phis)))


def full_window(diag, window):
    """The window's rows from the full eigensystem of the chains with diagonals ``diag``."""
    return window(chain_eigensystem(diag))


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
    rows, _ = window_rows(chain_diagonals(params, phis), window)
    dense = dense_window(params, phis, window)  # Window(count)(eig) of dense eigh
    assert np.abs(rows @ rows.swapaxes(-1, -2) - np.eye(window.count)).max() <= 1e-10
    for m in (1, 2, L // 2):
        for new, old in zip(block_entropies(rows, m), block_entropies(dense, m)):
            assert np.abs(new - old).max() <= 1e-10


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
def test_near_degenerate_window_takes_dense_path(twin):
    diag, window = wells(twin)[None], Window(1, "ground")
    rows, reason = window_rows(diag, window)
    dense = full_window(diag, window)
    assert reason == ["near_degenerate" if twin else ""]
    assert Counter(filter(None, reason))["near_degenerate"] == twin
    if twin:
        assert np.array_equal(rows, dense)
    else:
        assert np.abs(rows**2 - dense**2).max() < 1e-12


def test_window_rows_of_a_block_equal_per_phase_blocks():
    # phase 0.0 gets the twin wells, whose ground pair is near-degenerate
    params, phis, window = ModelParams(L=32, delta=1.5), np.array([0.4, 0.0, 2.2, 5.0, 0.0]), Window(2, "ground")
    diag = chain_diagonals(params, phis)
    diag[phis == 0.0] = wells(True)
    rows, reason = window_rows(diag, window)
    per_phase = [window_rows(diag[p:p + 1], window) for p in range(len(phis))]
    single = np.concatenate([rows for rows, _ in per_phase])
    assert reason == [r for _, (r,) in per_phase] == ["", "near_degenerate", "", "", "near_degenerate"]
    assert Counter(filter(None, reason)) == {"near_degenerate": 2}
    assert np.array_equal(rows, single)
    assert np.array_equal(rows[1], full_window(diag[1:2], window)[0])


def with_wells(monkeypatch, marked):
    """Patch sampling.chain_diagonals so that the phases ``marked[delta]`` get the twin wells."""
    chain_diagonals_of = sampling.chain_diagonals

    def diagonals(params, phis):
        diag = chain_diagonals_of(params, phis)
        diag[np.isin(phis, marked.get(params.delta, []))] = wells(True)
        return diag

    monkeypatch.setattr(sampling, "chain_diagonals", diagonals)


def test_shared_blocks_across_deltas_equal_per_delta_tables(monkeypatch):
    # L=32 with a 2-state window takes 512 phases per block, so the block of
    # 2 x 5 realizations straddles the deltas, with a near-degenerate chain on
    # each side of the boundary: the last phase of one delta, the first of the next
    deltas, n_phi, window = (1.5, 2.5), 5, Window(2, "ground")
    grid = [ModelParams(L=32, delta=delta) for delta in deltas]
    phis = [phase_sequence(9, 32, delta, n_phi) for delta in deltas]
    with_wells(monkeypatch, {1.5: phis[0][-1:], 2.5: phis[1][:1]})
    blocks = []

    def recording(diag, window):
        rows, reason = window_rows(diag, window)
        blocks.append(rows)
        return rows, reason

    monkeypatch.setattr(sampling, "window_rows", recording)
    shared, shared_counts = phase_table(grid, n_phi, 9, window, [1, 2], ("real", "momentum"))
    assert [len(b) for b in blocks] == [10]
    single, single_counts = [], Counter()
    for params in grid:
        tables, counts = phase_table([params], n_phi, 9, window, [1, 2], ("real", "momentum"))
        single += tables
        single_counts.update(counts)
    assert [len(b) for b in blocks] == [10, 5, 5]
    assert shared_counts == single_counts == {"near_degenerate": 2}
    assert np.array_equal(blocks[0], np.concatenate(blocks[1:]))
    for table, alone in zip(shared, single):
        assert table.keys() == alone.keys()
        for key in table:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(table[key], alone[key]))


@pytest.mark.parametrize("L, n, n_phi, deltas, blocks, chunk", [
    (512, 64, 25, (1.0,), [8, 8, 8, 1], 1),  # chunk_size(512, 64) = 1 phase, a block is L // n = 8
    (256, 32, 10, (1.0,), [8, 2], 4),
    (128, 16, 20, (1.0,), [16, 4], 16),  # chunk_size already holds at least L lanes
    (512, 64, 25, (0.5, 1.0, 2.5, 3.5), [8] * 12 + [4], 1),  # the deltas of one L share their blocks
], ids=["512-64-25-blocks0-1", "256-32-10-blocks1-4", "128-16-20-blocks2-16", "512-64-4x25-shared"])
def test_lane_blocks_hold_at_least_L_lanes(monkeypatch, L, n, n_phi, deltas, blocks, chunk):
    grid, window, seen = [ModelParams(L=L, delta=delta) for delta in deltas], Window(n), []

    def recording(diag, window):
        seen.append(len(diag))
        return window_rows(diag, window)

    monkeypatch.setattr(sampling, "window_rows", recording)
    weights = recorded_weights(monkeypatch)
    phase_table(grid, n_phi, 7, window, [1], ("real", "momentum"))
    chunks = weights[1::2]  # each chunk reduces its real weights, then its momentum weights
    assert seen == blocks and chunk == chunk_size(L, n)
    assert [len(c) for c in chunks] == [min(chunk, b - s) for b in blocks for s in range(0, b, chunk)]
    diag = np.concatenate([chain_diagonals(p, phase_sequence(7, L, p.delta, n_phi)) for p in grid])
    rows, _ = window_rows(diag, window)
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
    L = 512
    tracemalloc.start()
    try:
        _, fallbacks = phase_table([ModelParams(L=L, delta=2.5)], 25, 42, eigenstate_window(L, "L/8", "mid"),
                                   (1, 2, 4, 8), ("real", "momentum"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fallbacks["near_degenerate"] > 0
    assert peak <= 3 * 8 * L**2


def test_window_edge_tie_takes_dense_path():
    # At delta = 0 the open chain's spectrum is symmetric about zero, so an
    # odd mid window ends on a |E| tie that rounding alone would decide.
    diag, window = chain_diagonals(ModelParams(L=16), np.zeros(1)), Window(9)
    rows, reason = window_rows(diag, window)
    assert Counter(filter(None, reason)) == {"window_tie": 1}
    assert np.array_equal(rows, full_window(diag, window))


def test_inaccurate_vectors_take_dense_path(monkeypatch):
    params, phis, window = ModelParams(L=32, delta=1.3), np.array([0.4, 2.2, 5.0]), Window(4)

    def garbled(diag, energies):
        rows = np.ones(energies.shape + diag.shape[-1:]) / math.sqrt(diag.shape[-1])
        rows[1] = np.nan
        return rows

    monkeypatch.setattr(sampling, "chain_eigenvectors", garbled)
    diag = chain_diagonals(params, phis)
    rows, reason = window_rows(diag, window)
    assert Counter(filter(None, reason)) == {"inaccurate": 3}
    assert np.array_equal(rows, full_window(diag, window))


@pytest.mark.parametrize("selector", ["mid", "ground"])
@pytest.mark.parametrize("L", [2, 16])
def test_huge_delta_falls_back_without_warnings(L, selector):
    # the suite turns RuntimeWarnings into errors, so an overflow warning fails here
    window = eigenstate_window(L, 2, selector)
    tables, fallbacks = phase_table([ModelParams(L=L, delta=1.7e308)], 3, 0, window, [1, L], ("real",))
    table = tables[0]
    assert table[(1, "real")][0] == pytest.approx(0.0, abs=1e-12)
    assert table[(L, "real")][0] == pytest.approx(math.log(L), abs=1e-12)
    assert fallbacks == {"inaccurate": 3}


def test_chunks_cover_every_phase_in_order(monkeypatch):
    params, chunks = ModelParams(L=64, delta=1.0), recorded_weights(monkeypatch)
    phase_table([params], 37, 5, lambda eig: eig.vectors[..., :2].swapaxes(-1, -2), [1], ("real",))
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
        phase_table([ModelParams(L=16)], 2, 0, Window(2), [1], ("real", "position"))


def test_one_loop_over_phases_and_one_reduction():
    # every phase average draws its phases and reduces its weights in phase_table
    # alone, which the two table functions and the runner's grid job call directly,
    # and fallback counts are returned, never passed in
    callers, fallback_params = set(), set()

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.arg) and node.arg == "fallbacks":  # a parameter of any function or lambda
            fallback_params.add((module, owner))
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("phase_sequence", "uniform_block_entropy", "phase_table"):
                callers.add((name, module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted(Path(sampling.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert callers == {("phase_sequence", "sampling", "phase_table"),
                       ("uniform_block_entropy", "sampling", "phase_table"),
                       ("phase_table", "analysis", "eigenstate_entropy_table"),
                       ("phase_table", "dynamics", "quench_entropy_table"),
                       ("phase_table", "runner", "_grid_job")}
    assert not fallback_params


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
