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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obsent import (
    ModelParams,
    build_hamiltonian,
    chain_diagonals,
    chain_eigensystem,
    chain_eigenvalues,
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
from obsent import dynamics, entropy, model, runner, sampling
from obsent.analysis import eigenstate_window
from obsent.model import chain_eigenvectors
from obsent.sampling import Window, chunk_size, phase_table, window_rows

import exact
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
        yield eigendecompose(build_hamiltonian(ModelParams(L=L, delta=delta, bc=bc), phi))


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
    assert [chunk_size(L, L) for L in (16, 32, 64, 128, 256, 512)] == [128, 32, 8, 2, 1, 1]


def test_lane_chunk_size_depends_on_L_and_window_only():
    assert [chunk_size(L, L // 8) for L in (16, 64, 128, 256, 512)] == [1024, 64, 16, 4, 1]
    assert chunk_size(256, 10) == 12


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
# levels 69 and 70 lie 5.4e-6 apart; against exact states the lanes miss
# their entropies by 5.7e-11 and eigh by 4.4e-11, so they differ by 1.02e-10
@example(L=128, delta=2.935673677266376, phi=1.901725979398241, size=1.0, selector="mid")
def test_window_rows_match_dense_eigh(L, delta, phi, size, selector):
    # At delta = 0 the open chain is bipartite, and an odd window can end on a
    # +-E tie that each solver's rounding ranks its own way.  So the levels the
    # chain's eigenvalues pick must rank as dense eigh's window does, by their
    # keys on eigh's spectrum, and the rows are compared state by state with
    # eigh's eigenvectors of those levels.  A level within GAP_MIN of a
    # neighbour has a solver-dependent state (DECISIONS.md, "Numerics
    # policy"): its chain must come back flagged, and its entropies are held
    # to exact states by test_window_rows_match_exact_states, not to eigh.
    params, phis = ModelParams(L=L, delta=delta), np.array([phi])
    window, diag = Window(1 + int(size * (L - 1)), selector), chain_diagonals(params, phis)
    rows, flags = window_rows(diag, window)
    eig = eigendecompose(build_hamiltonian(params, phis))
    energies = chain_eigenvalues(diag)
    picked = window.select(energies)
    spacing = np.diff(energies, axis=-1, prepend=-np.inf, append=np.inf)
    isolated = np.minimum(np.take_along_axis(spacing, picked, axis=-1),
                          np.take_along_axis(spacing, picked + 1, axis=-1)) >= sampling.GAP_MIN
    assert isolated.all() or flags[0]
    key = np.abs if selector == "mid" else np.positive
    levels = [np.sort(key(np.take_along_axis(eig.energies, p, axis=-1)), axis=-1)
              for p in (picked, window.select(eig.energies))]
    assert np.abs(levels[0] - levels[1]).max() <= 1e-10
    dense = np.take_along_axis(eig.vectors, picked[..., None, :], axis=-1).swapaxes(-1, -2)
    assert np.abs(rows @ rows.swapaxes(-1, -2) - np.eye(window.count)).max() <= 1e-10
    for m in (1, 2, L // 2):
        for new, old in zip(block_entropies(rows, m), block_entropies(dense, m)):
            assert np.abs(new - old)[isolated].max(initial=0.0) <= 1e-10


#: Open chains of the exact window test: (L, delta, phase index) of the seed-42
#: phases, with fig4's window of L/8 levels, and how many levels of the window's
#: closest neighbouring pair are tested.  Delta = 1 chains (window spacings
#: >= 2e-2) test one level, to keep 16 in all.  The pairs at delta = 2 and 3 on
#: L = 256 are closer than GAP_MIN, and so is eigen-large's pair at delta = 2.5
#: (1.0e-5); fig4's smallest spacing is the delta = 3.25 pair, 2.5e-7.  The
#: delta = 3.5 pair on L = 512 (3.7e-7) is eigen-large's closest: its lanes miss
#: EIGENPAIR_TOL in orthogonality, so window_rows redoes it by dstevd.
EXACT_WINDOW_CHAINS = [(64, 1.0, 0, 1), (128, 1.0, 15, 1), (128, 2.0, 49, 2), (256, 2.0, 72, 2),
                       (128, 3.0, 80, 2), (256, 3.0, 15, 2), (256, 3.25, 84, 2), (512, 2.5, 15, 2),
                       (512, 3.5, 23, 2)]
#: The flag window_rows gives each (L, delta) of those chains, "" for none.
EXACT_WINDOW_FLAGS = {(256, 2.0): "near_degenerate", (256, 3.0): "near_degenerate",
                      (256, 3.25): "near_degenerate", (512, 2.5): "near_degenerate", (512, 3.5): "inaccurate"}
#: Largest per-state entropy error against exact states, m in {1, 2, 4}, both bases.
#: Measured over these chains: 5.0e-13 by inverse iteration and 5.7e-12 by
#: dstevd, both at delta = 2, L = 256 (spacing 7.6e-5), and at most 7.5e-14
#: elsewhere.  The bounds allow a factor of 4 and 3.5 over that.
EXACT_BOUND = {"inverse iteration": 2e-12, "dstevd": 2e-11}


@pytest.mark.parametrize("L, delta, index, n_levels", EXACT_WINDOW_CHAINS)
def test_window_rows_match_exact_states(L, delta, index, n_levels):
    diag = chain_diagonals(ModelParams(L=L, delta=delta), phase_sequence(42, L, delta, index + 1)[index:])
    window = Window(L // 8)
    energies = chain_eigenvalues(diag)
    picked = window.select(energies)[0]
    first = int(np.argmin(np.diff(energies[0, picked])))
    tested = slice(first, first + n_levels)
    levels = energies[:, picked[tested]]
    rows, reason = window_rows(diag, window)
    resolved = reason == ["inaccurate"]  # only these rows come from dstevd
    routes = {  # each route's rows of the tested levels, and the bound it is held to
        "window_rows": (rows[0, tested], EXACT_BOUND["dstevd" if resolved else "inverse iteration"]),
        "dstevd": (full_window(diag, window)[0, tested], EXACT_BOUND["dstevd"]),
        "inverse iteration": (chain_eigenvectors(diag, levels)[0], EXACT_BOUND["inverse iteration"]),
    }
    assert reason == [EXACT_WINDOW_FLAGS.get((L, delta), "")]
    errors = {}
    for j, k in enumerate(picked[tested]):
        level = exact.chain_level(diag[0], int(k), levels[0, j])
        vector, residual = exact.chain_vector(diag[0], level)
        assert abs(float(level) - levels[0, j]) < 1e-13 and residual < 1e-30  # the oracle is exact
        weights = [x * x for x in vector], exact.momentum_weights(vector)  # real, momentum
        for m in (1, 2, 4):
            expected = [float(exact.block_entropy(w, m)) for w in weights]
            for route, (route_rows, _) in routes.items():
                for basis, got, want in zip(("real", "momentum"), block_entropies(route_rows[j], m), expected):
                    errors[route, int(k), basis, m] = abs(float(got) - want)
    for route, (_, bound) in routes.items():
        worst = max((error, key) for key, error in errors.items() if key[0] == route)
        assert worst[0] <= bound, worst


@pytest.mark.parametrize("L, delta", [(8, 1.0), (16, 0.5), (16, 3.0)])
def test_exact_oracle_fast_routes_match_slow_ones(L, delta):
    # every level by Rayleigh-quotient iteration against Sturm bisection, and
    # its vector's momentum weights by the FFT against the direct DFT
    diag = chain_diagonals(ModelParams(L=L, delta=delta), [0.7])[0]
    energies = chain_eigenvalues(diag[None])[0]
    for k, start in enumerate(energies):
        level = exact.chain_level(diag, k, start)
        assert abs(level - exact.bisect_level(diag, k)) <= exact.LEVEL_WIDTH
        vector, _ = exact.chain_vector(diag, level)
        fast, slow = exact.momentum_weights(vector), exact.direct_momentum_weights(vector)
        assert max(abs(a - b) for a, b in zip(fast, slow)) <= 1e-38
    with pytest.raises(ValueError, match="did not certify level 0"):  # started at the next level
        exact.chain_level(diag, 0, energies[1])


def ranked_spectrum(L, rng):
    """Ascending energies of L levels with exact ties: +-E pairs about zero
    and repeated levels, among distinct ones."""
    levels = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=L)
    levels[: L // 3] = rng.uniform(-3.0, 3.0, L // 3)
    return np.sort(levels)


@pytest.mark.parametrize("L", [2, 3, 8, 33])
def test_window_select_matches_plain_ranking(L):
    # the rule, in plain Python: rank by (key, index), take the first count, in
    # spectrum order
    rng = np.random.default_rng(L)
    stack = np.array([ranked_spectrum(L, rng) for _ in range(20)])
    for selector in ("mid", "ground"):
        for count in range(1, L + 1):
            picked = Window(count, selector).select(stack)
            for energies, row in zip(stack.tolist(), picked.tolist()):
                key = [abs(e) if selector == "mid" else e for e in energies]
                ranked = sorted(range(L), key=lambda j: (key[j], j))
                assert row == sorted(ranked[:count])


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
def test_near_degenerate_window_is_flagged_and_keeps_lane_rows(twin):
    # the flag reports the twin pair; with one partner in the window the lanes
    # pass EIGENPAIR_TOL, so the rows stay those of inverse iteration
    diag, window = wells(twin)[None], Window(1, "ground")
    rows, reason = window_rows(diag, window)
    assert reason == ["near_degenerate" if twin else ""]
    assert Counter(filter(None, reason))["near_degenerate"] == twin
    assert np.array_equal(rows, chain_eigenvectors(diag, chain_eigenvalues(diag)[:, :1]))
    if not twin:
        assert np.abs(rows**2 - full_window(diag, window) ** 2).max() < 1e-12


def test_window_rows_of_a_block_equal_per_phase_blocks():
    # phase 0.0 gets the twin wells, whose ground pair is near-degenerate; with
    # both partners in the window the lanes fail orthogonality and are redone
    params, phis, window = ModelParams(L=32, delta=1.5), np.array([0.4, 0.0, 2.2, 5.0, 0.0]), Window(2, "ground")
    diag = chain_diagonals(params, phis)
    diag[phis == 0.0] = wells(True)
    rows, reason = window_rows(diag, window)
    per_phase = [window_rows(diag[p:p + 1], window) for p in range(len(phis))]
    single = np.concatenate([rows for rows, _ in per_phase])
    assert reason == [r for _, (r,) in per_phase] == ["", "inaccurate", "", "", "inaccurate"]
    assert Counter(filter(None, reason)) == {"inaccurate": 2}
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
    # 2 x 5 realizations straddles the deltas, with a twin-wells chain (redone
    # as inaccurate) on each side of the boundary: the last phase of one delta,
    # the first of the next
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
    assert shared_counts == single_counts == {"inaccurate": 2}
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
    # One fig4-sized grid point whose 7 near-degenerate chains are flagged and
    # keep their lanes' rows: the block holds its pivots and vectors (2*8*L**2
    # bytes) and no full eigensystem, and the dense route builds one L x L
    # matrix at a time.
    if route == "numpy-dense":
        monkeypatch.setattr(model, "_DSTEVD", None)
    L = 512
    tracemalloc.start()
    try:
        _, flags = phase_table([ModelParams(L=L, delta=2.5)], 25, 42, eigenstate_window(L, "L/8", "mid"),
                               (1, 2, 4, 8), ("real", "momentum"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flags == {"near_degenerate": 7}
    assert peak <= 5 * 1024**2


def test_all_tie_lane_block_peak_memory_holds_no_dense_fallback():
    # At delta = 0 every phase of an odd L=512 mid window ends on a +-E tie;
    # the ranking decides each one, so the block holds only its lanes.
    tracemalloc.start()
    try:
        _, flags = phase_table([ModelParams(L=512, delta=0.0)], 16, 42, Window(63),
                               (1, 2, 4, 8), ("real", "momentum"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not flags
    assert peak <= 5 * 1024**2


def test_window_edge_tie_needs_no_dense_path():
    # At delta = 0 the open chain is bipartite, psi_-E(j) = (-1)^j psi_E(j), so
    # an odd mid window ends on a +-E tie that rounding decides.  Either level
    # has the same |psi|^2 on every site and momentum weights shifted by L/2,
    # so the picked states' entropies, as a set, are those of the dense route.
    L, window = 16, Window(9)
    diag = chain_diagonals(ModelParams(L=L), np.array([0.0, 1.1, 3.7, 5.9]))
    rows, reason = window_rows(diag, window)
    dense = full_window(diag, window)
    assert reason == [""] * len(diag)
    assert np.abs(rows @ rows.swapaxes(-1, -2) - np.eye(9)).max() < 1e-10
    for perm in (np.arange(L), kinetic_index_order(L)):
        weights = [(np.abs(r) ** 2, np.abs(to_momentum(r, axis=-1)[..., perm]) ** 2) for r in (rows, dense)]
        for m in (1, 2, 4, 8):
            for found, expected in zip(*weights):
                assert np.abs(np.sort(uniform_block_entropy(found, m), axis=-1)
                              - np.sort(uniform_block_entropy(expected, m), axis=-1)).max() < 1e-12


@pytest.mark.parametrize("delta, flags", [(0.0, {"near_degenerate": 4}), (1.0, {})], ids=["free", "control"])
def test_ring_windows_are_flagged_by_the_gap_rule(delta, flags):
    # a free ring's +-k levels are degenerate, and the L/8 mid window of L = 16
    # holds such a pair in each of the 4 phases; at delta = 1 no level nearly
    # touches its neighbour
    _, found = phase_table([ModelParams(L=16, delta=delta, bc="periodic")], 4, 0, eigenstate_window(16, "L/8", "mid"),
                           [1], ("real",))
    assert found == flags


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
    tables, flags = phase_table([ModelParams(L=L, delta=1.7e308)], 3, 0, window, [1, L], ("real",))
    table = tables[0]
    assert table[(1, "real")][0] == pytest.approx(0.0, abs=1e-12)
    assert table[(L, "real")][0] == pytest.approx(math.log(L), abs=1e-12)
    assert flags == {"inaccurate": 3}


def test_chunks_cover_every_phase_in_order(monkeypatch):
    params, chunks = ModelParams(L=64, delta=1.0, bc="periodic"), recorded_weights(monkeypatch)
    phase_table([params], 37, 5, Window(2, "ground"), [1], ("real",))
    assert [c.shape for c in chunks] == [(8, 2, 64)] * 4 + [(5, 2, 64)]
    single = list(phase_eigensystems(64, 1.0, 37, 5, "periodic"))
    batched = np.concatenate(chunks)
    for r in (0, 7, 8, 36):
        assert np.array_equal(batched[r], np.abs(single[r].vectors[:, :2].T) ** 2)


def test_window_rejects_unknown_selector():
    with pytest.raises(ValueError, match="selector must be 'mid' or 'ground', got 'bogus'"):
        Window(3, "bogus")
    for count in (0, -1):  # -1 would pick all but one level, 0 none
        with pytest.raises(ValueError, match=f"count must be an integer >= 1, got {count}"):
            Window(count)


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
    with pytest.raises(ValueError, match="momentum_order must be 'index' or 'kinetic', got 'kinetik'"):
        eigenstate_entropy_table(16, 1.0, [2], ("momentum",), momentum_order="kinetik")


def test_phase_table_rejects_a_non_divisor_m_before_solving(monkeypatch):
    # the runner's wording, raised by the library before the first block is solved
    monkeypatch.setattr(sampling, "chain_eigenvalues", None)
    monkeypatch.setattr(dynamics, "chain_eigensystem", None)
    with pytest.raises(ValueError, match=r"^m=5 does not divide L=12$"):
        eigenstate_entropy_table(12, 1.0, [5], n_phi=3)
    with pytest.raises(ValueError, match=r"^m=5 does not divide L=12$"):
        quench_entropy_table(ModelParams(L=12), [0, 1], [5], n_phi=2)


def test_phase_table_rejects_a_repeated_m_or_basis_tag():
    # repeated keys would share one sample list, so a chain spanning several
    # chunks would average duplicates and lose its last phases
    with pytest.raises(ValueError, match=r"m_list=\[1, 1\] repeats a value"):
        eigenstate_entropy_table(256, 1.0, [1, 1], n_phi=12, mid_count=32)
    with pytest.raises(ValueError, match=r"m_list=\[1, 1\] repeats a value"):
        quench_entropy_table(ModelParams(L=256), np.geomspace(0.1, 10, 5), [1, 1], n_phi=3)
    with pytest.raises(ValueError, match=r"basis_tags=\['real', 'real'\] repeats a value"):
        eigenstate_entropy_table(16, 1.0, [1], ("real", "real"), n_phi=2)


def test_one_loop_over_phases_and_one_reduction():
    # every phase average draws its phases and reduces its weights in phase_table
    # alone, which the two table functions and the runner's grid job call directly,
    # flag counts are returned, never passed in, and the errors of a
    # numerical failure are spelled once, in sampling.NUMERICAL_ERRORS; no module
    # imports inspect and phase_table calls no isinstance, so that the states pick
    # their own route and phase_table never picks one by inspecting them
    callers, flag_params, error_tuples, sniffing = set(), set(), [], []
    errors = {"LinAlgError", "ValueError", "FloatingPointError"}

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Assign) and owner is None and isinstance(node.targets[0], ast.Name):
            owner = node.targets[0].id  # a module-level constant
        if isinstance(node, ast.arg) and node.arg == "flags":  # a parameter of any function or lambda
            flag_params.add((module, owner))
        if isinstance(node, ast.Import) and "inspect" in {alias.name for alias in node.names} or (
                isinstance(node, ast.ImportFrom) and node.module == "inspect"):
            sniffing.append((module, "import inspect"))
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("phase_sequence", "uniform_block_entropy", "phase_table"):
                callers.add((name, module, owner))
            if name == "isinstance" and owner == "phase_table":
                sniffing.append((module, "phase_table calls isinstance"))
        if isinstance(node, ast.Tuple) and {getattr(e, "id", getattr(e, "attr", None))
                                            for e in node.elts} == errors:
            error_tuples.append((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted(Path(sampling.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert callers == {("phase_sequence", "sampling", "phase_table"),
                       ("uniform_block_entropy", "sampling", "phase_table"),
                       ("phase_table", "analysis", "eigenstate_entropy_table"),
                       ("phase_table", "dynamics", "quench_entropy_table"),
                       ("phase_table", "runner", "_grid_job")}
    assert not flag_params
    assert not sniffing
    assert error_tuples == [("sampling", "NUMERICAL_ERRORS")]
    assert sampling.NUMERICAL_ERRORS == (np.linalg.LinAlgError, ValueError, FloatingPointError)


def test_one_tuple_per_choice():
    # each vocabulary is spelled as a literal once, by the module that owns it,
    # and the runner's validation and the library's own checks read that tuple
    owners = {(entropy, "BASIS_TAGS"): {"real", "momentum"}, (model, "BOUNDARY_CONDITIONS"): {"open", "periodic"},
              (sampling, "SELECTORS"): {"mid", "ground"}, (sampling, "MOMENTUM_ORDERS"): {"index", "kinetic"}}
    spelled = {name: [] for _, name in owners}
    for path in sorted(Path(sampling.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
                for (_, name), words in owners.items():
                    if {e.value for e in node.elts} == words:
                        spelled[name].append(path.stem)
    assert spelled == {name: [module.__name__.split(".")[-1]] for module, name in owners}
    for (module, name), words in owners.items():
        assert set(getattr(module, name)) == words
    assert runner._CHOICES["basis"] == (*entropy.BASIS_TAGS, "both")
    assert runner._CHOICES["bc"] is model.BOUNDARY_CONDITIONS
    assert runner._CHOICES["selector"] is sampling.SELECTORS
    assert runner._CHOICES["momentum_order"] is sampling.MOMENTUM_ORDERS


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
    psi0 = site_state(L, (L + 1) // 2)
    per_phase = {m: [] for m in m_list}
    for eig in phase_eigensystems(L, delta, n_phi, seed, bc):
        for m, values in scalar_entropies(evolve_many(eig, psi0, times), L, m_list, basis_tag,
                                          momentum_order).items():
            per_phase[m].append(values)
    for m, samples in per_phase.items():
        mean, stderr = mean_and_stderr(samples)
        assert np.abs(table[m][0] - mean).max() < 1e-12
        assert np.abs(table[m][1] - stderr).max() < 1e-12


def per_phase_quench_table(params, times, m_list, n_phi, seed, basis_tag):
    """quench_entropy_table's {m: (mean, stderr)} from one chain_eigensystem,
    evolve_many and uniform_block_entropy call per phase, none given buffers."""
    psi0, samples = site_state(params.L, (params.L + 1) // 2), {m: [] for m in m_list}
    for phi in phase_sequence(seed, params.L, params.delta, n_phi):
        states = evolve_many(chain_eigensystem(chain_diagonals(params, [phi])), psi0, times)
        if basis_tag == "momentum":
            states = to_momentum(states, axis=-1)
        for m in m_list:
            samples[m].append(uniform_block_entropy(np.abs(states) ** 2, m)[0])
    return {m: sampling.mean_stderr(np.array(values)) for m, values in samples.items()}


@pytest.mark.parametrize("L, n_phi, n_times, basis_tag, route", [
    (16, 130, 4, "real", "lapack"),  # blocks of 128 phases, the last one partial
    (64, 5, 40, "real", "lapack"),  # a long grid: the phase factors and the product outweigh the eigenvectors
    (256, 3, 60, "real", "lapack"),  # fig3's size
    (64, 5, 12, "momentum", "lapack"),
    (16, 130, 4, "real", "numpy-dense"),
    (64, 5, 40, "real", "numpy-dense"),
], ids=["16-partial-block", "64-long-grid", "256-fig3-size", "64-momentum", "16-dense", "64-dense"])
def test_quench_workspace_equals_per_phase_reference(monkeypatch, L, n_phi, n_times, basis_tag, route):
    if route == "numpy-dense":
        monkeypatch.setattr(model, "_DSTEVD", None)
    params, times, m_list = ModelParams(L=L, delta=1.3), np.geomspace(0.1, 100.0, n_times), (1, 4, L)
    table = quench_entropy_table(params, times, m_list, n_phi=n_phi, seed=11, basis_tag=basis_tag)
    reference = per_phase_quench_table(params, times, m_list, n_phi, 11, basis_tag)
    for m in m_list:
        for got, expected in zip(table[m], reference[m]):
            assert np.array_equal(got, expected), m


def test_quench_table_peak_memory_holds_one_workspace():
    # fig3's size: each block allocates its Z (512 KiB) and the C-ordered
    # V + 0i (1 MiB); Quench.rows hands the eigensystem to evolve_many, which
    # drops it, so Z is freed before the phase factors and the product are
    # allocated.  With each chunk's weights (120 KiB) and block_entropy's one
    # temporary the table peaks at about 1561 KiB; it was about 1754 KiB when
    # the phase factors and the product were carved out of the spent Z.
    args = (ModelParams(L=256, delta=1.0), np.geomspace(0.1, 100.0, 60), (1, 4, 16))
    quench_entropy_table(*args, n_phi=8, seed=1)  # warm-up
    tracemalloc.start()
    try:
        quench_entropy_table(*args, n_phi=8, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1650 * 1024


def test_long_quench_grid_blocks_count_their_states():
    # 600 times: a realization's (600, 16) complex states are 75 times its
    # eigenvectors, so a block sized for eigenvectors alone (128 realizations)
    # peaked at about 39.7 MiB; counting the states, a block holds 1
    # realization and the table about 3.2 MiB, mostly its samples
    args = (ModelParams(L=16, delta=1.0), np.geomspace(0.1, 100.0, 600), (1, 4, 16))
    quench_entropy_table(*args, n_phi=130, seed=1)  # warm-up
    tracemalloc.start()
    try:
        quench_entropy_table(*args, n_phi=130, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 1024 * 1024


def test_periodic_quench_table_peak_memory_holds_no_workspace():
    # rings take dense eigh; a block counts each realization's 60 complex
    # states beside its eigenvectors (2 realizations, not 8), and the
    # eigenvectors are freed before the phase factors are allocated: about
    # 515 KiB here, against 640 KiB while they lived through the product and
    # 1933 KiB when blocks counted eigenvectors alone
    args = (ModelParams(L=64, delta=1.3, bc="periodic"), np.geomspace(0.1, 100.0, 60), (1, 4))
    quench_entropy_table(*args, n_phi=20, seed=1)  # warm-up
    tracemalloc.start()
    try:
        quench_entropy_table(*args, n_phi=20, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 576 * 1024
