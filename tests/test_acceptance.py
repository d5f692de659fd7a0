"""Acceptance gate: each test runs one numbered criterion at its stated
tolerance and prints a single pass/fail line (run with ``pytest -s`` to see
the lines for passing criteria too).

Shared heavy computations (the quench tables) are module-scoped fixtures.
Criteria 7 and 8 run the fig4 and fig5 presets and read the CSVs they write.
Criteria 5, 7, and 8 are implemented exactly as stated and are expected to
fail; the blocking analyses live in the decisions ledger, DECISIONS.md,
one entry per criterion.
"""

import csv
import math

import mpmath as mp
import numpy as np
import pytest

from obsent import (
    ModelParams,
    bessel_j,
    bessel_reference_entropy,
    eigenstate_entropy_table,
    fit_log_slope,
    macrostate_probs,
    make_block_partition,
    make_config,
    observational_entropy,
    quench_entropy_table,
    run,
    shannon_entropy,
)

SEED = 42
L_BIG = 256
DYADIC_256 = tuple(2**k for k in range(9))
LN = math.log


def report(criterion: str, ok: bool, detail: str):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}", flush=True)
    assert ok, f"{criterion} failed: {detail}"


def preset_rows(preset: str, name: str, out, **overrides) -> list:
    """Run ``preset`` into ``out`` and return the rows of its CSV ``name``."""
    run(make_config(preset, out=out, **overrides))
    with open(out / name, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def quench_tables():
    """Phase-averaged quench entropies for delta in {1,2,3}, all dyadic m."""
    times = np.concatenate([[0.0], np.geomspace(0.1, 100.0, 60)])
    tables = {}
    for delta in (1.0, 2.0, 3.0):
        params = ModelParams(L=L_BIG, delta=delta, bc="open")
        tables[delta] = quench_entropy_table(
            params, times, DYADIC_256, n_phi=100, seed=SEED
        )
    return times, tables


def test_criterion_1_maximal_entropy_limit():
    # delta=0, periodic, ground state: S = ln L for every dyadic m (1e-8)
    table = eigenstate_entropy_table(
        L_BIG, 0.0, DYADIC_256, ("real",), n_phi=1, seed=SEED,
        selector="ground", bc="periodic",
    )
    worst = max(abs(table[(m, "real")][0] - LN(L_BIG)) for m in DYADIC_256)
    report("criterion 1 (maximal-entropy limit)", worst < 1e-8, f"max |S - ln L| = {worst:.3e}")


def test_criterion_2_localized_limit():
    # delta=10: mid-spectrum phi-average tracks ln m for m >= 8 (0.1)
    ms = tuple(m for m in DYADIC_256 if m >= 8)
    table = eigenstate_entropy_table(
        L_BIG, 10.0, ms, ("real",), n_phi=100, seed=SEED, mid_count=10, bc="open"
    )
    devs = {m: abs(table[(m, "real")][0] - LN(m)) for m in ms}
    worst = max(devs.values())
    report("criterion 2 (localized limit)", worst < 0.1,
           f"max_m |S - ln m| = {worst:.4f} over m >= 8")


def test_criterion_3_monotonicity_and_bounds():
    # 1000 random unit states at L=64: dyadic roughening chains never
    # decrease S, and Shannon(m=1) <= S_m <= ln L, at 1e-12 slack
    L = 64
    rng = np.random.default_rng(SEED)
    partitions = [make_block_partition(L, 2**k) for k in range(7)]
    violations = 0
    for _ in range(1000):
        psi = rng.normal(size=L) + 1j * rng.normal(size=L)
        psi /= np.linalg.norm(psi)
        dists = [macrostate_probs(psi, cg) for cg in partitions]
        chain = [observational_entropy(d) for d in dists]
        fine = shannon_entropy(dists[0])
        if any(b < a - 1e-12 for a, b in zip(chain, chain[1:])):
            violations += 1
        if any(not (fine - 1e-12 <= s <= LN(L) + 1e-12) for s in chain):
            violations += 1
    report("criterion 3 (monotonicity & bounds)", violations == 0,
           f"{violations} violations over 1000 random states")


def test_criterion_4_bessel_oracle_equivalence():
    # free-ring simulation vs closed form (1e-3 for all t <= 20), and the
    # recurrence vs the ascending power series (1e-12 on a 50-point grid)
    times = np.concatenate([[0.0], np.geomspace(0.1, 20.0, 29)])
    table = quench_entropy_table(
        ModelParams(L=L_BIG, delta=0.0, bc="periodic"), times, (1,), n_phi=1, seed=SEED
    )
    sim = table[1][0]
    ref = np.array([bessel_reference_entropy(t, L_BIG) for t in times])
    worst_sim = float(np.abs(sim - ref).max())

    mp.mp.dps = 50

    def series(n, x):
        x = mp.mpf(x)
        total = mp.mpf(0)
        for k in range(80):
            total += (-1) ** k * (x / 2) ** (n + 2 * k) / (mp.factorial(k) * mp.factorial(n + k))
        return float(total)

    worst_bessel = 0.0
    for n in (0, 1, 2, 5, 10):
        for x in np.linspace(0.4, 20.0, 10):
            worst_bessel = max(worst_bessel, abs(bessel_j(n, float(x)) - series(n, float(x))))
    ok = worst_sim < 1e-3 and worst_bessel < 1e-12
    report("criterion 4 (Bessel oracle equivalence)", ok,
           f"sim-vs-closed-form max = {worst_sim:.3e}; recurrence-vs-series max = {worst_bessel:.3e}")


def test_criterion_5_log_growth_slopes(quench_tables):
    # finest graining, fit window t in [3, 30]:
    #   delta=1 -> 1.0 +/- 0.15, delta=2 -> 0.45 +/- 0.10,
    #   delta=3 -> |slope| < 0.05 with S(t) bounded
    times, tables = quench_tables
    window = (3.0, 30.0)
    slopes = {d: fit_log_slope(times, tables[d][1][0], window).slope for d in (1.0, 2.0, 3.0)}
    s3 = tables[3.0][1][0]
    late = s3[times > 10.0]
    bounded = bool(s3.max() <= LN(L_BIG) + 1e-10 and s3.max() - late.min() < 1.0)
    ok1 = abs(slopes[1.0] - 1.0) <= 0.15
    ok2 = abs(slopes[2.0] - 0.45) <= 0.10
    ok3 = abs(slopes[3.0]) < 0.05 and bounded
    report(
        "criterion 5 (log growth slopes)",
        ok1 and ok2 and ok3,
        f"slope(delta=1) = {slopes[1.0]:.3f} (want 1.0+/-0.15, {'ok' if ok1 else 'MISS'}); "
        f"slope(delta=2) = {slopes[2.0]:.3f} (want 0.45+/-0.10, {'ok' if ok2 else 'MISS'}); "
        f"slope(delta=3) = {slopes[3.0]:.3f}, bounded = {bounded} "
        f"(want |slope| < 0.05, {'ok' if ok3 else 'MISS'}); see DECISIONS.md, criterion 5, on the delta=1 window",
    )


def test_criterion_6_quench_order_relations(quench_tables):
    # S(t) >= S(0) for every t, and rougher grainings never fall below
    # finer ones, each at 1e-12 slack
    times, tables = quench_tables
    worst_time = 0.0
    worst_order = 0.0
    for delta in (1.0, 2.0, 3.0):
        for m in DYADIC_256:
            mean = tables[delta][m][0]
            worst_time = max(worst_time, float((mean[0] - mean).max()))
        for fine, rough in zip(DYADIC_256, DYADIC_256[1:]):
            gap = tables[delta][fine][0] - tables[delta][rough][0]
            worst_order = max(worst_order, float(gap.max()))
    ok = worst_time <= 1e-12 and worst_order <= 1e-12
    report("criterion 6 (quench order relations)", ok,
           f"max S(0)-S(t) = {worst_time:.3e}; max fine-minus-rough = {worst_order:.3e}")


def test_criterion_7_size_scaling_and_duality(tmp_path):
    # real basis, m=2: delta=1 grows by ln 2 (+/-0.1), delta=3 is size
    # independent (<0.05); momentum basis swaps the two roles
    rows = preset_rows("fig4", "fig4.csv", tmp_path, L=[128, 256], delta=[1.0, 3.0], m=[2],
                       n_phi=100, seed=SEED)
    mean = {(r["basis"], float(r["delta"]), int(r["L"])): float(r["mean_S"]) for r in rows}
    legs = {(basis, delta): mean[(basis, delta, 256)] - mean[(basis, delta, 128)]
            for basis in ("real", "momentum") for delta in (1.0, 3.0)}
    ok_r1 = abs(legs[("real", 1.0)] - LN(2)) < 0.1
    ok_r3 = abs(legs[("real", 3.0)]) < 0.05
    ok_k1 = abs(legs[("momentum", 1.0)]) < 0.05
    ok_k3 = abs(legs[("momentum", 3.0)] - LN(2)) < 0.15
    report(
        "criterion 7 (size scaling & duality)",
        ok_r1 and ok_r3 and ok_k1 and ok_k3,
        f"real d1 = {legs[('real', 1.0)]:+.4f} (want ln2+/-0.1, {'ok' if ok_r1 else 'MISS'}); "
        f"real d3 = {legs[('real', 3.0)]:+.4f} (want |.|<0.05, {'ok' if ok_r3 else 'MISS'}); "
        f"mom d1 = {legs[('momentum', 1.0)]:+.4f} (want |.|<0.05, {'ok' if ok_k1 else 'MISS'}); "
        f"mom d3 = {legs[('momentum', 3.0)]:+.4f} (want ln2+/-0.15, {'ok' if ok_k3 else 'MISS'}); "
        f"see DECISIONS.md, criterion 7, on the momentum delta=1 transient",
    )


def test_criterion_8_optimal_coarse_graining(tmp_path):
    # f(delta, 2) below both f(delta, 1) and f(delta, 4) for >= 80% of
    # delta in [2.2, 4.0] step 0.2; the full f table is printed either way
    deltas = [round(2.2 + 0.2 * k, 10) for k in range(10)]
    rows = preset_rows("fig5", "fig5_fluctuation.csv", tmp_path, L=[16, 32, 64, 128], delta=deltas,
                       m=[1, 2, 4], n_phi=100, seed=SEED)
    f = {(float(r["delta"]), int(r["m"])): float(r["f"]) for r in rows}
    print("[acceptance] criterion 8 f table (delta: f_m1, f_m2, f_m4):", flush=True)
    wins = 0
    for d in deltas:
        best_at_2 = f[(d, 2)] < f[(d, 1)] and f[(d, 2)] < f[(d, 4)]
        wins += best_at_2
        print(f"    {d:.1f}: {f[(d, 1)]:.4f}, {f[(d, 2)]:.4f}, {f[(d, 4)]:.4f}"
              f" {'<- min at m=2' if best_at_2 else ''}", flush=True)
    report(
        "criterion 8 (optimal coarse-graining)",
        wins >= 8,
        f"f(.,2) is the minimum for {wins}/10 deltas (want >= 8); "
        f"see DECISIONS.md, criterion 8: the minimum-at-m=2 statement traces to the "
        f"non-dyadic m=3 comparison, not m=4",
    )


def test_criterion_9_reproducibility(tmp_path):
    # two fig4 runs with seed 42 produce byte-identical CSV bodies
    kwargs = dict(seed=SEED, jobs=1)
    run(make_config("fig4", out=str(tmp_path / "a"), **kwargs))
    run(make_config("fig4", out=str(tmp_path / "b"), **kwargs))
    a = (tmp_path / "a" / "fig4.csv").read_bytes()
    b = (tmp_path / "b" / "fig4.csv").read_bytes()
    report("criterion 9 (reproducibility)", a == b,
           f"fig4.csv bodies identical = {a == b} ({len(a)} bytes)")
