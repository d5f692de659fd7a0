"""Configuration validation, preset outputs, reproducibility, CLI contract."""

import csv
import ctypes
import errno
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import obsent.cli
import obsent.model
import obsent.runner
from obsent import (ConfigError, ModelParams, config_from_mapping, eigenstate_entropy_table, make_config,
                    quench_entropy_table, run, validate)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_preset_defaults_fill_in():
    cfg = make_config("fig3")
    assert cfg.delta == (1.0, 2.0, 3.0)
    assert cfg.m == (1, 4, 16, 256)
    assert cfg.t_points == 60
    cfg = make_config("fig1")
    assert cfg.m == tuple(2**k for k in range(9))  # every dyadic size of L=256


@pytest.mark.parametrize("L, m", [(24, (1, 2, 4, 8)), (96, (1, 2, 4, 8, 16, 32)), (7, (1,))],
                         ids=["L24", "L96", "L7"])
def test_fig1_default_m_divides_L(L, m):
    # the default block sizes are the powers of two that divide L, never one the user must correct
    cfg = make_config("fig1", L=[L])
    assert cfg.m == m and validate(cfg) == []


def test_overrides_beat_preset():
    cfg = make_config("fig3", delta=[2.0], n_phi=7, out="somewhere")
    assert cfg.delta == (2.0,) and cfg.n_phi == 7 and cfg.out == "somewhere"


def test_unknown_preset_and_fields():
    with pytest.raises(ConfigError):
        make_config("fig9")
    with pytest.raises(ConfigError):
        config_from_mapping({"preset": "fig1", "Lmax": 64})


def test_validate_power_of_two():
    for m in (1, 3):
        assert validate(make_config("custom", L=[12], delta=[1.0], m=[m])) == []
    cfg = make_config("custom", L=[12], delta=[1.0], m=[5])
    assert validate(cfg) == ["m=5 does not divide L=12"]


def test_validate_divisibility():
    cfg = make_config("custom", L=[8], delta=[1.0], m=[3])
    assert any("does not divide" in d for d in validate(cfg))


def test_validate_empty_time_grid():
    cfg = make_config("custom", L=[8], delta=[1.0], m=[1], times=[])
    assert any("time grid is empty" in d for d in validate(cfg))


def test_validate_clean_config():
    assert validate(make_config("fig1", L=[64], m=[1, 2], n_phi=2)) == []


@pytest.mark.parametrize("preset, overrides, dropped", [
    ("fig1", dict(L=[16, 32], m=[1, 2]), "fig1.csv has no L column"),
    ("fig3", dict(L=[16, 32], m=[1, 16]), "fig3.csv has no L column"),
    ("fig1", dict(L=[16], m=[1, 2], basis="both"), "fig1.csv has no basis column"),
    ("fig3", dict(L=[16], m=[1, 16], basis="both"), "fig3.csv has no basis column"),
    ("fig5", dict(L=[8, 16], m=[1, 2], basis="both"), "fig5_curves.csv has no basis column"),
    ("custom", dict(L=[8, 16], m=[1, 2], basis="both", times=[0.0, 1.0]), "quench.csv has no basis column"),
], ids=["fig1-L", "fig3-L", "fig1-basis", "fig3-basis", "fig5-basis", "custom-times-basis"])
def test_validate_reports_what_a_table_would_drop(preset, overrides, dropped):
    diags = validate(make_config(preset, **overrides))
    assert len(diags) == 1 and diags[0].startswith(dropped)


def test_validate_keeps_tables_that_hold_every_L_and_basis():
    both = dict(L=[8, 16], m=[1, 2], basis="both")
    assert validate(make_config("fig4", **both)) == []
    assert validate(make_config("custom", **both)) == []
    assert validate(make_config("fig5", L=[8, 16], m=[1, 2], basis="momentum")) == []
    assert validate(make_config("custom", L=[8, 16], m=[1, 2], times=[0.0, 1.0])) == []


def test_validate_caps_the_time_grid_before_building_it():
    tracemalloc.start()
    diags = validate(make_config("fig3", L=[16], m=[1], t_points=10**7))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(diags) == 1 and diags[0].startswith("t_points asks for 10000000 times")
    assert peak < 1_000_000
    diags = validate(make_config("custom", L=[16], m=[1], times=list(range(10_001))))
    assert len(diags) == 1 and diags[0].startswith("times asks for 10001 times")
    assert validate(make_config("fig3", L=[16], m=[1], t_points=10_000)) == []


def test_validate_checks_the_fit_window_without_a_fit(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("validate ran a least-squares fit")

    monkeypatch.setattr(np, "polyfit", no_fit)
    assert validate(make_config("fig3", L=[16], m=[1])) == []
    assert validate(make_config("fig3", L=[16], m=[1], fit_window=(3.0, 3.5))) == [
        "fit_window: only 1 points inside window [3.0, 3.5]; need >= 5"]
    assert validate(make_config("fig3", L=[16], m=[1], times=[0, 1, 2, 3, 4, 5, 6], fit_window=(0, 6))) == [
        "fit_window: times inside the fit window must be positive"]


def test_validate_collects_everything():
    cfg = make_config("custom", L=[12], delta=[-1.0], m=[5], n_phi=0, jobs=0)
    diags = validate(cfg)
    assert len(diags) >= 4
    # a value of the wrong type hides none of the other violations
    diags = validate(make_config("custom", delta=[-1.0], t_min="abc"))
    assert any("t_min" in d for d in diags) and "delta=-1.0 is negative" in diags


def test_run_rejects_invalid_config(tmp_path):
    cfg = make_config("custom", L=[12], delta=[1.0], m=[5], out=str(tmp_path))
    with pytest.raises(ConfigError):
        run(cfg)


def test_fig1_output_contract(tmp_path):
    cfg = make_config("fig1", L=[16], delta=[0.0, 1.0], m=[1, 4, 16], n_phi=3,
                      seed=1, out=str(tmp_path))
    outputs = run(cfg)
    names = {p.name for p in outputs}
    assert names == {"fig1.csv", "run_manifest.json"}
    header, rows = read_csv(tmp_path / "fig1.csv")
    assert header == ["delta", "m", "mean_S", "stderr_S", "n_phi"]
    assert len(rows) == 6
    for row in rows:
        assert 0.0 <= float(row[2]) <= math.log(16) + 1e-10


def test_fig3_output_contract(tmp_path):
    cfg = make_config("fig3", L=[16], delta=[1.0], m=[1, 16], n_phi=2, seed=0,
                      t_min=0.5, t_max=40.0, t_points=12, out=str(tmp_path))
    run(cfg)
    header, rows = read_csv(tmp_path / "fig3.csv")
    assert header == ["delta", "m", "t", "mean_S", "stderr_S"]
    assert len(rows) == 2 * 12
    s_header, s_rows = read_csv(tmp_path / "fig3_slopes.csv")
    assert s_header == ["delta", "m", "t_lo", "t_hi", "slope", "intercept", "r_squared"]
    assert len(s_rows) == 2
    # roughest graining stays pinned at ln L, so its fitted slope vanishes
    rough = [r for r in s_rows if r[1] == "16"][0]
    assert abs(float(rough[4])) < 1e-8


def test_fig4_output_contract(tmp_path):
    cfg = make_config("fig4", L=[8, 16], delta=[1.0, 3.0], m=[2], n_phi=2, seed=3,
                      out=str(tmp_path))
    run(cfg)
    header, rows = read_csv(tmp_path / "fig4.csv")
    assert header == ["basis", "L", "delta", "m", "mean_S", "stderr_S", "n_phi"]
    assert len(rows) == 2 * 2 * 2
    assert {r[0] for r in rows} == {"real", "momentum"}


def test_fig5_output_contract(tmp_path):
    cfg = make_config("fig5", L=[8, 16], delta=[2.5, 3.0], m=[1, 2], n_phi=2, seed=5,
                      out=str(tmp_path))
    run(cfg)
    header, rows = read_csv(tmp_path / "fig5_curves.csv")
    assert header == ["L", "delta", "m", "mean_S", "stderr_S"]
    assert len(rows) == 2 * 2 * 2
    f_header, f_rows = read_csv(tmp_path / "fig5_fluctuation.csv")
    assert f_header == ["delta", "m", "f"]
    assert len(f_rows) == 4
    assert all(float(r[2]) >= 0.0 for r in f_rows)


def test_custom_with_quench(tmp_path):
    cfg = make_config("custom", L=[16], delta=[1.0], m=[1, 2], n_phi=2, seed=2,
                      times=[0.0, 1.0, 2.0], out=str(tmp_path))
    outputs = {p.name for p in run(cfg)}
    assert outputs == {"sweep.csv", "quench.csv", "run_manifest.json"}
    header, rows = read_csv(tmp_path / "quench.csv")
    assert header == ["L", "delta", "m", "t", "mean_S", "stderr_S"]
    assert len(rows) == 2 * 3


#: The BLAS numpy was built against, as the manifest records it.
NUMPY_BLAS = {key: np.show_config(mode="dicts")["Build Dependencies"]["blas"].get(key)
              for key in ("name", "version", "openblas configuration")}


def test_manifest_contents(tmp_path):
    cfg = make_config("fig1", L=[16], delta=[1.0], m=[1], n_phi=2, out=str(tmp_path))
    run(cfg)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["preset"] == "fig1"
    assert manifest["config"]["seed"] == 42
    assert manifest["versions"]["numpy"] == np.__version__
    assert manifest["outputs"] == ["fig1.csv"]
    assert manifest["wall_time_s"] >= 0.0
    assert manifest["eigensolver"] == obsent.model.chain_solver()
    assert set(manifest["threads"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
    assert manifest["window_flags"] == {}
    assert manifest["status"] == "complete" and manifest["workers"] == 1
    assert manifest["cpus"] == obsent.runner._usable_cpus() >= 1
    assert manifest["blas"] == NUMPY_BLAS


def test_rerun_byte_identical(tmp_path):
    kwargs = dict(L=[16], delta=[0.5, 2.5], m=[1, 2], n_phi=4, seed=11)
    run(make_config("fig4", out=str(tmp_path / "a"), **kwargs))
    run(make_config("fig4", out=str(tmp_path / "b"), **kwargs))
    assert (tmp_path / "a" / "fig4.csv").read_bytes() == (tmp_path / "b" / "fig4.csv").read_bytes()


@pytest.mark.parametrize("preset, extra", [
    ("fig4", {}),
    ("fig3", dict(L=[8], t_min=0.5, t_max=40.0, t_points=12)),  # fig3.csv has no L column
    ("custom", dict(times=[0.0, 1.0, 2.0])),
    # serial runs share blocks of 128 phases across both deltas, parallel ones do not
    ("custom", dict(L=[16], n_phi=130, times=[0.5, 2.0, 8.0, 32.0])),
], ids=["fig4", "fig3", "custom-times", "custom-partial-blocks"])
def test_parallel_matches_serial(tmp_path, preset, extra):
    kwargs = {**dict(L=[8, 16], delta=[1.0, 3.0], m=[1, 2], n_phi=3, seed=6), **extra}
    serial = run(make_config(preset, out=str(tmp_path / "serial"), jobs=1, **kwargs))
    parallel = run(make_config(preset, out=str(tmp_path / "parallel"), jobs=2, **kwargs))
    csvs = [(a, b) for a, b in zip(serial, parallel) if a.suffix == ".csv"]
    assert csvs
    for a, b in csvs:
        assert a.name == b.name and a.read_bytes() == b.read_bytes()


def test_parallel_fallback_counts_match_serial(tmp_path):
    # delta=4 puts a near-degenerate pair into one of the 30 windows, which is
    # flagged; at delta=0 every odd window ends on a +-E tie, which the ranking
    # decides without a flag
    kwargs = dict(L=[64], delta=[0.0, 4.0], m=[1, 4], n_phi=30, mid_count=15)
    manifests, csvs = [], []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        run(make_config("fig1", out=str(out), jobs=jobs, **kwargs))
        manifests.append(json.loads((out / "run_manifest.json").read_text()))
        csvs.append((out / "fig1.csv").read_bytes())
    assert manifests[0]["window_flags"] == manifests[1]["window_flags"] == {"near_degenerate": 1}
    assert csvs[0] == csvs[1]


LIBRARY_RUNS = {
    "open-sweep": ["--L", "16,32", "--delta", "0.5,2.0,3.0", "--m", "1,4", "--basis", "both",
                   "--mid-count", "3", "--n-phi", "5"],
    "periodic-quench": ["--bc", "periodic", "--L", "16,32", "--delta", "0.5,2.0,3.0", "--m", "1,4",
                        "--basis", "momentum", "--mid-count", "3", "--n-phi", "5", "--times", "0,1,8",
                        "--initial-site", "3"],
}


@pytest.mark.parametrize("flags", LIBRARY_RUNS.values(), ids=LIBRARY_RUNS)
def test_presets_equal_library_tables(tmp_path, flags):
    # the runner's grid job and the two table functions each call phase_table
    # on their own, through the same window and quench-state rules
    assert obsent.cli.main(["run", "--preset", "custom", *flags, "--out", str(tmp_path)]) == 0
    cfg = config_from_mapping(json.loads((tmp_path / "run_manifest.json").read_text())["config"])
    digits = lambda stats: [format(x, ".17g") for x in stats]
    _, rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == len(cfg.basis_tags()) * len(cfg.L) * len(cfg.delta) * len(cfg.m)
    for basis, L, delta, m, mean, stderr, _ in rows:
        table = eigenstate_entropy_table(int(L), float(delta), cfg.m, cfg.basis_tags(), n_phi=cfg.n_phi,
                                         seed=cfg.seed, mid_count=cfg.mid_count, bc=cfg.bc)
        assert [mean, stderr] == digits(table[(int(m), basis)])
    if cfg.times is None:
        return
    _, rows = read_csv(tmp_path / "quench.csv")
    times = list(cfg.time_grid())
    assert len(rows) == len(cfg.L) * len(cfg.delta) * len(cfg.m) * len(times)
    for L, delta, m, t, mean, stderr in rows:
        table = quench_entropy_table(ModelParams(L=int(L), delta=float(delta), bc=cfg.bc), times, cfg.m,
                                     n_phi=cfg.n_phi, seed=cfg.seed, basis_tag=cfg.basis,
                                     initial_site=cfg.initial_site)
        assert [mean, stderr] == digits(stats[times.index(float(t))] for stats in table[int(m)])


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of every process pool a run starts; a stub runs
    the pool's jobs in this process, since a real pool with jobs=100000
    would fork a process per worker at the first submit."""
    import concurrent.futures

    seen = []

    class SerialPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return seen


def test_pool_never_exceeds_grid_points(tmp_path, pool_sizes, monkeypatch):
    monkeypatch.setattr(obsent.runner, "_usable_cpus", lambda: 8)
    kwargs = dict(L=[16], delta=[1.0, 3.0], m=[1, 2], n_phi=3, seed=6)
    csvs, workers = [], []
    for jobs in (1, 100000):
        out = tmp_path / f"jobs{jobs}"
        run(make_config("fig1", out=str(out), jobs=jobs, **kwargs))
        csvs.append((out / "fig1.csv").read_bytes())
        workers.append(json.loads((out / "run_manifest.json").read_text())["workers"])
    assert pool_sizes == [2]  # two grid points, one job each
    assert workers == [1, 2]
    assert csvs[0] == csvs[1]


def test_one_cpu_starts_no_pool(tmp_path, pool_sizes, monkeypatch):
    monkeypatch.setattr(obsent.runner, "_usable_cpus", lambda: 1)
    run(make_config("fig1", out=str(tmp_path), jobs=2, L=[16], delta=[1.0, 3.0], m=[1, 2], n_phi=3))
    assert pool_sizes == []
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["workers"] == manifest["cpus"] == 1


def test_run_starts_one_pool_for_all_its_tables(tmp_path, pool_sizes, monkeypatch):
    # the sweep and the quench jobs of a custom run share one pool, whose size
    # the manifest records; a failing run records the pool it started
    monkeypatch.setattr(obsent.runner, "_usable_cpus", lambda: 2)
    kwargs = dict(L=[16], delta=[1.0, 3.0], m=[1, 2], n_phi=3, seed=6, times=[0.0, 1.0, 2.0])
    manifests = []
    for jobs in (1, 2):
        run(make_config("custom", out=str(tmp_path / f"jobs{jobs}"), jobs=jobs, **kwargs))
        manifests.append(json.loads((tmp_path / f"jobs{jobs}" / "run_manifest.json").read_text()))
    assert pool_sizes == [2]
    assert [m["workers"] for m in manifests] == [1, 2]
    assert manifests[0]["outputs"] == manifests[1]["outputs"] == ["sweep.csv", "quench.csv"]
    for name in manifests[0]["outputs"]:
        assert (tmp_path / "jobs1" / name).read_bytes() == (tmp_path / "jobs2" / name).read_bytes()
    failing = make_config("fig3", out=str(tmp_path / "failed"), jobs=2, L=[16], delta=[1e307, 2.0], m=[1, 16],
                          n_phi=2, times=[0, 1, 2, 3, 4, 5, 6, 7, 8, 50], fit_window=[1, 8])
    with pytest.raises(FloatingPointError, match="^L=16, delta=1e\\+307, phase index 0-1: t \\* E overflows"):
        run(failing)
    manifest = json.loads((tmp_path / "failed" / "run_manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["workers"] == pool_sizes[1] == manifest["cpus"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs sched_setaffinity and at least two usable CPUs")
def test_pool_is_capped_by_the_affinity_mask(tmp_path):
    # a process held to one CPU runs --jobs 2 serially, though os.cpu_count()
    # still counts every CPU of the machine
    kwargs = dict(L=[16], delta=[1.0, 3.0], m=[1, 2], n_phi=3)
    run(make_config("fig1", out=str(tmp_path / "serial"), jobs=1, **kwargs))
    script = (f"import os\nfrom obsent import make_config, run\n"
              f"os.sched_setaffinity(0, {{{min(os.sched_getaffinity(0))}}})\n"
              f"run(make_config('fig1', out={str(tmp_path / 'masked')!r}, jobs=2, **{kwargs!r}))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    manifest = json.loads((tmp_path / "masked" / "run_manifest.json").read_text())
    assert manifest["workers"] == 1 and manifest["cpus"] == 1
    assert (tmp_path / "masked" / "fig1.csv").read_bytes() == (tmp_path / "serial" / "fig1.csv").read_bytes()


def _blas_threads(job):
    """A pool job that reads its worker's OpenBLAS thread count."""
    return obsent.model._LINALG.scipy_openblas_get_num_threads64_()


def test_pool_workers_run_one_blas_thread(tmp_path, monkeypatch):
    # a parent at two BLAS threads starts a real two-process pool whose workers
    # run one each, and the manifest names the setter that did it
    lib = obsent.model._LINALG
    if not hasattr(lib, "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy's BLAS exports no scipy_openblas thread getter")
    monkeypatch.setattr(obsent.runner, "_usable_cpus", lambda: 2)
    run(make_config("fig1", out=str(tmp_path), jobs=2, L=[16], delta=[1.0, 3.0], m=[1, 2], n_phi=3))
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["workers"] == 2 and manifest["worker_blas_setter"] == "scipy_openblas_set_num_threads64_"
    before = lib.scipy_openblas_get_num_threads64_()
    monkeypatch.setattr(obsent.runner, "_grid_job", _blas_threads)
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        counts = list(obsent.runner._map_grid([None, None], 2))
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
    assert counts == [1, 1]


# --- CLI ------------------------------------------------------------------


def test_cli_run_and_validate(tmp_path):
    out = tmp_path / "run"
    code = obsent.cli.main([
        "run", "--preset", "fig1", "--L", "16", "--delta", "1.0", "--m", "1,4",
        "--n-phi", "2", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    assert (out / "fig1.csv").exists()


def test_cli_validate_config_file(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"preset": "fig1", "L": [16], "m": [1], "n_phi": 2}))
    assert obsent.cli.main(["validate", "--config", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"preset": "fig1", "L": [12], "m": [5]}))
    assert obsent.cli.main(["validate", "--config", str(bad)]) == 2


def test_integral_float_mid_count_gives_the_int_count_table(capsys):
    # mid_count 10.0, from a config file or from --mid-count, reads as 10, as n_phi 100.0 reads as 100
    assert validate(config_from_mapping({"preset": "fig1", "L": [16], "m": [1], "n_phi": 2, "mid_count": 10.0})) == []
    flags = ["--preset", "fig1", "--L", "16", "--m", "1", "--n-phi", "2", "--mid-count", "10.0"]
    assert obsent.cli.main(["validate", *flags]) == 0, capsys.readouterr().out
    args = (64, 1.0, [1, 4], ("real", "momentum"))
    by_int = eigenstate_entropy_table(*args, n_phi=4, seed=3, mid_count=10)
    by_float = eigenstate_entropy_table(*args, n_phi=4, seed=3, mid_count=10.0)
    assert by_int.keys() == by_float.keys()
    for key in by_int:
        assert [np.float64(v).tobytes() for v in by_int[key]] == [np.float64(v).tobytes() for v in by_float[key]]


def compare_trees():
    """tools/compare_trees.py, which compares the outputs and peaks of two source trees."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "compare_trees.py")
    spec = importlib.util.spec_from_file_location("compare_trees", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compared_configs():
    """The configs whose outputs tools/compare_trees.py compares."""
    return compare_trees().CONFIGS


@pytest.mark.parametrize("args", compared_configs())
def test_compared_configs_validate(args, capsys):
    # a config that stopped validating would compare no CSV at all
    assert obsent.cli.main(["validate", *args.split()]) == 0, capsys.readouterr().out


def test_compare_trees_runs_end_to_end(monkeypatch, capsys):
    # one config through the tool's one pass, this checkout against itself
    tool = compare_trees()
    monkeypatch.setattr(tool, "CONFIGS", ("--preset custom --L 16 --delta 1 --m 1,2 --n-phi 2 --times 0,1",))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    assert tool.compare({"old": src, "new": src}) is True
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if ".csv" in line] == ["  quench.csv: identical", "  sweep.csv: identical"]
    assert "  window_flags: equal ({} -> {})" in lines
    assert len([line for line in lines if re.fullmatch(r"  tracemalloc peak: \d+ -> \d+ KiB", line)]) == 1
    assert lines[-1] == ("summary: 1 configs run, failed: none; CSVs 2 identical, 0 changed (largest difference 0); "
                         "window_flags differ: none; peak up by more than 11 KiB: none")


def test_cell_changes_counts_cells_and_the_largest_difference(tmp_path):
    cell_changes = compare_trees().cell_changes

    def write(name, rows):
        (tmp_path / name).write_text("".join(",".join(row) + "\n" for row in rows))
        return tmp_path / name

    old = write("old.csv", [["L", "S"], ["16", "1.5"], ["32", "2.0"]])
    assert cell_changes(old, write("same.csv", [["L", "S"], ["16", "1.5"], ["32", "2.0"]])) == (0, 0.0)
    assert cell_changes(old, write("number.csv", [["L", "S"], ["16", "1.25"], ["32", "2.0"]])) == (1, 0.25)
    cells, largest = cell_changes(old, write("text.csv", [["L", "T"], ["16", "1.5"], ["32", "2.0"]]))
    assert cells == 1 and math.isnan(largest)
    assert cell_changes(old, write("wide.csv", [["L", "S"], ["16", "1.5", "9"], ["32", "2.0"]])) == (3, 0.0)
    assert cell_changes(old, write("long.csv", [["L", "S"], ["16", "1.5"], ["32", "2.0"], ["64", "2.5"]])) == (2, 0.0)


@pytest.mark.parametrize("blocked", ["fig1.csv", "run_manifest.json"])
def test_cli_write_failure_is_a_config_error(tmp_path, capsys, blocked):
    # an output that cannot be written exits 2 with the config error's shape;
    # a blocked CSV leaves a failed manifest in place of an earlier run's
    out = tmp_path / "out"
    earlier = ["run", "--preset", "fig4", "--L", "16", "--delta", "1", "--m", "1", "--n-phi", "2", "--out", str(out)]
    assert obsent.cli.main(earlier) == 0
    (out / blocked).unlink(missing_ok=True)
    (out / blocked).mkdir()
    capsys.readouterr()
    assert obsent.cli.main(["run", "--preset", "fig1", "--L", "16", "--m", "1", "--n-phi", "2", "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    [diagnostic] = err["diagnostics"]
    assert err["error"] == "config"
    assert diagnostic.startswith(f"out={str(out)!r} is not a usable directory: ") and blocked in diagnostic
    if blocked == "fig1.csv":
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert (manifest["status"], manifest["preset"], manifest["outputs"]) == ("failed", "fig1", [])
        assert manifest["error"] == diagnostic
    else:
        assert (out / "fig1.csv").exists()


def test_cli_config_error_is_machine_readable(tmp_path, capsys):
    code = obsent.cli.main([
        "run", "--preset", "fig1", "--L", "12", "--m", "5", "--out", str(tmp_path),
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert err["diagnostics"] == ["m=5 does not divide L=12"]


@pytest.mark.parametrize("command", ["run", "validate"])
def test_cli_help_lists_every_config_flag(capsys, command):
    with pytest.raises(SystemExit):
        obsent.cli.main([command, "--help"])
    options = capsys.readouterr().out.split("options:")[1]
    assert re.findall(r"^  (-h|--[A-Za-z-]+)", options, flags=re.M) == [
        "-h", "--preset", "--config", "--L", "--delta", "--m", "--basis", "--bc", "--n-phi",
        "--seed", "--mid-count", "--selector", "--t-min", "--t-max", "--t-points", "--times",
        "--fit-window", "--initial-site", "--momentum-order", "--jobs", "--out",
    ]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("flags", [
    ["--preset", "custom", "--delta", "nan"],
    ["--preset", "custom", "--delta", "inf"],
    ["--preset", "custom", "--times", "0,1,inf"],
    ["--preset", "fig3", "--t-max", "inf"],
    ["--preset", "fig3", "--t-min", "nan"],
    ["--preset", "fig3", "--fit-window", "3,inf"],
], ids=["delta-nan", "delta-inf", "times-inf", "t_max-inf", "t_min-nan", "fit-inf"])
def test_cli_rejects_non_finite(tmp_path, monkeypatch, capsys, command, flags):
    def no_compute(*args):
        raise AssertionError("computation started for an invalid config")

    monkeypatch.setattr(obsent.runner, "_map_grid", no_compute)
    code = obsent.cli.main([command, *flags, "--L", "16", "--m", "1", "--out", str(tmp_path)])
    assert code == 2
    assert "is not finite" in "".join(capsys.readouterr())


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("config, flags, field", [
    ([1, 2], [], "JSON object"),
    ({"L": "abc"}, [], "L"),
    ({"n_phi": "ten"}, [], "n_phi"),
    ({"preset": "fig3", "t_points": 1.5}, [], "t_points"),
    ({"preset": "fig3", "fit_window": [3]}, [], "fit_window"),
    ({"preset": "fig3", "fit_window": [3, 30]}, ["--fit-window", "40"], "got [40]"),
    ({"seed": 1.5}, [], "seed"),
    ({"delta": [10**400]}, [], "delta"),
    ({"mid_count": [1]}, [], "mid_count"),
    ({"mid_count": True}, [], "mid_count must be"),
    (None, ["--preset", "bogus"], "preset"),
    (None, ["--basis", "bogus"], "basis"),
    (None, ["--bc", "bogus"], "bc"),
    (None, ["--selector", "bogus"], "selector"),
    (None, ["--momentum-order", "bogus"], "momentum_order"),
    (None, ["--L", "abc"], "L"),
    (None, ["--n-phi", "ten"], "n_phi"),
    (None, ["--mid-count", "L/0"], "mid_count"),
    (None, ["--preset", "fig1", "--L", "0"], "L=0"),
    (None, ["--preset", "fig1", "--L", "-4"], "L=-4"),
    (None, ["--preset", "fig1", "--L", ","], "L list is empty"),
    (None, ["--preset", "fig3", "--L", "16", "--m", "1,4", "--n-phi", "2", "--fit-window", "3,3.5"],
     "fit_window"),
    (None, ["--preset", "fig3", "--L", "16", "--m", "1,4", "--n-phi", "2",
            "--times", "0,1,2,3,4,5,6", "--fit-window", "0,6"], "fit_window"),
    (None, ["--preset", "fig1", "--L", "16,32", "--m", "1,2", "--n-phi", "2"], "no L column"),
    (None, ["--preset", "fig3", "--L", "16", "--m", "1", "--basis", "both"], "no basis column"),
    (None, ["--preset", "fig3", "--L", "16", "--m", "1", "--t-points", "10000000"], "t_points"),
    (None, ["--preset", "fig5", "--L", "16", "--delta", "1", "--m", "1", "--n-phi", "2"],
     "fig5_fluctuation.csv compares sizes"),
    (None, ["--preset", "fig5", "--L", "16,16", "--m", "1,1"], "L=[16, 16] repeats a value"),
    (None, ["--preset", "fig5", "--L", "16,16", "--m", "1,1"], "m=[1, 1] repeats a value"),
    (None, ["--preset", "fig4", "--L", "16", "--delta", "1,1.0", "--m", "1"], "delta=[1.0, 1.0] repeats a value"),
    (None, ["--preset", "fig1", "--L", "16", "--m", "0"], "m=0 is not a positive block size"),
    (None, ["--preset", "fig3", "--L", "16", "--m", "1", "--fit-window", "30,3"],
     "fit window [30.0, 3.0] is empty"),
    (None, ["--preset", "fig3", "--L", "16", "--m", "1", "--t-min", "0"],
     "log time grid needs 0 < t_min < t_max and t_points >= 2"),
    (None, ["--preset", "custom", "--L", "16", "--m", "1", "--times", "0,2,1"],
     "time grid must be non-negative and strictly ascending"),
    (None, ["--config", "no-such-dir/config.json"], "No such file or directory: 'no-such-dir/config.json'"),
], ids=["file-list", "L-str", "n_phi-str", "t_points-float", "fit_window-short",
        "fit_window-short-fit-hi", "seed-float", "delta-overflow", "mid_count-list", "mid_count-bool", "preset", "basis", "bc",
        "selector", "momentum_order", "L-flag", "n_phi-flag", "mid_count-flag", "fig1-L-zero",
        "fig1-L-negative", "fig1-L-empty", "fig3-fit-window-short", "fig3-fit-window-t0",
        "fig1-two-L", "fig3-both-bases", "fig3-t-points-cap", "fig5-one-L", "fig5-repeated-L",
        "fig5-repeated-m", "fig4-repeated-delta", "fig1-m-zero", "fig3-fit-window-empty", "fig3-t-min-zero",
        "custom-times-descending", "config-missing"])
def test_cli_rejects_malformed_values(tmp_path, monkeypatch, capsys, command, config, flags, field):
    def no_compute(*args):
        raise AssertionError("computation started for an invalid config")

    monkeypatch.setattr(obsent.runner, "_map_grid", no_compute)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        flags = ["--config", str(path), *flags]
    code = obsent.cli.main([command, *flags, "--out", str(tmp_path)])
    assert code == 2
    out, err = capsys.readouterr()
    if command == "validate":
        report = json.loads(out)
        assert report["valid"] is False and err == ""
    else:
        report = json.loads(err)
        assert report["error"] == "config" and out == ""
    assert any(field in d for d in report["diagnostics"])


@pytest.mark.parametrize("under", ["", "sub", None], ids=["file", "under-file", "name-too-long"])
def test_unusable_out_is_a_config_error(tmp_path, monkeypatch, capsys, under):
    def no_compute(*args):
        raise AssertionError("computation started for an unusable out")

    monkeypatch.setattr(obsent.runner, "_map_grid", no_compute)
    (tmp_path / "file").write_text("")
    if under is None:  # a name that Path.exists cannot examine
        out = str(tmp_path / ("x" * 300))
        error = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: {out!r}"
    else:
        out = str(tmp_path / "file" / under)
        error = f"{tmp_path / 'file'} is not a directory"
    message = f"out={out!r} is not a usable directory: {error}"
    assert validate(make_config("fig1", L=[16], m=[1], n_phi=2, out=out)) == [message]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run(make_config("fig1", L=[16], m=[1], n_phi=2, out=out))
    flags = ["--preset", "fig1", "--L", "16", "--m", "1", "--out", out]
    assert obsent.cli.main(["run", *flags]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "config", "diagnostics": [message]}
    assert obsent.cli.main(["validate", *flags]) == 2
    assert json.loads(capsys.readouterr().out) == {"valid": False, "diagnostics": [message]}
    assert [p.name for p in tmp_path.iterdir()] == ["file"] and (tmp_path / "file").read_text() == ""


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    def boom(config):
        raise np.linalg.LinAlgError("eigensolver did not converge")

    monkeypatch.setattr(obsent.cli, "run", boom)
    code = obsent.cli.main([
        "run", "--preset", "fig1", "--L", "16", "--m", "1", "--n-phi", "2",
        "--out", str(tmp_path),
    ])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "numerical"


def run_cli(preset, out, *flags):
    return obsent.cli.main(["run", "--preset", preset, "--L", "16", *flags, "--n-phi", "2",
                            "--out", str(out)])


LIBRARY_CALLS = {
    "eigenstate_entropy_table": lambda: eigenstate_entropy_table(16, 1.5, [1], n_phi=2),
    "quench_entropy_table": lambda: quench_entropy_table(ModelParams(L=16, delta=1.5), [0.0, 1.0], [1], n_phi=2),
}


@pytest.mark.parametrize("preset, solver", [("fig1", "chain_eigenvalues"), ("fig3", "chain_eigensystem"),
                                            ("eigenstate_entropy_table", "chain_eigenvalues"),
                                            ("quench_entropy_table", "chain_eigensystem")])
def test_cli_numerical_failure_names_grid_point(tmp_path, monkeypatch, capsys, preset, solver):
    # the presets and the library's table functions name the same grid point
    def boom(*args, **kwargs):  # a quench passes chain_eigensystem its boundary condition
        raise np.linalg.LinAlgError("eigensolver did not converge")

    # a window looks its solvers up in sampling, a quench in dynamics
    monkeypatch.setattr(obsent.dynamics if solver == "chain_eigensystem" else obsent.sampling, solver, boom)
    message = "L=16, delta=1.5, phase index 0-1: eigensolver did not converge"
    if preset in LIBRARY_CALLS:
        with pytest.raises(np.linalg.LinAlgError) as info:
            LIBRARY_CALLS[preset]()
        assert str(info.value) == message
        return
    code = run_cli(preset, tmp_path, "--delta", "1.5", "--m", "1")
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"
    assert err["message"] == message


def test_cli_lapack_info_names_grid_point(tmp_path, monkeypatch, capsys):
    # a window asks dstevd for eigenvalues only, a quench for eigenvectors too
    jobz = []

    def unconverged(*args):  # dstevd's arguments; info > 0 means no convergence
        jobz.append(args[0])
        info = args[10]
        assert len(args) == 12 and isinstance(info, ctypes.c_int64)
        info.value = 2

    monkeypatch.setattr(obsent.model, "_DSTEVD", unconverged)
    for preset in ("fig1", "fig3"):
        code = run_cli(preset, tmp_path / preset, "--delta", "1.5", "--m", "1")
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical"
        assert err["message"] == "L=16, delta=1.5, phase index 0-1: dstevd failed on chain 0 of the stack (info=2)"
    assert jobz == [b"N", b"V"]


def test_cli_failure_in_a_shared_block_names_each_delta(tmp_path, monkeypatch, capsys):
    # both deltas of L=16 share one block of 2 + 2 chains; the third chain,
    # the first phase of delta=2.5, does not converge
    calls = []

    def unconverged_third(jobz, n, d, e, *rest):
        calls.append(d)
        rest[-2].value = 2 if len(calls) == 3 else 0  # info

    monkeypatch.setattr(obsent.model, "_DSTEVD", unconverged_third)
    code = run_cli("fig4", tmp_path, "--delta", "1.5,2.5", "--m", "1")
    assert code == 3
    message = json.loads(capsys.readouterr().err)["message"]
    assert message == ("L=16, delta=1.5, phase index 0-1; delta=2.5, phase index 0-1: "
                       "dstevd failed on chain 2 of the stack (info=2)")
    assert len(calls) == 3
    assert json.loads((tmp_path / "run_manifest.json").read_text())["error"] == message


def test_cli_quench_phase_overflow_names_grid_point(tmp_path, capsys):
    code = run_cli("fig3", tmp_path, "--delta", "1e307", "--m", "1,16", "--fit-window", "1,8",
                   "--times", "0,1,2,3,4,5,6,7,8,50")
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"
    assert err["message"].startswith("L=16, delta=1e+307, phase index 0-1: t * E overflows")
    assert not list(tmp_path.glob("*.csv"))


def test_cli_fluctuation_failure_names_delta_and_m(tmp_path, capsys):
    # a potential this strong pins every state to one site, so S(m=1) is 0 at every L
    code = obsent.cli.main(["run", "--preset", "fig5", "--L", "16,32", "--delta", "1e300", "--m", "1,2",
                            "--n-phi", "2", "--out", str(tmp_path)])
    assert code == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "numerical", "message": "delta=1e+300, m=1, mean must be positive, got 0.0"}


@pytest.mark.parametrize("flags", [
    ("--preset", "fig5", "--L", "16,32", "--delta", "1e300", "--m", "1,2"),
    ("--preset", "custom", "--L", "16", "--delta", "1e307", "--m", "1", "--times", "0,1,50"),
], ids=["fig5-fluctuation", "custom-quench"])
def test_cli_failed_run_writes_no_csv(tmp_path, capsys, flags):
    """A table that fails after another one was computed leaves no CSV
    behind, and a manifest that says the run failed and why; the same run
    at a harmless delta says it is complete."""
    code = obsent.cli.main(["run", *flags, "--n-phi", "2", "--out", str(tmp_path / "failed")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"
    assert not list((tmp_path / "failed").glob("*.csv"))
    manifest = json.loads((tmp_path / "failed" / "run_manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["error"] == err["message"]
    assert manifest["outputs"] == [] and manifest["blas"] == NUMPY_BLAS
    harmless = [("1.5" if flag.startswith("1e") else flag) for flag in flags]
    assert obsent.cli.main(["run", *harmless, "--n-phi", "2", "--out", str(tmp_path / "complete")]) == 0
    manifest = json.loads((tmp_path / "complete" / "run_manifest.json").read_text())
    assert manifest["status"] == "complete" and "error" not in manifest
    assert sorted(manifest["outputs"]) == sorted(p.name for p in (tmp_path / "complete").glob("*.csv"))


@pytest.mark.parametrize("preset, flags", [("fig1", ()), ("fig3", ("--m", "1,4,16"))], ids=["fig1", "fig3"])
def test_cli_csvs_do_not_depend_on_solver_route(tmp_path, monkeypatch, preset, flags):
    assert run_cli(preset, tmp_path / "lapack", *flags) == 0
    monkeypatch.setattr(obsent.model, "_DSTEVD", None)
    assert run_cli(preset, tmp_path / "dense", *flags) == 0
    manifest = json.loads((tmp_path / "dense" / "run_manifest.json").read_text())
    assert manifest["eigensolver"] == "numpy-dense"
    names = sorted(p.name for p in (tmp_path / "lapack").glob("*.csv"))
    assert names == sorted(p.name for p in (tmp_path / "dense").glob("*.csv")) and names
    for name in names:
        assert (tmp_path / "lapack" / name).read_bytes() == (tmp_path / "dense" / name).read_bytes()


def test_cli_jobs_comes_only_from_its_flag(monkeypatch, tmp_path):
    # --jobs (or the config's jobs) is the one worker setting; the environment sets none
    seen = {}

    def capture(config):
        seen["jobs"] = config.jobs
        return []

    monkeypatch.setattr(obsent.cli, "run", capture)
    monkeypatch.setenv("OBSENT_JOBS", "3")
    obsent.cli.main(["run", "--preset", "fig1", "--L", "16", "--m", "1", "--jobs", "2",
                     "--out", str(tmp_path)])
    assert seen["jobs"] == 2
    obsent.cli.main(["run", "--preset", "fig1", "--L", "16", "--m", "1", "--out", str(tmp_path)])
    assert seen["jobs"] == 1


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "obsent.cli", "run", "--preset", "fig1", "--L", "16",
         "--delta", "1.0", "--m", "1", "--n-phi", "2", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "fig1.csv" in result.stdout


def test_csvs_do_not_depend_on_blas_threads(tmp_path):
    # an L=512 sweep and quench on both sides of the transition, at one and at
    # two BLAS/OpenMP threads (no more, so the test fits a two-core machine)
    flags = ["--preset", "custom", "--L", "512", "--delta", "1,3", "--m", "1,8", "--basis", "momentum",
             "--mid-count", "L/8", "--n-phi", "2", "--times", "0.5,5,50"]
    for threads in ("1", "2"):
        env = {**os.environ, **dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), threads)}
        result = subprocess.run([sys.executable, "-m", "obsent.cli", "run", *flags, "--out", str(tmp_path / threads)],
                                env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        manifest = json.loads((tmp_path / threads / "run_manifest.json").read_text())
        assert set(manifest["threads"].values()) == {threads}
    for name in ("sweep.csv", "quench.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
