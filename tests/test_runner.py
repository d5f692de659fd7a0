"""Configuration validation, preset outputs, reproducibility, CLI contract."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import obsent.cli
import obsent.runner
from obsent import ConfigError, config_from_mapping, make_config, run, validate


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


def test_overrides_beat_preset():
    cfg = make_config("fig3", delta=[2.0], n_phi=7, out="somewhere")
    assert cfg.delta == (2.0,) and cfg.n_phi == 7 and cfg.out == "somewhere"


def test_unknown_preset_and_fields():
    with pytest.raises(ConfigError):
        make_config("fig9")
    with pytest.raises(ConfigError):
        config_from_mapping({"preset": "fig1", "Lmax": 64})


def test_validate_power_of_two():
    cfg = make_config("custom", L=[12], delta=[1.0], m=[1])
    assert any("not a power of 2" in d for d in validate(cfg))


def test_validate_divisibility():
    cfg = make_config("custom", L=[8], delta=[1.0], m=[3])
    assert any("does not divide" in d for d in validate(cfg))


def test_validate_empty_time_grid():
    cfg = make_config("custom", L=[8], delta=[1.0], m=[1], times=[])
    assert any("time grid is empty" in d for d in validate(cfg))


def test_validate_clean_config():
    assert validate(make_config("fig1", L=[64], m=[1, 2], n_phi=2)) == []


def test_validate_collects_everything():
    cfg = make_config("custom", L=[12], delta=[-1.0], m=[5], n_phi=0, jobs=0)
    diags = validate(cfg)
    assert len(diags) >= 4


def test_run_rejects_invalid_config(tmp_path):
    cfg = make_config("custom", L=[12], delta=[1.0], m=[1], out=str(tmp_path))
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


def test_manifest_contents(tmp_path):
    cfg = make_config("fig1", L=[16], delta=[1.0], m=[1], n_phi=2, out=str(tmp_path))
    run(cfg)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["preset"] == "fig1"
    assert manifest["config"]["seed"] == 42
    assert manifest["versions"]["numpy"] == np.__version__
    assert manifest["outputs"] == ["fig1.csv"]
    assert manifest["wall_time_s"] >= 0.0


def test_rerun_byte_identical(tmp_path):
    kwargs = dict(L=[16], delta=[0.5, 2.5], m=[1, 2], n_phi=4, seed=11)
    run(make_config("fig4", out=str(tmp_path / "a"), **kwargs))
    run(make_config("fig4", out=str(tmp_path / "b"), **kwargs))
    assert (tmp_path / "a" / "fig4.csv").read_bytes() == (tmp_path / "b" / "fig4.csv").read_bytes()


@pytest.mark.parametrize("preset, extra", [
    ("fig4", {}),
    ("fig3", dict(t_min=0.5, t_max=40.0, t_points=12)),
    ("custom", dict(times=[0.0, 1.0, 2.0])),
], ids=["fig4", "fig3", "custom-times"])
def test_parallel_matches_serial(tmp_path, preset, extra):
    kwargs = dict(L=[8, 16], delta=[1.0, 3.0], m=[1, 2], n_phi=3, seed=6, **extra)
    serial = run(make_config(preset, out=str(tmp_path / "serial"), jobs=1, **kwargs))
    parallel = run(make_config(preset, out=str(tmp_path / "parallel"), jobs=2, **kwargs))
    csvs = [(a, b) for a, b in zip(serial, parallel) if a.suffix == ".csv"]
    assert csvs
    for a, b in csvs:
        assert a.name == b.name and a.read_bytes() == b.read_bytes()


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


def test_cli_config_error_is_machine_readable(tmp_path, capsys):
    code = obsent.cli.main([
        "run", "--preset", "fig1", "--L", "12", "--m", "1", "--out", str(tmp_path),
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert any("power of 2" in d for d in err["diagnostics"])


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("flags", [
    ["--preset", "custom", "--delta", "nan"],
    ["--preset", "custom", "--delta", "inf"],
    ["--preset", "custom", "--times", "0,1,inf"],
    ["--preset", "fig3", "--t-max", "inf"],
    ["--preset", "fig3", "--t-min", "nan"],
    ["--preset", "fig3", "--fit-hi", "inf"],
], ids=["delta-nan", "delta-inf", "times-inf", "t_max-inf", "t_min-nan", "fit-inf"])
def test_cli_rejects_non_finite(tmp_path, monkeypatch, capsys, command, flags):
    def no_compute(*args):
        raise AssertionError("computation started for an invalid config")

    monkeypatch.setattr(obsent.runner, "_map_grid", no_compute)
    code = obsent.cli.main([command, *flags, "--L", "16", "--m", "1", "--out", str(tmp_path)])
    assert code == 2
    assert "is not finite" in "".join(capsys.readouterr())


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


def test_cli_jobs_env_default(monkeypatch, tmp_path):
    seen = {}

    def capture(config):
        seen["jobs"] = config.jobs
        return []

    monkeypatch.setattr(obsent.cli, "run", capture)
    monkeypatch.setenv("OBSENT_JOBS", "3")
    obsent.cli.main(["run", "--preset", "fig1", "--L", "16", "--m", "1", "--out", str(tmp_path)])
    assert seen["jobs"] == 3
    obsent.cli.main(["run", "--preset", "fig1", "--L", "16", "--m", "1", "--jobs", "2",
                     "--out", str(tmp_path)])
    assert seen["jobs"] == 2


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "obsent.cli", "run", "--preset", "fig1", "--L", "16",
         "--delta", "1.0", "--m", "1", "--n-phi", "2", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "fig1.csv" in result.stdout
