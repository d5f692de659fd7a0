"""obsent benchmark: figure-shaped workloads timed end to end from outside.

Usage::

    python3 bench/run.py --workload eigen-small --seed 42 --seconds 40 --trace 0

Each measured run is a fresh single-threaded child process (``child.py``)
that calls ``obsent.config_from_mapping`` -> ``obsent.validate`` ->
``obsent.run``.  Children run one after another (a closed loop with one
client) for as long as the next one is expected to end within ``--seconds``.
Every child's CSVs are checked; a child whose output fails a check counts
as a failed operation.

``--trace 0`` reports the end-to-end metrics, medians over the children:

* ``run_s``: wall seconds of ``obsent.run(config)`` (compute, CSV, manifest)
* ``cpu_s``: user+sys CPU seconds of the child process
* ``setup_s``: launch of the child until its config has validated
* ``peak_rss_mb``: the child's peak resident set size

``--trace 1`` alternates untraced and traced children and reports, for
each boundary in ``tracing.BOUNDARIES``, ``<module>.<function>.calls``,
``.busy_s`` (inclusive), ``.self_s`` and ``.busy_share`` (of ``run_s``),
the computed counts, and ``trace_overhead_s`` (traced minus untraced
``run_s``).

The seed reaches obsent only as ``config.seed``.  At the default seed the
CSVs must also match ``reference/<workload>/`` within 1e-10 absolute; the
references were written by this benchmark's own child at the commit that
introduced it.  Full records (environment, configs, every sample) go to
``.bench_build/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import NAMES, BOUNDARIES, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
DEFAULT_SEED = 42
TOLERANCE = 1e-10
RUN_LIMIT_S = 170.0  # children still running this long after the start are killed


@dataclass(frozen=True)
class Workload:
    config: dict
    outputs: dict  # CSV name -> expected number of data rows


def _workloads() -> dict:
    small_L, small_delta, small_m = [16, 32, 64], [round(0.2 * k, 10) for k in range(1, 21)], [1, 2, 4]
    large_delta, large_m = [0.5, 1.5, 2.5, 3.5], [1, 2, 4, 8]
    q_delta, q_m, q_points = [1.0, 2.0, 3.0], [1, 4, 16, 256], 60
    return {
        "eigen-small": Workload(
            dict(preset="fig5", L=small_L, delta=small_delta, m=small_m, basis="real",
                 mid_count="L/8", n_phi=100, jobs=1),
            {"fig5_curves.csv": len(small_L) * len(small_delta) * len(small_m),
             "fig5_fluctuation.csv": len(small_delta) * len(small_m)},
        ),
        "eigen-large": Workload(
            dict(preset="fig4", L=[512], delta=large_delta, m=large_m, basis="both",
                 mid_count="L/8", n_phi=25, jobs=1),
            {"fig4.csv": 2 * len(large_delta) * len(large_m)},
        ),
        "quench": Workload(
            dict(preset="fig3", L=[256], delta=q_delta, m=q_m, basis="real", t_min=0.1,
                 t_max=100.0, t_points=q_points, fit_window=[3.0, 30.0], n_phi=100, jobs=1),
            {"fig3.csv": len(q_delta) * len(q_m) * q_points, "fig3_slopes.csv": len(q_delta) * len(q_m)},
        ),
    }


WORKLOADS = _workloads()


# ---------------------------------------------------------------------------
# children

def _child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _probe_environment(env: dict) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "env.py")], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import obsent from {ROOT / 'src'}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _run_child(workdir: Path, config: dict, traced: bool, env: dict, timeout: float) -> dict:
    """Launch one child, wait for it, and return its sample.  A traced
    child's spans stay in ``workdir/spans.json``."""
    workdir.mkdir(parents=True)
    config_path, result_path, spans_path = (workdir / n for n in ("config.json", "result.json", "spans.json"))
    config_path.write_text(json.dumps(config))
    argv = [sys.executable, str(BENCH / "child.py"), str(config_path), str(result_path)]
    if traced:
        argv.append(str(spans_path))
    with open(workdir / "child.log", "wb") as log:
        t_launch = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {
        "traced": traced,
        "exit": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if proc.returncode == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
        sample["setup_s"] = result["t_validated"] - t_launch
        sample["run_s"] = result["run_s"]
    if traced and spans_path.is_file():
        trace = json.loads(spans_path.read_text())
        sample["absent"] = trace["absent"]
        sample["stats"] = summarize(trace)
    return sample


# ---------------------------------------------------------------------------
# output checks

def _read_csv(path: Path):
    rows = list(csv.reader(io.StringIO(path.read_text())))
    return rows[0], rows[1:]


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def check_outputs(name: str, workload: Workload, out_dir: Path, seed: int, first: dict) -> tuple[list, float]:
    """Problems found in one child's outputs, and the largest deviation
    from the reference CSVs (at the default seed; 0 otherwise).

    ``first`` maps CSV names to the bytes the run's first child wrote; it
    is filled on the first call, and later children must match it exactly.
    """
    problems, max_dev = [], 0.0
    if not (out_dir / "run_manifest.json").is_file():
        problems.append("run_manifest.json missing")
    for csv_name, n_rows in workload.outputs.items():
        path = out_dir / csv_name
        if not path.is_file():
            problems.append(f"{csv_name} missing")
            continue
        data = path.read_bytes()
        if first.setdefault(csv_name, data) != data:
            problems.append(f"{csv_name} differs from the first run at the same seed")
        header, rows = _read_csv(path)
        if len(rows) != n_rows:
            problems.append(f"{csv_name}: {len(rows)} rows, expected {n_rows}")
        problems.extend(_bounds_problems(csv_name, header, rows, workload.config["L"]))
        if seed == DEFAULT_SEED:
            dev, ref_problems = _reference_deviation(name, csv_name, header, rows)
            max_dev = max(max_dev, dev)
            problems.extend(ref_problems)
    return problems, max_dev


def _bounds_problems(csv_name: str, header: list, rows: list, L_values: list) -> list:
    problems = []
    col = {h: i for i, h in enumerate(header)}
    for r, row in enumerate(rows):
        values = [_as_float(cell) for cell in row]
        numbers = [v for h, v in zip(header, values) if h != "basis"]
        if len(row) != len(header) or not all(v is not None and math.isfinite(v) for v in numbers):
            problems.append(f"{csv_name} row {r + 1}: malformed or non-finite {row}")
            continue
        L = values[col["L"]] if "L" in col else max(L_values)
        if "mean_S" in col and not 0.0 <= values[col["mean_S"]] <= math.log(L) + 1e-12:
            problems.append(f"{csv_name} row {r + 1}: mean_S={row[col['mean_S']]} outside [0, ln {L:g}]")
        for key in ("stderr_S", "f"):
            if key in col and values[col[key]] < 0.0:
                problems.append(f"{csv_name} row {r + 1}: {key} is negative")
    return problems[:10]


def _reference_deviation(name: str, csv_name: str, header: list, rows: list) -> tuple[float, list]:
    ref_header, ref_rows = _read_csv(BENCH / "reference" / name / csv_name)
    if header != ref_header or len(rows) != len(ref_rows):
        return math.inf, [f"{csv_name}: header or row count differs from the reference"]
    max_dev = 0.0
    for row, ref_row in zip(rows, ref_rows):
        for cell, ref in zip(row, ref_row):
            a, b = _as_float(cell), _as_float(ref)
            if a is None or b is None:
                if cell != ref:
                    return math.inf, [f"{csv_name}: {cell!r} where the reference has {ref!r}"]
            else:
                max_dev = max(max_dev, abs(a - b))
    if not max_dev <= TOLERANCE:
        return max_dev, [f"{csv_name}: deviates from the reference by {max_dev:.3e} > {TOLERANCE:g}"]
    return max_dev, []


# ---------------------------------------------------------------------------
# metrics

def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(samples: list) -> dict:
    timed = [s for s in samples if not s["traced"] and "run_s" in s]
    units = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    return {key: dict(_summary([s[key] for s in timed]), unit=unit) for key, unit in units.items()}


def per_layer(samples: list) -> dict:
    untraced = [s["run_s"] for s in samples if not s["traced"] and "run_s" in s]
    stats = [(s["run_s"], s["stats"]) for s in samples if s["traced"] and "run_s" in s and "stats" in s]
    out = {}
    for (_, _, count_name, _), name in zip(BOUNDARIES, NAMES):
        per_child = [st[name] for _, st in stats]
        out[f"{name}.calls"] = (statistics.median(c["calls"] for c in per_child), "count")
        out[f"{name}.busy_s"] = (statistics.median(c["busy_s"] for c in per_child), "s")
        out[f"{name}.self_s"] = (statistics.median(c["self_s"] for c in per_child), "s")
        out[f"{name}.busy_share"] = (
            statistics.median(100.0 * st[name]["busy_s"] / run_s for run_s, st in stats), "%")
        if count_name:
            unit = "B" if count_name.startswith("bytes") else "count"
            out[f"{name}.{count_name}"] = (statistics.median(c["count"] for c in per_child), unit)
    overhead = statistics.median(run_s for run_s, _ in stats) - statistics.median(untraced)
    out["trace_overhead_s"] = (overhead, "s")
    return {key: {"value": value, "unit": unit} for key, (value, unit) in out.items()}


# ---------------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool, spans_out: Path) -> dict:
    """Run children for ``seconds`` and check each; the spans of the last
    traced child are moved to ``spans_out``."""
    workload = WORKLOADS[name]
    env = _child_env()
    environment = _probe_environment(env)
    work = BUILD / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    samples, problems, first, max_dev, walls = [], [], {}, 0.0, []
    deadline = time.monotonic() + seconds
    kill_at = time.monotonic() + RUN_LIMIT_S
    for i in itertools.count():
        traced = trace and i % 2 == 1
        # An untraced child opens a sample (a pair when tracing): start it
        # only if it is expected to end in time, so runs keep their length.
        if i and not traced and time.monotonic() + (1 + trace) * statistics.fmean(walls) > deadline:
            break
        started = time.monotonic()
        workdir = work / str(i)
        config = dict(workload.config, seed=seed, out=str(workdir / "out"))
        sample = _run_child(workdir, config, traced, env, max(1.0, kill_at - time.monotonic()))
        if sample["exit"] == 0:
            found, dev = check_outputs(name, workload, workdir / "out", seed, first)
            max_dev = max(max_dev, dev)
        else:
            log = (workdir / "child.log").read_text(errors="replace").strip().splitlines()
            found = [f"exit code {sample['exit']}: {log[-1] if log else ''}"]
        sample["problems"] = found
        problems.extend(f"run {i}: {p}" for p in found)
        samples.append(sample)
        if "stats" in sample:
            os.replace(workdir / "spans.json", spans_out)
        shutil.rmtree(workdir)
        walls.append(time.monotonic() - started)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "config": workload.config, "environment": environment,
        "samples": samples, "problems": problems, "max_reference_deviation": max_dev,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "obsent" / "__init__.py").is_file():
        print(f"no obsent sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         results / f"{stem}.spans.json")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1

    samples = record["samples"]
    attempted = len(samples)
    failed = sum(1 for s in samples if s["problems"])
    if not {False, bool(args.trace)} <= {s["traced"] for s in samples if "run_s" in s}:
        print("no run finished; problems:\n" + "\n".join(record["problems"]), file=sys.stderr)
        return 1
    e2e = end_to_end(samples)
    record["end_to_end"] = e2e
    if args.trace:
        metrics = per_layer(samples)
        record["per_layer"] = metrics
        record["absent_boundaries"] = next((s["absent"] for s in samples if "absent" in s), [])
    else:
        metrics = {key: {"value": s["median"], "unit": s["unit"]} for key, s in e2e.items()}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  {attempted} runs  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  blas {env['blas']}  "
          f"threads {env['threads']}  nproc {env['nproc']}  cpu {env['cpu_model']}")
    for key, s in e2e.items():
        print(f"  {key:<12} {s['median']:.6g} {s['unit']}  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    print(f"  {'error_rate':<12} {failed / attempted:.6g} 1  ({failed} of {attempted} runs failed)")
    if args.trace:
        for key, m in metrics.items():
            print(f"  {key:<50} {m['value']:.6g} {m['unit']}")
        if record["absent_boundaries"]:
            print(f"  absent boundaries: {', '.join(record['absent_boundaries'])}")
    for p in record["problems"][:20]:
        print(f"  problem: {p}")
    print(f"  record: {results / (stem + '.json')}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
