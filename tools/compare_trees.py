"""Compare the CSVs and the tracemalloc peaks of two source trees.

Usage::

    python tools/compare_trees.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src`` directories (each holding the
``obsent`` package) of two checkouts.  Every run below is a fresh process
per tree, with one BLAS/OpenMP thread.

* Outputs: every config of :data:`CONFIGS` runs as ``obsent run`` into a
  temporary directory.  For each CSV the script prints "identical" or
  "changed", and for a changed one the number of changed cells and the
  largest absolute difference between numeric cells; for each config it says
  whether the manifests' ``window_flags`` match.
* Memory: every call of :data:`CALLS` runs once as a warm-up and then once
  under tracemalloc, whose peak is printed in KiB as old -> new.  The same
  code peaks a few KiB apart from one process to the next (up to 6.5 KiB
  over four processes of the L=16, 600-time quench), so a difference that
  small says nothing.

It exits 1 when a run fails or writes no CSV in either tree, and 0
otherwise, changed CSVs and higher peaks included: a change is reported,
not judged.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: ``obsent run`` arguments of each compared config.  Together they cover the
#: four presets, both bases, both boundary conditions, both selectors, both
#: momentum orders, eigenstate and quench tables, a delta = 0 odd window whose
#: edge is a +-E tie (in index and in kinetic momentum order), the default
#: quench site at odd L, the two-site ring, long time grids whose quench
#: blocks are sized by their states rather than their eigenvectors,
#: integers written as integral floats, which read as their ints,
#: eigen-large's L=512 windows, which take both flags, and delta = 1e200,
#: where ``dstevd`` scales every chain down (max|d| above about 1e146) and
#: every window is flagged "inaccurate" and re-solved.
CONFIGS = (
    "--preset fig1",
    "--preset fig3",
    "--preset fig4",
    "--preset fig5",
    "--preset fig3 --L 16 --m 1,4,16 --n-phi 130",
    "--preset fig3 --L 16 --m 1,4,16 --t-points 600 --n-phi 40",
    "--preset fig3 --L 16 --m 1,4,16 --t-points 600 --n-phi 40 --bc periodic",
    "--preset custom --L 32,64 --delta 0.5,2.5 --m 1,2,8 --basis both",
    "--preset custom --L 16 --delta 0,0.75 --m 1 --mid-count 9 --n-phi 4",
    "--preset custom --L 16,64,128 --delta 0 --m 1,2,4,8 --basis both --momentum-order kinetic --mid-count 9 --n-phi 4",
    "--preset custom --L 32,64 --delta 0.5,2.5 --m 1,2,8 --basis real --times 0.5,1,2,4,8",
    "--preset custom --L 16,32 --delta 0,1.5 --m 1,4 --basis momentum --bc periodic --times 0,0.5,3,20 --initial-site 3",
    "--preset custom --L 64 --delta 0,1 --m 1,4 --basis momentum --bc periodic --selector ground --momentum-order kinetic",
    "--preset custom --L 16 --delta 1 --m 1,2 --basis momentum --momentum-order kinetic --times 0.1,1,10 --initial-site 1",
    "--preset custom --L 3,5 --delta 0.5,3 --m 1 --times 0,1,5 --n-phi 4",
    "--preset custom --L 2 --delta 0,1 --m 1,2 --bc periodic --times 0,0.5,2 --n-phi 3",
    "--preset custom --L 16.0,32.0 --delta 1 --m 1.0,2.0 --n-phi 4.0 --seed 7.0 --mid-count 2.0 "
    "--times 0,1,5 --initial-site 3.0",
    "--preset custom --L 512 --delta 2.5,3.5 --m 1,2,4,8 --basis both --mid-count L/8 --n-phi 25",
    "--preset custom --L 16,32 --delta 0.5,1e200 --m 1,2 --basis both --n-phi 4",
)

#: Name and table call of each measured config: the quench tables of fig3's
#: size, of an L=64 ring, of L=16 with 130 phases (a partial block) and of
#: L=16 with 600 times, and the L=512 lane blocks at delta = 2.5 (with
#: near-degenerate windows), at delta = 3.5 (whose inaccurate chain is
#: re-solved beside the lanes) and at delta = 0 (every odd window ending on
#: a +-E tie).  Each call may use the names :data:`PREAMBLE` binds.
CALLS = (
    ("quench fig3-size L=256",
     "quench_entropy_table(ModelParams(L=256, delta=1.0), np.geomspace(0.1, 100.0, 60), (1, 4, 16),"
     " n_phi=8, seed=1)"),
    ("quench ring L=64",
     "quench_entropy_table(ModelParams(L=64, delta=1.3, bc='periodic'), np.geomspace(0.1, 100.0, 60), (1, 4),"
     " n_phi=20, seed=1)"),
    ("quench L=16 130 phases",
     "quench_entropy_table(ModelParams(L=16, delta=1.0), np.geomspace(0.1, 100.0, 60), (1, 4, 16),"
     " n_phi=130, seed=1)"),
    ("quench L=16 600 times",
     "quench_entropy_table(ModelParams(L=16, delta=1.0), np.geomspace(0.1, 100.0, 600), (1, 4, 16),"
     " n_phi=130, seed=1)"),
    ("lanes L=512 delta=2.5",
     "phase_table([ModelParams(L=512, delta=2.5)], 25, 42, eigenstate_window(512, 'L/8', 'mid'),"
     " (1, 2, 4, 8), ('real', 'momentum'))"),
    ("lanes L=512 delta=3.5",
     "phase_table([ModelParams(L=512, delta=3.5)], 25, 42, eigenstate_window(512, 'L/8', 'mid'),"
     " (1, 2, 4, 8), ('real', 'momentum'))"),
    ("lanes L=512 delta=0 all-tie",
     "phase_table([ModelParams(L=512, delta=0.0)], 16, 42, Window(63), (1, 2, 4, 8), ('real', 'momentum'))"),
)

#: The imports of the measuring process.
PREAMBLE = """\
import tracemalloc
import numpy as np
from obsent import ModelParams, quench_entropy_table
from obsent.analysis import eigenstate_window
from obsent.sampling import Window, phase_table
"""

_MEASURE = PREAMBLE + """
call = lambda: {call}
call()
tracemalloc.start()
call()
print(tracemalloc.get_traced_memory()[1])
"""

_ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def run(src: Path, argv: list) -> tuple:
    """Run ``python *argv`` on the package under ``src``: its stdout, and
    the error output of a failed run (else "")."""
    env = {**os.environ, **_ONE_THREAD, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    return done.stdout, "" if done.returncode == 0 else f"exit {done.returncode}: {done.stderr.strip()}"


def cell_changes(old: Path, new: Path) -> tuple:
    """The number of cells that differ between two CSVs, and the largest
    absolute difference between numeric cells (NaN if a changed cell is
    not a number); a row of another length counts each of its cells."""
    with open(old, newline="") as a, open(new, newline="") as b:
        rows_a, rows_b = list(csv.reader(a)), list(csv.reader(b))
    changed, largest = 0, 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        if len(row_a) != len(row_b):
            changed += max(len(row_a), len(row_b))
            continue
        for x, y in zip(row_a, row_b):
            if x != y:
                changed += 1
                try:
                    largest = max(largest, abs(float(x) - float(y)))
                except ValueError:
                    largest = float("nan")
    changed += sum(len(row) for row in (rows_a[len(rows_b):] + rows_b[len(rows_a):]))
    return changed, largest


def compare(srcs: dict) -> bool:
    """Compare every config's outputs, then every call's peak, between the
    trees of ``srcs`` ({"old": ..., "new": ...}); True when all of them ran
    and every config wrote CSVs in both trees."""
    ok = True
    for args in CONFIGS:
        print(f"== {args}", flush=True)
        with tempfile.TemporaryDirectory() as tmp:
            outs = {tag: Path(tmp) / tag for tag in srcs}
            errors = {tag: run(src, ["-m", "obsent.cli", "run", *args.split(), "--out", str(outs[tag])])[1]
                      for tag, src in srcs.items()}
            for tag, error in errors.items():
                if error:
                    print(f"  FAILED in the {tag} tree, {error}")
            if any(errors.values()):
                ok = False
                continue
            names = sorted({p.name for out in outs.values() for p in out.glob("*.csv")})
            if not names:
                print("  FAILED: no CSV written")
                ok = False
            for name in names:
                old, new = outs["old"] / name, outs["new"] / name
                if not (old.exists() and new.exists()):
                    print(f"  {name}: written by the {'old' if old.exists() else 'new'} tree only")
                    ok = False
                elif old.read_bytes() == new.read_bytes():
                    print(f"  {name}: identical")
                else:
                    cells, largest = cell_changes(old, new)
                    print(f"  {name}: changed, {cells} cells, largest absolute difference {largest:.3g}")
            flags = [json.loads((out / "run_manifest.json").read_text())["window_flags"] for out in outs.values()]
            print(f"  window_flags: {'equal' if flags[0] == flags[1] else 'differ'} ({flags[0]} -> {flags[1]})")
    for name, call in CALLS:
        peaks = {tag: run(src, ["-c", _MEASURE.format(call=call)]) for tag, src in srcs.items()}
        for tag, (_, error) in peaks.items():
            if error:
                print(f"{name}: FAILED in the {tag} tree, {error}", flush=True)
                ok = False
        if not any(error for _, error in peaks.values()):
            old, new = (int(out.split()[-1]) / 1024 for out, _ in peaks.values())
            print(f"{name}: {old:.0f} -> {new:.0f} KiB", flush=True)
    return ok


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(0 if compare({"old": Path(sys.argv[1]).resolve(), "new": Path(sys.argv[2]).resolve()}) else 1)
