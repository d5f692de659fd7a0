"""Compare the CSVs that two source trees write for a fixed list of runs.

Usage::

    python tools/cmp_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src`` directories (each holding the
``obsent`` package) of two checkouts.  Every config of :data:`CONFIGS` runs
as ``obsent run`` in a fresh process per tree, with one BLAS/OpenMP thread,
into a temporary directory.  For each CSV the script prints "identical" or
"changed", and for a changed one the number of changed cells and the
largest absolute difference between numeric cells; for each config it says
whether the manifests' ``window_flags`` match (a tree from before that
key was named reports its ``dense_fallbacks``).  It exits 1 when a config
fails or writes no CSV in either tree, and 0 otherwise, changed CSVs
included: a change is reported, not judged.
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
#: integers written as integral floats, which read as their ints, and
#: eigen-large's L=512 windows, which take both flags.
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
)

_ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def run_config(src: Path, args: str, out: Path) -> str:
    """Run one config on the package under ``src`` into ``out``; the error
    output of a failed run, else ""."""
    env = {**os.environ, **_ONE_THREAD, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "obsent.cli", "run", *args.split(), "--out", str(out)],
                          env=env, capture_output=True, text=True)
    return "" if done.returncode == 0 else f"exit {done.returncode}: {done.stderr.strip()}"


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


def window_flags(out: Path):
    manifest = json.loads((out / "run_manifest.json").read_text())
    return manifest.get("window_flags", manifest.get("dense_fallbacks"))


def compare(old_src: Path, new_src: Path) -> bool:
    """Run and compare every config; True when all of them ran and wrote CSVs."""
    ok = True
    for args in CONFIGS:
        print(f"== {args}", flush=True)
        with tempfile.TemporaryDirectory() as tmp:
            outs = {"old": Path(tmp) / "old", "new": Path(tmp) / "new"}
            errors = {tag: run_config(src, args, outs[tag]) for tag, src in (("old", old_src), ("new", new_src))}
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
            flags = [window_flags(outs[tag]) for tag in ("old", "new")]
            print(f"  window_flags: {'equal' if flags[0] == flags[1] else 'differ'} ({flags[0]} -> {flags[1]})")
    return ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return 0 if compare(*(Path(a).resolve() for a in argv)) else 1


if __name__ == "__main__":
    sys.exit(main())
