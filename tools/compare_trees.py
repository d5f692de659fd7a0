"""Compare the CSVs and the tracemalloc peaks of two source trees.

Usage::

    python tools/compare_trees.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src`` directories (each holding the
``obsent`` package) of two checkouts.  Every config of :data:`CONFIGS` runs
in one fresh process per tree, with one BLAS/OpenMP thread and one worker
(``--jobs 1``), so that the run computes in the process it is traced in.
That process calls ``obsent run`` twice: once to warm up, into a scratch
directory, and then under tracemalloc, into the compared directory.

For each CSV the script prints "identical" or "changed", and for a changed
one the number of changed cells and the largest absolute difference between
numeric cells; for each config it says whether the manifests'
``window_flags`` match, and prints the traced run's peak in KiB as old ->
new.  The same code peaks a few KiB apart from one process to the next
(up to 11 KiB over eight processes of the L=16 fig3 config with 600 times
and 40 phases), so a difference that small says nothing.  The last line
sums up: the configs run and failed, the CSVs identical and changed with
the largest difference, and the configs (numbered as in the headers) whose
``window_flags`` differ or whose peak rose by more than those 11 KiB.

It exits 1 when a run fails or writes no CSV in either tree, and 0
otherwise, changed CSVs and higher peaks included: a change is reported,
not judged.
"""

from __future__ import annotations

import csv
import json
import math
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
#: delta = 1e200, where ``dstevd`` scales every chain down (max|d| above
#: about 1e146) and every window is re-solved as "inaccurate".  The last
#: seven are the memory configs: the quench tables of fig3's size, of an L=64
#: ring and of L=16 (130 phases, a partial block; then 600 times), and
#: eigen-large's L=512 blocks at delta = 2.5 (near-degenerate windows), 3.5
#: (an inaccurate chain re-solved beside the lanes) and 0 (odd windows
#: ending on a +-E tie).
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
    "--preset custom --L 16,32 --delta 0.5,1e200 --m 1,2 --basis both --n-phi 4",
    "--preset fig3 --L 256 --delta 1 --m 1,4,16 --n-phi 8 --seed 1",
    "--preset fig3 --L 64 --delta 1.3 --m 1,4 --n-phi 20 --seed 1 --bc periodic",
    "--preset fig3 --L 16 --delta 1 --m 1,4,16 --n-phi 130 --seed 1",
    "--preset fig3 --L 16 --delta 1 --m 1,4,16 --n-phi 130 --seed 1 --t-points 600",
    "--preset custom --L 512 --delta 2.5 --m 1,2,4,8 --basis both --mid-count L/8 --n-phi 25",
    "--preset custom --L 512 --delta 3.5 --m 1,2,4,8 --basis both --mid-count L/8 --n-phi 25",
    "--preset custom --L 512 --delta 0 --m 1,2,4,8 --basis both --mid-count 63 --n-phi 16",
)

#: The child process: argv is the warm-up directory, the compared directory
#: and the config's arguments; its last line of output is the traced peak.
_MEASURE = """\
import sys
import tracemalloc
from obsent.cli import main

warm, out, *args = sys.argv[1:]
code = main(["run", *args, "--jobs", "1", "--out", warm])
if code == 0:
    tracemalloc.start()
    code = main(["run", *args, "--jobs", "1", "--out", out])
    print(tracemalloc.get_traced_memory()[1])
sys.exit(code)
"""

_CHILD_ENV = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def run(src: Path, args: str, warm: Path, out: Path) -> tuple:
    """Run the config ``args`` on the package under ``src``, into ``warm`` and
    then under tracemalloc into ``out``: the traced run's peak in KiB (None
    if a run failed), and the error output of a failed run (else "")."""
    env = {**os.environ, **_CHILD_ENV, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _MEASURE, str(warm), str(out), *args.split()],
                          env=env, capture_output=True, text=True)
    if done.returncode:
        return None, f"exit {done.returncode}: {done.stderr.strip()}"
    return int(done.stdout.split()[-1]) / 1024, ""


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
    """Compare every config's outputs and peak between the trees of ``srcs``
    ({"old": ..., "new": ...}); True when every run succeeded and every
    config wrote CSVs in both trees."""
    ok, failed, identical, diffs, flagged, higher = True, [], 0, [], [], []
    for number, args in enumerate(CONFIGS, 1):
        print(f"== {number}: {args}", flush=True)
        with tempfile.TemporaryDirectory() as tmp:
            outs = {tag: Path(tmp) / tag for tag in srcs}
            peaks = {}
            for tag, src in srcs.items():
                peaks[tag], error = run(src, args, Path(tmp) / f"{tag}-warm", outs[tag])
                if error:
                    print(f"  FAILED in the {tag} tree, {error}")
            if None in peaks.values():
                ok = False
                failed.append(number)
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
                    identical += 1
                else:
                    cells, largest = cell_changes(old, new)
                    diffs.append(largest)
                    print(f"  {name}: changed, {cells} cells, largest absolute difference {largest:.3g}")
            flags = [json.loads((out / "run_manifest.json").read_text())["window_flags"] for out in outs.values()]
            print(f"  window_flags: {'equal' if flags[0] == flags[1] else 'differ'} ({flags[0]} -> {flags[1]})")
            print(f"  tracemalloc peak: {peaks['old']:.0f} -> {peaks['new']:.0f} KiB")
            flagged += [number] if flags[0] != flags[1] else []
            higher += [number] if peaks["new"] - peaks["old"] > 11 else []
    largest = float("nan") if any(map(math.isnan, diffs)) else max(diffs, default=0.0)
    print(f"summary: {len(CONFIGS)} configs run, failed: {_numbers(failed)}; CSVs {identical} identical, "
          f"{len(diffs)} changed (largest difference {largest:.3g}); window_flags differ: {_numbers(flagged)}; "
          f"peak up by more than 11 KiB: {_numbers(higher)}")
    return ok


def _numbers(configs) -> str:
    """Config numbers as "#3 #7", or "none"."""
    return " ".join(f"#{n}" for n in configs) or "none"


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(0 if compare({"old": Path(sys.argv[1]).resolve(), "new": Path(sys.argv[2]).resolve()}) else 1)
