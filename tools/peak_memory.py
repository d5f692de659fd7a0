"""Compare the tracemalloc peaks of a fixed list of table calls in two source trees.

Usage::

    python tools/peak_memory.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src`` directories (each holding the
``obsent`` package) of two checkouts.  Every call of :data:`CONFIGS` runs in
a fresh process per tree, with one BLAS/OpenMP thread: one warm-up call,
then a second call under tracemalloc, whose peak is printed in KiB as
old -> new.  It exits 1 when a run fails in either tree, and 0 otherwise,
higher peaks included: a change is reported, not judged.  The same code
peaks a few KiB apart from one process to the next (up to 6.5 KiB over
four processes of the L=16, 600-time quench), so a difference that small
says nothing.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

#: Name and table call of each measured config: the quench tables of fig3's
#: size, of an L=64 ring, of L=16 with 130 phases (a partial block) and of
#: L=16 with 600 times, and the L=512 lane blocks at delta = 2.5 (with
#: near-degenerate windows) and at delta = 0 (every odd window ending on a
#: +-E tie).
CONFIGS = (
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
    ("lanes L=512 delta=0 all-tie",
     "phase_table([ModelParams(L=512, delta=0.0)], 16, 42, Window(63), (1, 2, 4, 8), ('real', 'momentum'))"),
)

_ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

_MEASURE = """
import tracemalloc
import numpy as np
from obsent import ModelParams, quench_entropy_table
from obsent.analysis import eigenstate_window
from obsent.sampling import Window, phase_table
call = lambda: {call}
call()
tracemalloc.start()
call()
print(tracemalloc.get_traced_memory()[1])
"""


def peak_kib(src: Path, call: str) -> tuple:
    """The tracemalloc peak in KiB of ``call``'s second run on the package
    under ``src``, and the error output of a failed run (else "")."""
    env = {**os.environ, **_ONE_THREAD, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _MEASURE.format(call=call)],
                          env=env, capture_output=True, text=True)
    if done.returncode:
        return None, f"exit {done.returncode}: {done.stderr.strip()}"
    return int(done.stdout.split()[-1]) / 1024, ""


def compare(old_src: Path, new_src: Path) -> bool:
    """Measure every config in both trees; True when all of them ran."""
    ok = True
    for name, call in CONFIGS:
        (old, old_error), (new, new_error) = peak_kib(old_src, call), peak_kib(new_src, call)
        for tag, error in (("old", old_error), ("new", new_error)):
            if error:
                print(f"{name}: FAILED in the {tag} tree, {error}", flush=True)
                ok = False
        if not (old_error or new_error):
            print(f"{name}: {old:.0f} -> {new:.0f} KiB", flush=True)
    return ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return 0 if compare(*(Path(a).resolve() for a in argv)) else 1


if __name__ == "__main__":
    sys.exit(main())
