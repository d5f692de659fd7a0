"""Print the environment a benchmark result was measured in, as one JSON line.

Runs as a child with the same environment as the measured runs, so the
thread variables and library versions it reports are the ones they saw;
its imports also leave the byte-code caches warm for them.
"""

from __future__ import annotations

import io
import json
import os
import platform
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import obsent


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _caches() -> list:
    out = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            out.append({key: (index / key).read_text().strip() for key in ("level", "type", "size")})
        except OSError:
            continue
    return out


def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints
        buf = io.StringIO()
        with redirect_stdout(buf):
            np.show_config()
        return buf.getvalue().strip()
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def main() -> None:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    print(json.dumps({
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": _blas(),
        "obsent": obsent.__version__,
    }))


if __name__ == "__main__":
    main()
