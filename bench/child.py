"""One measured run: ``config_from_mapping`` -> ``validate`` -> ``run``.

Usage: ``python3 bench/child.py CONFIG_JSON RESULT_JSON [SPANS_JSON]``.

Writes ``{"t_validated": <CLOCK_MONOTONIC seconds>, "run_s": <seconds>}``
to RESULT_JSON.  The launching process reads the clock before it starts
this one, so the difference is the set-up time: interpreter start, the
numpy/obsent import and config construction.  With SPANS_JSON the run is
traced (see ``tracing.py``) and the spans are written there afterwards.
Exit codes: 2 for an invalid config, 4 when obsent is not imported from
this checkout's ``src``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import obsent


def main(argv) -> int:
    src = Path(__file__).resolve().parents[1] / "src"
    if not Path(obsent.__file__).resolve().is_relative_to(src):
        print(f"obsent imported from {obsent.__file__}, not from {src}", file=sys.stderr)
        return 4
    with open(argv[1]) as fh:
        config = obsent.config_from_mapping(json.load(fh))
    diagnostics = obsent.validate(config)
    if diagnostics:
        print("; ".join(diagnostics), file=sys.stderr)
        return 2
    t_validated = time.monotonic()
    tracer = None
    if len(argv) > 3:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    obsent.run(config)
    run_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.dump(argv[3])
    with open(argv[2], "w") as fh:
        json.dump({"t_validated": t_validated, "run_s": run_s}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
