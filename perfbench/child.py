"""One sweep in a fresh process: `risjam.cli.main` on a generated INI.

Usage: child.py SPAWN_T INI CSV REPORT [SPANS RUN_ID]

SPAWN_T is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC on Linux, shared by all processes), so set-up and
sweep times count interpreter start-up. With SPANS given the public
functions are traced and the spans are written there after the sweep.
Writes a JSON report with the timestamps, the exit code of `main`, the peak
RSS and the library versions.
"""

import json
import os
import resource
import sys
import time


def _blas_name(numpy):
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return None


def main(argv):
    spawn_t = float(argv[1])
    ini, csv_path, report_path = argv[2], argv[3], argv[4]
    spans_path = argv[5] if len(argv) > 5 else None

    import numpy
    import scipy

    from risjam import cli, harness

    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer(argv[6])
        tracer.install()

    # set-up ends when calibration returns; the first trial follows at once
    marks = {}
    calibrate = harness.calibrate_noise

    def calibrate_noise(cfg):
        result = calibrate(cfg)
        marks["setup_end"] = time.monotonic()
        return result

    harness.calibrate_noise = calibrate_noise
    rc = cli.main(["--config", ini, "--out", csv_path])
    end_t = time.monotonic()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.dump(spans_path)
    report = {
        "rc": rc,
        "spawn_t": spawn_t,
        "setup_end_t": marks.get("setup_end"),
        "end_t": end_t,
        "maxrss_kb": maxrss_kb,
        "csv_header": harness.CSV_HEADER,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(numpy),
        "blas_env": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_THREADS")},
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0 if rc == 0 else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv))
