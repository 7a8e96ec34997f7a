"""Sweep benchmark for risjam: throughput, set-up time and memory of whole
Monte Carlo sweeps, and (with --trace 1) per-function calls and self time.

    python3 perfbench/run.py --workload temporal --seed 1 --seconds 20 --trace 0

Run from the repository root. Each sweep is a fresh process that calls
`risjam.cli.main` on an INI generated from the workload and the seed, with
`jobs = 1` and BLAS pinned to one thread. Sweeps of the same seed repeat
for about --seconds; metrics are medians over them, with times in
reference seconds (see PROBE_REF_S). The last line of standard output is
the JSON result; the lines before it are the same metrics as a table, the
wall-clock values, the output checks and the provenance. Full per-sweep
records go to perfbench/.out/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, ".out")
REFERENCE = os.path.join(HERE, "reference.json")

# every process of one invocation must be done well inside 180 s
BUDGET_S = 165.0
MIN_SWEEPS = 3  # untraced sweeps per --trace 0 invocation
# Host speed on a shared box swings by up to 1.7x for minutes at a time,
# whatever code runs. Times are therefore reported in reference seconds:
# wall seconds scaled by PROBE_REF_S over the time host_probe() takes around
# the same sweep, i.e. what the sweep would take on a host where the probe
# takes PROBE_REF_S. Wall-clock values are printed and saved next to them.
PROBE_REF_S = 0.08  # about the probe time on an idle 2-vCPU Xeon test box
SCALED = {"trials_per_s": -1, "sweep_s": 1, "setup_s": 1}  # power of the scale
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    orthogonality: str
    ris_sizes: tuple[int, ...]
    jsr_db: tuple[float, ...]
    baseline_snr_db: float
    fixed_rate: float | None
    trials: int  # per cell; sized so one sweep takes a few seconds
    jammers: tuple[str, ...] = ("drfm", "ps", "as")


def _grid(start, stop, step):
    n = int(round((stop - start) / step)) + 1
    return tuple(start + i * step for i in range(n))


WORKLOADS = {
    # figure2a: codec and FFT cross-correlation dominate; no MUSIC/LCMV
    "temporal": Workload(
        orthogonality="temporal", ris_sizes=(64,), jsr_db=_grid(-10.0, 20.0, 2.5),
        baseline_snr_db=7.0, fixed_rate=0.94, trials=16,
    ),
    # figure2b: the only workload with MUSIC/LCMV, 8x4096 array synthesis and
    # the wasted second frame encode
    "spatial": Workload(
        orthogonality="spatial", ris_sizes=(64,), jsr_db=_grid(-10.0, 20.0, 2.5),
        baseline_snr_db=11.0, fixed_rate=0.94, trials=8,
    ),
    # figure3: O(M^2) channel products, the M=512 eigendecomposition and
    # adaptive coding, spread over the most cells
    "ris_growth": Workload(
        orthogonality="temporal", ris_sizes=(64, 128, 256, 512),
        jsr_db=_grid(0.0, 20.0, 5.0), baseline_snr_db=7.0, fixed_rate=None, trials=8,
    ),
}

PROBABILITIES = ("detect_rate", "classify_rate", "payload_fraction")
POSITIVE = ("gain", "t_baseline", "t_jammed")


def make_ini(w: Workload, seed: int, trials: int) -> str:
    lines = [
        "[sweep]",
        "jammers = " + ", ".join(w.jammers),
        "topology = source_aware",
        f"orthogonality = {w.orthogonality}",
        "ris_sizes = " + ", ".join(str(m) for m in w.ris_sizes),
        "jsr_db = " + ", ".join(repr(j) for j in w.jsr_db),
        f"trials = {trials}",
        f"seed = {seed}",
        "jobs = 1",
        "",
        "[link]",
        f"baseline_snr_db = {w.baseline_snr_db!r}",
    ]
    if w.orthogonality == "spatial":
        lines += ["", "[receiver]", "antennas = 8"]
    if w.fixed_rate is not None:
        lines += ["", "[adaptation]", f"fixed_rate = {w.fixed_rate!r}"]
    return "\n".join(lines) + "\n"


def check_csv(text: str, header: str, w: Workload) -> list[str]:
    """Problems found in a sweep CSV; empty when it passes."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return ["CSV header differs from harness.CSV_HEADER"]
    problems = []
    expected = {(j, m, round(s, 6)) for j in w.jammers for m in w.ris_sizes for s in w.jsr_db}
    seen = []
    for row in csv.DictReader(io.StringIO(text)):
        try:
            seen.append((row["jammer"], int(row["ris_size"]), round(float(row["jsr_db"]), 6)))
            for col in POSITIVE:
                v = float(row[col])
                if not (math.isfinite(v) and v > 0):
                    problems.append(f"{col}={row[col]} not finite and positive")
            for col in PROBABILITIES:
                v = float(row[col])
                if not 0.0 <= v <= 1.0:
                    problems.append(f"{col}={row[col]} outside [0, 1]")
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"unreadable row {row!r}: {exc}")
    if len(seen) != len(set(seen)) or set(seen) != expected:
        problems.append(f"rows are not one per cell: {len(seen)} rows, {len(expected)} cells")
    return problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({k: "1" for k in ONE_THREAD})
    return env


def host_probe() -> float:
    """Median time of a fixed kernel with the mix a trial runs: FFTs, 8 x 4096
    array synthesis and reduction, small array updates and plain
    interpreter work. It measures the host only, on one thread."""
    x = np.arange(4096, dtype=complex)
    steer = np.exp(1j * np.arange(8))
    rem = np.zeros(32, dtype=np.int64)
    times = []
    for _ in range(3):
        t = time.perf_counter()
        for _ in range(150):
            np.fft.ifft(np.fft.fft(x))
        for _ in range(60):
            a = np.outer(steer, x) + np.outer(steer[::-1], x)
            (a * a.conj()).real.sum(axis=1)
        for i in range(30000):
            rem[:-1] = rem[1:]
            rem[-1] = i & 255
        acc = 0
        for i in range(250000):
            acc ^= (i * i) & 255
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def run_sweep(name: str, seed: int, tag: str, trace: bool, trials: int | None = None,
              timeout: float = BUDGET_S) -> dict:
    """One sweep in a fresh process; returns its record.

    record["problems"] is empty when the process exited 0, wrote its report
    and the CSV passed the output check.
    """
    w = WORKLOADS[name]
    trials = w.trials if trials is None else trials
    os.makedirs(OUT, exist_ok=True)
    base = os.path.join(OUT, tag)
    paths = {k: f"{base}.{k}" for k in ("ini", "csv", "report", "spans")}
    for p in paths.values():
        if os.path.exists(p):
            os.remove(p)
    with open(paths["ini"], "w") as fh:
        fh.write(make_ini(w, seed, trials))
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "",
           paths["ini"], paths["csv"], paths["report"]]
    if trace:
        cmd += [paths["spans"], tag]
    rec = {"tag": tag, "traced": trace, "trials": trials, "problems": []}
    env = child_env()
    spawn_t = time.monotonic()
    cmd[2] = repr(spawn_t)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        rec["problems"].append(f"sweep exceeded {timeout:.0f} s")
        return rec
    if proc.returncode != 0 or not os.path.exists(paths["report"]):
        tail = (proc.stderr or "").strip().splitlines()[-3:]
        rec["problems"].append(f"sweep exited {proc.returncode}: {' | '.join(tail)}")
        return rec
    with open(paths["report"]) as fh:
        report = json.load(fh)
    with open(paths["csv"], "rb") as fh:
        raw = fh.read()
    rec["problems"] += check_csv(raw.decode(errors="replace"), report["csv_header"], w)
    n_trials = trials * len(w.jammers) * len(w.ris_sizes) * len(w.jsr_db)
    rec.update(
        report=report,
        sha256=hashlib.sha256(raw).hexdigest(),
        setup_s=report["setup_end_t"] - spawn_t,
        sweep_s=report["end_t"] - spawn_t,
        trials_per_s=n_trials / (report["end_t"] - report["setup_end_t"]),
        peak_rss_mb=report["maxrss_kb"] * 1024 / 1e6,
    )
    if trace:
        rec["layers"] = tracing.summarize(*tracing.load_spans(paths["spans"]))
    return rec


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, records: list[dict]) -> dict:
    report = next((r["report"] for r in records if "report" in r), {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": report.get("python"),
        "numpy": report.get("numpy"),
        "scipy": report.get("scipy"),
        "blas": report.get("blas"),
        "blas_threads_env": report.get("blas_env"),
        "git_commit": git_commit(),
        "seed": seed,
    }


def reference_sha(name: str, seed: int, trials: int) -> str | None:
    try:
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    except (OSError, ValueError):
        return None
    if ref.get("trials", {}).get(name) != trials:
        return None
    return ref.get("sha256", {}).get(name, {}).get(str(seed))


def _calls(rec):
    return {k: v for k, v in rec["layers"].items() if k.endswith(".calls")}


def _spread(values):
    return f"min {min(values):.6g}, max {max(values):.6g}, n={len(values)}"


UNITS = {"trials_per_s": "1/s", "sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "risjam", "cli.py")):
        print(f"perfbench: risjam sources not found under {ROOT}/src", file=sys.stderr)
        return 2

    start = time.monotonic()
    name, seed, traced = args.workload, args.seed, bool(args.trace)
    # a step is one sweep, or with --trace 1 an untraced and a traced sweep of
    # the same seed; steps repeat until the next one would end more than half
    # a step past --seconds
    kinds = (False, True) if traced else (False,)
    min_sweeps = 2 if traced else MIN_SWEEPS
    records: list[dict] = []
    step_s = 0.0  # longest step so far
    probe = host_probe()
    while True:
        elapsed = time.monotonic() - start
        if records and (
            (len(records) >= min_sweeps and elapsed + step_s / 2 > args.seconds)
            or elapsed + 2 * step_s > BUDGET_S
        ):
            break
        for trace_this in kinds:
            i = len(records)
            records.append(run_sweep(name, seed, f"{name}-s{seed}-{i}", trace_this,
                                     timeout=BUDGET_S - (time.monotonic() - start)))
            after = host_probe()
            records[-1]["probe_s"] = (probe + after) / 2
            probe = after
            if records[-1]["problems"]:
                break
        step_s = max(step_s, time.monotonic() - start - elapsed)
        if len(records) % len(kinds):
            break  # the untraced half of a pair failed

    ok = [r for r in records if not r["problems"]]
    if not ok:
        for r in records:
            print(f"{r['tag']}: " + "; ".join(r["problems"]), file=sys.stderr)
        print("perfbench: no sweep completed", file=sys.stderr)
        return 1
    # same seed, same inputs: every sweep must write the same bytes, and
    # every traced sweep must make the same calls
    first_sha = ok[0]["sha256"]
    first_calls = next((_calls(r) for r in ok if r["traced"]), None)
    for r in ok:
        if r["sha256"] != first_sha:
            r["problems"].append("CSV differs from the first sweep of this seed")
        if r["traced"] and _calls(r) != first_calls:
            r["problems"].append("call counts differ from the first traced sweep")
    ok = [r for r in ok if not r["problems"]]
    failed = len(records) - len(ok)
    trials = WORKLOADS[name].trials
    ref = reference_sha(name, seed, trials)

    out = {"workload": name, "seed": seed, "trace": args.trace,
           "trials_per_cell": trials, "sweeps": records,
           "provenance": provenance(seed, records),
           "csv_sha256": first_sha,
           "matches_reference": None if ref is None else ref == first_sha,
           "failed_run_fraction": failed / len(records)}
    lines = [f"perfbench {name} seed={seed} trace={args.trace} "
             f"trials/cell={trials} sweeps={len(records)} failed={failed}"]
    for r in records:
        for p in r["problems"]:
            lines.append(f"  FAILED {r['tag']}: {p}")
    untraced = [r for r in ok if not r["traced"]]
    metrics = {}
    if not traced:
        for key, unit in UNITS.items():
            vals = [r[key] * (PROBE_REF_S / r["probe_s"]) ** SCALED.get(key, 0)
                    for r in untraced]
            metrics[key] = {"value": statistics.median(vals), "unit": unit}
            lines.append(f"  {key:<14} {statistics.median(vals):12.6g} {unit:<4} "
                         f"(median; {_spread(vals)})")
            if key in SCALED:
                wall = [r[key] for r in untraced]
                lines.append(f"  {'  wall clock':<14} {statistics.median(wall):12.6g} "
                             f"{unit:<4} (median; {_spread(wall)})")
        probes = [r["probe_s"] for r in untraced]
        lines.append(f"  {'host probe':<14} {statistics.median(probes):12.6g} s    "
                     f"(median; {_spread(probes)}; reference {PROBE_REF_S} s)")
    else:
        layers = [r["layers"] for r in ok if r["traced"]]
        # adjacent sweeps share the host's current speed, so difference pairs
        pairs = [(u, t) for u, t in zip(records[0::2], records[1::2])
                 if not u["problems"] and not t["problems"]]
        if not pairs:
            print("perfbench: no untraced/traced pair completed", file=sys.stderr)
            return 1
        for key in layers[0]:
            vals = [lay[key] for lay in layers]
            unit = "count" if key.endswith(".calls") else "ms" if key.endswith("_ms") else "ratio"
            # calls and ratios repeat exactly; self times are medians
            value = None if None in vals else statistics.median(vals) if unit == "ms" else vals[0]
            metrics[key] = {"value": value, "unit": unit}
            lines.append(f"  {key:<44} " + ("missing" if value is None else f"{value:.6g} {unit}"))
        overhead = statistics.median(t["sweep_s"] - u["sweep_s"] for u, t in pairs)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        lines.append(f"  {'trace.overhead_s':<44} {overhead:.6g} s "
                     f"(median over {len(pairs)} pairs of traced minus untraced wall-clock "
                     "sweep_s, same seed)")
    lines.append(f"  failed_run_fraction {failed / len(records):.6g} ratio "
                 f"({failed} of {len(records)} sweeps)")
    lines.append(f"  csv_sha256 {first_sha} matches_reference="
                 f"{'n/a' if ref is None else ref == first_sha}")
    for k, v in out["provenance"].items():
        lines.append(f"  {k}: {v}")
    out["metrics"] = metrics
    with open(os.path.join(OUT, f"{name}-s{seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(out, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
