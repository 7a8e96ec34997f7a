"""Tests of the sweep benchmark itself, at one trial per cell.

    python3 -m pytest -q perfbench
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing


@functools.cache
def sweep(name, seed, traced, rep=0):
    tag = f"test-{name}-s{seed}-{'t' if traced else 'u'}{rep}"
    return run.run_sweep(name, seed, tag, traced, trials=1)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_output_check_passes(name, seed):
    assert sweep(name, seed, False)["problems"] == []


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_same_seed_same_csv(name):
    assert sweep(name, 1, False)["sha256"] == sweep(name, 1, False, rep=1)["sha256"]
    assert sweep(name, 1, False)["sha256"] != sweep(name, 2, False)["sha256"]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tracing_leaves_csv_unchanged(name):
    traced = sweep(name, 1, True)
    assert traced["problems"] == []
    assert traced["sha256"] == sweep(name, 1, False)["sha256"]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_calls_repeat_exactly(name):
    first = run._calls(sweep(name, 1, True))
    assert first == run._calls(sweep(name, 1, True, rep=1))
    assert None not in first.values()
    assert set(first) == {f"{n}.calls" for n in tracing.span_names()}


def test_spatial_path_runs_only_on_spatial():
    lay = {name: sweep(name, 1, True)["layers"] for name in run.WORKLOADS}
    for fn in ("receiver.estimate_aoa", "receiver.separate_spatial"):
        assert lay["temporal"][f"{fn}.calls"] == 0
        assert lay["ris_growth"][f"{fn}.calls"] == 0
        assert lay["spatial"][f"{fn}.calls"] > 0

    def encodes_per_trial(name):
        return lay[name]["waveform.rs_encode.calls"] / lay[name]["pipeline.run_trial.calls"]

    assert encodes_per_trial("spatial") > 3 * encodes_per_trial("temporal")


def _header():
    return sweep("temporal", 1, False)["report"]["csv_header"]


def _csv(w, edit=None):
    header = _header()
    rows = []
    for j in w.jammers:
        for m in w.ris_sizes:
            for s in w.jsr_db:
                row = dict(jsr_db=s, jammer=j, topology="source_aware", ris_size=m,
                           t_baseline=1.0, t_jammed=1.1, gain=1.1, detect_rate=1,
                           classify_rate=0.5, tau_err="nan", modulation="psk4",
                           code_rate=0.94, payload_fraction=1, stderr_gain=0.01)
                rows.append(row)
    if edit:
        edit(rows)
    cols = header.split(",")
    return "\n".join([header] + [",".join(str(r[c]) for c in cols) for r in rows]) + "\n"


def test_check_csv_catches_bad_output():
    w = run.WORKLOADS["temporal"]
    header = _header()
    assert run.check_csv(_csv(w), header, w) == []
    assert run.check_csv(_csv(w), header + ",extra", w)
    assert run.check_csv(_csv(w, lambda rows: rows.pop()), header, w)
    assert run.check_csv(_csv(w, lambda rows: rows.append(rows[0])), header, w)
    assert run.check_csv(_csv(w, lambda rows: rows[3].update(gain="nan")), header, w)
    assert run.check_csv(_csv(w, lambda rows: rows[3].update(t_jammed=0)), header, w)
    assert run.check_csv(_csv(w, lambda rows: rows[3].update(detect_rate=1.5)), header, w)


def test_self_time_subtracts_children_and_marks_missing():
    spans = [
        {"id": 0, "name": "pipeline.run_trial", "start_ns": 0, "end_ns": 100,
         "parent": None, "attrs": {"detected": True, "classified": False, "correct": False}},
        {"id": 1, "name": "waveform.rs_encode", "start_ns": 10, "end_ns": 40,
         "parent": 0, "attrs": None},
        {"id": 2, "name": "waveform.rs_decode", "start_ns": 50, "end_ns": 70,
         "parent": 0, "attrs": {"fail": True}},
        {"id": 3, "name": "waveform.rs_encode", "start_ns": 55, "end_ns": 60,
         "parent": 2, "attrs": None},
    ]
    out = tracing.summarize(["receiver.estimate_aoa"], spans)
    assert out["pipeline.run_trial.self_ms"] == pytest.approx(50e-6)
    assert out["waveform.rs_decode.self_ms"] == pytest.approx(15e-6)
    assert out["waveform.rs_encode.calls"] == 2
    assert out["waveform.rs_decode.fail_ratio"] == 1.0
    assert out["pipeline.run_trial.detected_ratio"] == 1.0
    assert out["pipeline.run_trial.classified_ratio"] == 0.0
    assert out["receiver.separate_spatial.calls"] == 0
    assert out["receiver.estimate_aoa.calls"] is None
    assert out["receiver.estimate_aoa.self_ms"] is None


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *bench["command"][1:], "--workload", "temporal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
