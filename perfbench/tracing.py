"""Span tracing of risjam's public functions, installed from outside the package.

Every risjam module calls its siblings through the module attribute
(`wf.rs_encode`, `rx.cross_correlate`, ...), so replacing that attribute with
a wrapper puts a span around every call without editing the package. A span
records its name, start, end, the span that caused it and the run id. Spans
stay in memory until the traced process writes them out at its end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# module -> public functions traced, in the order they are reported
FUNCTIONS = {
    "channel": ("sample_realization", "optimize_phases", "cascaded_coefficient",
                "build_correlation"),
    "jammer": ("jammer_transform",),
    "waveform": ("rs_encode", "rs_decode", "modulate", "demodulate"),
    "receiver": ("estimate_onset", "cross_correlate", "similarity_ratio",
                 "equalize_stream", "estimate_aoa", "separate_spatial",
                 "partition_temporal", "classify_jammer", "pilot_anomaly_fraction"),
    "adaptation": ("select_link",),
    "pipeline": ("run_trial",),
    "harness": ("calibrate_noise", "run_sweep", "rows_to_csv"),
    "cli": ("main",),
}


def _trial_outcome(result):
    cls = result.jammer_class
    return {
        "detected": bool(result.detected),
        "classified": cls is not None and cls.value != "unknown",
        "correct": bool(result.classified_correct),
    }


# span name -> outcome flags read from the return value
OUTCOMES = {
    "waveform.rs_decode": lambda r: {"fail": bool(r.failure)},
    "adaptation.select_link": lambda r: {"compliant": bool(r.compliant)},
    "pipeline.run_trial": _trial_outcome,
}

# ratio metric -> (span name, outcome flag); an "error" flag is set when the
# call raised
RATIOS = {
    "waveform.rs_decode.fail_ratio": ("waveform.rs_decode", "fail"),
    "receiver.separate_spatial.error_ratio": ("receiver.separate_spatial", "error"),
    "adaptation.select_link.compliant_ratio": ("adaptation.select_link", "compliant"),
    "pipeline.run_trial.detected_ratio": ("pipeline.run_trial", "detected"),
    "pipeline.run_trial.classified_ratio": ("pipeline.run_trial", "classified"),
    "pipeline.run_trial.correct_ratio": ("pipeline.run_trial", "correct"),
}


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]


class Tracer:
    """Collects spans of the wrapped functions in one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent, attrs)
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        outcome = OUTCOMES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, {"error": type(exc).__name__}))
                raise
            end = clock()
            stack.pop()
            spans.append((sid, name, start, end, parent, outcome(result) if outcome else None))
            return result

        return traced

    def install(self) -> None:
        """Replace each listed function on its module, and on every other
        loaded risjam module that imported the same object by name."""
        mods = {m: importlib.import_module(f"risjam.{m}") for m in FUNCTIONS}
        loaded = [m for k, m in sys.modules.items()
                  if m is not None and (k == "risjam" or k.startswith("risjam."))]
        for mod_name, fns in FUNCTIONS.items():
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                orig = getattr(mods[mod_name], fn_name, None)
                if not callable(orig):
                    self.missing.append(name)
                    continue
                traced = self.wrap(name, orig)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, traced)

    def dump(self, path: str) -> None:
        """Write the spans as one JSON object per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "missing": self.missing}) + "\n")
            for sid, name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "run": self.run_id, "attrs": attrs,
                }) + "\n")


def load_spans(path: str) -> tuple[list[str], list[dict]]:
    """(missing function names, spans) from a file written by Tracer.dump."""
    with open(path) as fh:
        head = json.loads(fh.readline())
        return head["missing"], [json.loads(line) for line in fh]


def summarize(missing: list[str], spans: list[dict]) -> dict:
    """Per-function calls, self time and outcome ratios from one run's spans.

    Self time is a span's duration minus the time its direct child spans
    cover; calls run on one thread, so children nest inside their parent.
    A function missing from its module reports None, not 0 calls.
    """
    child_ns: dict[int, int] = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    flags: dict[tuple[str, str], int] = {}
    for s in spans:
        name = s["name"]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + s["end_ns"] - s["start_ns"] - child_ns.get(s["id"], 0)
        for flag, value in (s["attrs"] or {}).items():
            if value:
                flags[(name, flag)] = flags.get((name, flag), 0) + 1
    out: dict[str, float | None] = {}
    for name in span_names():
        gone = name in missing
        out[f"{name}.calls"] = None if gone else calls.get(name, 0)
        out[f"{name}.self_ms"] = None if gone else self_ns.get(name, 0) / 1e6
    for metric, (name, flag) in RATIOS.items():
        # no calls gives 0; the base is the function's own .calls metric
        base = calls.get(name, 0)
        out[metric] = None if name in missing else (flags.get((name, flag), 0) / base if base else 0.0)
    return out
