"""The benchmark's traced functions and the result attributes it reads must
exist: perfbench/tracing.py wraps each `risjam.<module>.<function>` it lists,
and a missing one would turn its per-layer metrics into "missing" instead of
failing; its OUTCOMES extractors read flags off the return values."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from risjam import adaptation as ad
from risjam import waveform as wf
from risjam.harness import ExperimentConfig, calibrate_noise
from risjam.jammer import JammerModel
from risjam.pipeline import run_trial

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_functions_are_callable():
    functions = _tracing().FUNCTIONS
    assert functions
    for module, names in functions.items():
        mod = importlib.import_module(f"risjam.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"risjam.{module}.{name}"


def test_outcome_extractors_read_real_results():
    code = wf.DEFAULT_RS_TABLE[0]
    cfg = ExperimentConfig()
    s = cfg.settings
    results = {
        "waveform.rs_decode": wf.rs_decode(wf.rs_encode(np.arange(code.k) % 256, code), code),
        "adaptation.select_link": ad.select_link(
            None, 10.0, 0.0, s.base_family, s.delta, s.fixed_rate, s.max_order
        ),
        "pipeline.run_trial": run_trial(
            s, 10.0, JammerModel.DRFM, np.random.default_rng(0), *calibrate_noise(cfg)
        ),
    }
    outcomes = _tracing().OUTCOMES
    assert set(outcomes) == set(results)
    for name, result in results.items():
        flags = outcomes[name](result)
        assert flags and all(isinstance(v, bool) for v in flags.values()), name
