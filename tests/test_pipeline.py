"""Single-trial pipeline tests: detection, delay estimation, classification,
and power bookkeeping on controlled scenarios."""

from dataclasses import replace

import numpy as np
import pytest

from risjam import pipeline as pl
from risjam.channel import RicianParams, RisLinkConfig
from risjam.harness import ExperimentConfig, calibrate_noise
from risjam.jammer import JammerModel, PathTopology
from risjam.pipeline import OrthogonalityMode, TrialSettings, run_trial


def _settings(**kw):
    base = dict(
        link=RisLinkConfig(element_count=64),
        rician=RicianParams(),
        topology=PathTopology.SOURCE_AWARE,
        orthogonality=OrthogonalityMode.TEMPORAL,
    )
    base.update(kw)
    return TrialSettings(**base)


@pytest.fixture(scope="module")
def noise_floors():
    return calibrate_noise(ExperimentConfig(settings=_settings()))


def _run(settings, jsr, model, seed, floors):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return run_trial(settings, jsr, model, rng, floors[0], floors[1])


class TestDetection:
    def test_strong_jammer_detected(self, noise_floors):
        s = _settings()
        hits = sum(
            _run(s, 10.0, JammerModel.DRFM, t, noise_floors).detected for t in range(20)
        )
        assert hits == 20

    def test_weak_jammer_mostly_ignored(self, noise_floors):
        s = _settings()
        adapted = sum(
            _run(s, -10.0, JammerModel.DRFM, t, noise_floors).jammer_class is not None
            for t in range(20)
        )
        assert adapted <= 4


class TestDelay:
    def test_default_delay_recovered(self, noise_floors):
        s = _settings()
        errs = [
            _run(s, 10.0, JammerModel.DRFM, t, noise_floors).tau_err for t in range(10)
        ]
        errs = [e for e in errs if np.isfinite(e)]
        assert errs and np.mean(errs) <= 8

    def test_custom_delay(self, noise_floors):
        s = _settings(jam_delay=1000)
        r = _run(s, 10.0, JammerModel.DRFM, 0, noise_floors)
        assert r.tau_true == 1000
        assert r.tau_hat is not None and abs(r.tau_hat - 1000) <= 8


class TestClassification:
    @pytest.mark.parametrize("model", list(JammerModel), ids=lambda m: m.value)
    def test_correct_class_at_high_jsr(self, model, noise_floors):
        s = _settings()
        correct = sum(
            _run(s, 10.0, model, t, noise_floors).classified_correct for t in range(15)
        )
        assert correct >= 13

    @pytest.mark.parametrize("model", list(JammerModel), ids=lambda m: m.value)
    def test_spatial_path(self, model, noise_floors):
        s = _settings(orthogonality=OrthogonalityMode.SPATIAL, baseline_snr_db=11.0)
        correct = sum(
            _run(s, 10.0, model, t, noise_floors).classified_correct for t in range(15)
        )
        assert correct >= 13


class TestOneEmission:
    def test_spatial_trial_encodes_and_jams_one_frame(self, monkeypatch):
        calls = {"rs_encode": 0, "jammer_transform": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(pl.wf, "rs_encode")
        counted(pl.jm, "jammer_transform")
        cfg = ExperimentConfig()
        cfg = replace(cfg, settings=replace(
            cfg.settings, orthogonality=OrthogonalityMode.SPATIAL, baseline_snr_db=11.0
        ))
        floors = calibrate_noise(cfg)
        r = _run(cfg.settings, 10.0, JammerModel.DRFM, 0, floors)
        assert r.jammer_class is not None and r.payload_fraction == 1.0
        # two RS blocks (head and tail) of the one frame, and its one replica
        assert calls == {"rs_encode": 2, "jammer_transform": 1}


class TestPowerBookkeeping:
    def test_pinned_snr_is_exact(self, noise_floors):
        s = _settings(baseline_snr_db=7.0)
        r = _run(s, 0.0, JammerModel.DRFM, 0, noise_floors)
        assert r.snr_l == pytest.approx(10 ** 0.7, rel=1e-9)

    def test_power_cap_clamps_high_jsr(self, noise_floors):
        s = _settings(link=RisLinkConfig(element_count=512))
        clamped = [
            _run(s, 20.0, JammerModel.DRFM, t, noise_floors).clamped for t in range(10)
        ]
        assert any(clamped)

    def test_throughput_positive(self, noise_floors):
        s = _settings()
        r = _run(s, 5.0, JammerModel.AS, 0, noise_floors)
        assert r.t_baseline > 0 and r.t_jammed > 0
        assert 0 < r.payload_fraction <= 1


class TestDeterminism:
    def test_same_seed_same_result(self, noise_floors):
        s = _settings()
        a = _run(s, 7.5, JammerModel.PS, 42, noise_floors)
        b = _run(s, 7.5, JammerModel.PS, 42, noise_floors)
        assert a == b

    def test_different_seeds_differ(self, noise_floors):
        s = _settings()
        a = _run(s, 7.5, JammerModel.PS, 1, noise_floors)
        b = _run(s, 7.5, JammerModel.PS, 2, noise_floors)
        assert a != b
