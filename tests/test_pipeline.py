"""Single-trial pipeline tests: detection, delay estimation, classification,
and power bookkeeping on controlled scenarios."""

from dataclasses import replace

import numpy as np
import pytest

from risjam import pipeline as pl
from risjam import receiver as rx
from risjam.channel import RicianParams, RisLinkConfig
from risjam.harness import ExperimentConfig, calibrate_noise
from risjam.jammer import JammerModel, PathTopology
from risjam.pipeline import OrthogonalityMode, TrialSettings, run_trial
from risjam.waveform import Family, ModScheme


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

    def test_delay_estimate_needs_no_full_correlation(self, monkeypatch, noise_floors):
        calls = []
        inner = rx.cross_correlate

        def counted(*args, **kwargs):
            calls.append(args[2:])
            return inner(*args, **kwargs)

        monkeypatch.setattr(rx, "cross_correlate", counted)
        r = _run(_settings(), 10.0, JammerModel.DRFM, 0, noise_floors)
        assert r.detected and r.tau_hat is not None and r.jammer_class is not None
        # the two correlations of similarity_ratio, none for the delay estimate
        assert len(calls) == 2


def _estimate_delay_full(settings, x, y, onset, jump):
    """Reference delay estimate that reads its lags off the full correlation."""
    f = settings.frame_len
    sig = settings.peak_significance
    if jump < sig:
        return None
    corr_res = rx.cross_correlate(x, y, f, f - 1)
    mask = np.abs(corr_res.lags - onset) <= 8
    if mask.any():
        local = corr_res.lags[mask][np.argmax(np.abs(corr_res.values[mask]))]
        local_mag = np.max(np.abs(corr_res.values[mask]))
        primary = np.abs(corr_res.values[corr_res.lags == 0])
        if primary.size and primary[0] > 0 and local_mag >= sig * float(primary[0]):
            return int(local)
    return onset


class TestDelayEstimate:
    @pytest.mark.parametrize("model", list(JammerModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("frame_len", [64, 512, 4096])
    def test_matches_full_correlation(self, model, frame_len):
        f = frame_len
        s = _settings(frame_len=f, pilot_len=16)
        scheme = ModScheme(Family.PSK, 4)
        rng = np.random.default_rng([f, list(JammerModel).index(model)])
        guard = pl._ONSET_GUARD
        edge_onsets = list(range(guard, 10)) + list(range(f - guard - 10, f - guard))
        local_wins = 0
        for tau in (0, 1, 3, 8, f // 2, f - 9, f - 3, f - 1):
            for jsr_db in (-5.0, 5.0, 15.0):
                x, _ = pl._frame(s, scheme, f, rng)
                a_j = np.exp(2j * np.pi * rng.random()) * 10.0 ** (jsr_db / 20.0)
                y = 3.0 * x + pl._replica(model, s, x, tau, a_j, rng)[:f] + pl._noise(f, rng)
                onset, jump = rx.estimate_onset(y, guard=guard)
                for o, j in [(onset, jump), (onset, 0.0), (tau, 1.0)] + [
                    (e, 1.0) for e in edge_onsets
                ]:
                    want = _estimate_delay_full(s, x, y, o, j)
                    assert pl._estimate_delay(s, x, y, o, j) == want
                    local_wins += want is not None and want != o
        # the correlation peak overrides the change-point on some frames
        assert local_wins > 0


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
