"""Single-trial pipeline tests: detection, delay estimation, classification,
and power bookkeeping on controlled scenarios."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from risjam import pipeline as pl
from risjam import receiver as rx
from risjam.channel import RicianParams, RisLinkConfig
from risjam.harness import CALIBRATION_DRAWS, ExperimentConfig, calibrate_noise, run_sweep
from risjam.jammer import JammerModel, PathTopology
from risjam.pipeline import OrthogonalityMode, TrialSettings, run_trial
from risjam.waveform import (
    DEFAULT_RS_TABLE, ORDERS, Family, ModScheme, RsCode, demodulate, rs_decode, rs_encode,
)


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


def _count_calls(monkeypatch, module, name, counted=lambda *args: True):
    """Wrap module.name; the returned list gets one entry per call that
    `counted(*args)` accepts."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        if counted(*args):
            calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


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

    @pytest.mark.parametrize("code", DEFAULT_RS_TABLE, ids=lambda c: f"rs{c.n}_{c.k}")
    @pytest.mark.parametrize("data_kind", ["random", "zero"])
    def test_byte_count_rule_matches_decode_and_compare(self, code, data_kind):
        """More than t byte errors is exactly when the decoder fails or
        returns other data than was sent."""
        rng = np.random.default_rng([code.k, int(data_kind == "zero")])
        for weight in range(2 * code.t + 17):
            for _ in range(3):
                if data_kind == "zero":
                    data = np.zeros(code.k, dtype=np.int64)
                else:
                    data = rng.integers(0, 256, code.k)
                cw = rs_encode(data, code).astype(np.uint8)
                rx_bytes = cw.copy()
                hit = rng.choice(code.n, weight, replace=False)
                rx_bytes[hit] ^= rng.integers(1, 256, weight).astype(np.uint8)
                res = rs_decode(rx_bytes.astype(np.int64), code)
                want = res.failure or not np.array_equal(res.data, data)
                assert pl._block_lost(rx_bytes, cw, code) == want

    @pytest.mark.parametrize("frame_len", [4096, 2200])
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_block_span_matches_whole_payload_demodulation(self, family, order, frame_len):
        s = _settings(frame_len=frame_len)
        scheme, code = ModScheme(family, order), RsCode(255, 224)
        rng = np.random.default_rng([frame_len, order, list(Family).index(family)])
        x, blocks = pl._frame(s, scheme, frame_len, rng, code)
        a_l = np.exp(2j * np.pi * rng.random()) * 10.0 ** (15.0 / 20.0)
        y = a_l * x + pl._noise(frame_len, rng)
        whole = demodulate((y / a_l)[s.pilot_len :], scheme)
        assert blocks
        for off, cw in blocks:
            got = pl._block_bytes(y[s.pilot_len :], a_l, off, code, scheme)
            assert np.array_equal(got, np.packbits(whole[off : off + code.n * 8]))
            # noiseless, the span gives back the codeword sent
            assert np.array_equal(pl._block_bytes(x[s.pilot_len :], 1.0, off, code, scheme), cw)


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
        assert np.isfinite(r.tau_err) and r.tau_err <= 8


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
        encodes = _count_calls(monkeypatch, pl.wf, "rs_encode")
        replicas = _count_calls(monkeypatch, pl.jm, "jammer_transform")
        cfg = ExperimentConfig()
        cfg = replace(cfg, settings=replace(
            cfg.settings, orthogonality=OrthogonalityMode.SPATIAL, baseline_snr_db=11.0
        ))
        floors = calibrate_noise(cfg)
        r = _run(cfg.settings, 10.0, JammerModel.DRFM, 0, floors)
        assert r.jammer_class is not None and r.payload_fraction == 1.0
        # two RS blocks (head and tail) of the one frame, and its one replica
        assert (len(encodes), len(replicas)) == (2, 1)

    def test_detected_trial_decodes_nothing(self, monkeypatch, noise_floors):
        decodes = _count_calls(monkeypatch, pl.wf, "rs_decode")
        r = _run(_settings(), 10.0, JammerModel.DRFM, 0, noise_floors)
        assert r.detected and r.jammer_class is not None
        assert decodes == []

    def test_delay_estimate_needs_no_full_correlation(self, monkeypatch, noise_floors):
        calls = _count_calls(monkeypatch, rx, "cross_correlate")
        r = _run(_settings(), 10.0, JammerModel.DRFM, 0, noise_floors)
        assert r.detected and np.isfinite(r.tau_err) and r.jammer_class is not None
        # similarity_ratio's one call on the stacked legit and jam streams, none
        # for the delay estimate
        assert [np.shape(args[0])[0] for args in calls] == [2]


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
                y = 3.0 * x + pl._replica(model, x, tau, a_j, rng)[:f] + pl._noise(f, rng)
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
        link = pl.draw_link(s, np.random.default_rng(np.random.SeedSequence(0)), noise_floors[0])
        assert link.snr_l == pytest.approx(10 ** 0.7, rel=1e-9)

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


class TestNoise:
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 4095, 4096, 32768])
    @pytest.mark.parametrize("seed", range(4))
    def test_bits_and_stream_of_two_normal_draws(self, n, seed):
        """One complex buffer from one (2, n) draw holds the bits of the two
        rng.normal(0, sqrt(0.5), n) draws, and leaves the generator where they do."""
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        s = np.sqrt(0.5)
        ref = ref_rng.normal(0, s, n) + 1j * ref_rng.normal(0, s, n)
        out = pl._noise(n, rng)
        assert out.dtype == ref.dtype and out.shape == (n,)
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
        assert rng.random() == ref_rng.random()


def _two_ris_sweep(**kw):
    return ExperimentConfig(
        jammers=(JammerModel.DRFM, JammerModel.PS), ris_sizes=(16, 32),
        jsr_grid_db=(0.0, 10.0), trials=3, settings=_settings(**kw),
    )


class TestSharedLinkDraw:
    """A sweep draws each (RIS size, trial)'s jam-free link once and runs every
    (jammer, JSR) cell of that trial on it."""

    @pytest.mark.parametrize("snr_mode", ["pinned", "faded"])
    def test_one_jam_free_link_choice_per_ris_and_trial(self, monkeypatch, snr_mode):
        calls = _count_calls(monkeypatch, pl.ad, "select_link", lambda cls, *_: cls is None)
        cfg = _two_ris_sweep(snr_mode=snr_mode)
        run_sweep(cfg)
        assert len(calls) == len(cfg.ris_sizes) * cfg.trials

    @pytest.mark.parametrize("snr_mode", ["pinned", "faded"])
    def test_one_channel_draw_per_ris_and_trial(self, monkeypatch, snr_mode):
        calls = _count_calls(monkeypatch, pl.ch, "sample_realization")
        cfg = _two_ris_sweep(snr_mode=snr_mode)
        run_sweep(cfg)
        # only a faded sweep calibrates its noise floor on channel draws
        calibration = CALIBRATION_DRAWS if snr_mode == "faded" else 0
        assert len(calls) == len(cfg.ris_sizes) * cfg.trials + calibration

    def test_cells_share_the_link_and_not_the_jammer(self, monkeypatch):
        links, first_draws, results = [], [], []
        inner = pl.run_trial

        def trial(settings, jsr, model, rng, noise_var, eaves_var, link):
            links.append(link)
            first_draws.append(copy.deepcopy(rng).random())
            results.append(inner(settings, jsr, model, rng, noise_var, eaves_var, link))
            return results[-1]

        monkeypatch.setattr(pl, "run_trial", trial)
        run_sweep(ExperimentConfig(
            jammers=tuple(JammerModel), ris_sizes=(16,), jsr_grid_db=(0.0, 10.0), trials=1,
            settings=_settings(snr_mode="faded"),
        ))
        assert len(results) == 6 and all(link is links[0] for link in links)
        assert len({r.t_baseline for r in results}) == 1
        # each cell draws its jammer from a generator of its own
        assert len(set(first_draws)) == 6
