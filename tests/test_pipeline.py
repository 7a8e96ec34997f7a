"""Single-trial pipeline tests: detection, delay estimation, classification,
and power bookkeeping on controlled scenarios."""

import copy
import itertools
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from scipy.stats import binom

from risjam import adaptation as ad
from risjam import harness
from risjam import jammer as jm
from risjam import pipeline as pl
from risjam import receiver as rx
from risjam.adaptation import ber_awgn
from risjam.channel import RicianParams, RisLinkConfig
from risjam.harness import (
    CALIBRATION_DRAWS, ExperimentConfig, calibrate_noise, load_config, run_sweep,
)
from risjam.jammer import JammerModel, PathTopology
from risjam.pipeline import OrthogonalityMode, TrialSettings, run_trial
from risjam.waveform import (
    DEFAULT_RS_TABLE, ORDERS, Family, ModScheme, RsCode, demodulate, modulate, rs_decode,
    rs_encode,
)
from test_golden import CONFIGS


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

    # (frame_len, order, payload bit offsets): min(payload bits // 2040, 2)
    # RS(255,240) blocks, the tail one ending at the payload's end
    @pytest.mark.parametrize("frame_len,order,offsets", [
        (4096, 2, [4032 - 2040]),
        (4096, 4, [0, 8064 - 2040]),
        (4096, 64, [0, 24192 - 2040]),
        (2048, 2, []),
        (2048, 4, [3968 - 2040]),
        (1024, 2, []),
        (1024, 4, []),
        (1024, 8, [2880 - 2040]),
        (1024, 64, [0, 5760 - 2040]),
    ])
    def test_block_count_and_offsets(self, frame_len, order, offsets):
        s = _settings(frame_len=frame_len)
        scheme, code = ModScheme(Family.PSK, order), RsCode(255, 240)
        x, blocks = pl._frame(s, scheme, frame_len, np.random.default_rng(order), code)
        assert [off for off, _ in blocks] == offsets
        for off, cw in blocks:
            assert np.array_equal(pl._block_bytes(x[s.pilot_len :], 1.0, off, code, scheme), cw)

    @pytest.mark.parametrize(
        "order,snr_db", [(2, 4.5), (2, 5.0), (2, 5.5), (4, 7.5), (4, 8.0), (4, 8.5)]
    )
    def test_lost_blocks_follow_the_binomial_byte_tail(self, order, snr_db):
        """RS(255,224) blocks sent through modulate, AWGN, _block_bytes and
        _block_lost are lost at the rate P(Bin(n, 1 - (1 - BER)^8) > t), within
        4 sigma: Gray BPSK and QPSK make independent bit errors at the analytic
        BER, so a byte is wrong at the 8-bit rate, whatever the symbol size."""
        scheme, code, blocks = ModScheme(Family.PSK, order), RsCode(255, 224), 2000
        rng = np.random.default_rng([order, round(10 * snr_db)])
        snr = 10.0 ** (snr_db / 10.0)
        cws = [rs_encode(rng.integers(0, 256, code.k), code).astype(np.uint8)
               for _ in range(blocks)]
        x = modulate(np.unpackbits(np.concatenate(cws)), scheme)
        y = x + np.sqrt(0.5 / snr) * (rng.normal(size=x.size) + 1j * rng.normal(size=x.size))
        lost = sum(
            pl._block_lost(pl._block_bytes(y, 1.0, i * code.n * 8, code, scheme), cw, code)
            for i, cw in enumerate(cws)
        )
        p = binom.sf(code.t, code.n, 1.0 - (1.0 - ber_awgn(Family.PSK, order, snr)) ** 8)
        assert abs(lost - blocks * p) <= 4.0 * np.sqrt(blocks * p * (1.0 - p))


class TestReplicaOnset:
    """`TrialSettings.tau` is the replica onset's one home: `jam_delay`, or
    the middle of the frame when that is unset."""

    def test_tau_resolves_the_delay(self):
        for f in (1000, 1001):
            assert _settings(frame_len=f).tau == 500
        for delay in (0, 300, 999):
            assert _settings(frame_len=1000, jam_delay=delay).tau == delay

    @pytest.mark.parametrize("orthogonality", ["temporal", "spatial"])
    def test_written_mid_frame_delay_is_the_default(self, orthogonality):
        def csv(delay):
            return harness.rows_to_csv(run_sweep(harness.loads_config(
                "[sweep]\njammers = drfm, ps, as\nris_sizes = 16\njsr_db = 0, 10\n"
                f"trials = 2\northogonality = {orthogonality}\n[link]\nbaseline_snr_db = 11\n"
                f"[receiver]\nframe_len = 1024\n[jammer]\ndelay = {delay}\n"
            )))

        assert csv("512") == csv("")
        # the comparison sees the onset: another delay moves the CSV
        assert csv("300") != csv("")


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
        # the delay estimate reads its few lags directly, and similarity_ratio
        # correlates through its own transforms
        assert calls == []


class TestReplicaPower:
    """A cell shapes its replica from the f - tau frame symbols that land in
    the frame alone and scales it to mean power |a_j|^2 over them, for every
    jammer and frame family (ASK and QAM frames are not of constant modulus)."""

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_front_replica_has_the_jsr_power_where_it_lands(self, monkeypatch, family):
        s = _settings(base_family=family, fixed_rate=0.94)
        f, tau = s.frame_len, s.tau
        spans, scaled = [], pl._scaled

        def recorded(*args):
            spans.append(scaled(*args))
            return spans[-1]

        monkeypatch.setattr(pl, "_scaled", recorded)
        for t in range(3):
            link = pl.draw_link(s, np.random.default_rng([61, t]), None)
            assert link.base.scheme.family == family
            for k, model in enumerate(JammerModel):
                rng = np.random.default_rng([61, t, k])
                ref = copy.deepcopy(rng)
                spans.clear()
                pl._jam_front(s, link, model, (5.0,), rng, s.eaves_noise_watt)
                a_j = pl._jam_budget(s, link, 5.0, s.eaves_noise_watt)[0]
                assert len(spans) == 1 and spans[0].size == f - tau
                assert rx.mean_power(spans[0]) == pytest.approx(abs(a_j) ** 2, rel=1e-12)
                # its factors are those of the landing symbols, and a temporal
                # front draws nothing after its replica
                shaped = jm.jammer_transform(model, link.x[: f - tau], ref)
                assert rng.bit_generator.state == ref.bit_generator.state
                assert np.allclose(spans[0] / a_j, shaped / np.sqrt(rx.mean_power(shaped)))


class TestLinkDrawDraws:
    """A link draw draws one surface: the legit hop's projections (u, v) and,
    when RIS-aware, the independent part of h_rj's. Then it draws its own
    topology's scalars alone: h_e1 and h_j1 when source-aware, h_j2 when
    RIS-aware. Faded calibration draws the legit hop's surface alone."""

    @staticmethod
    def _surfaces(monkeypatch):
        """Wrap the surface draw; the returned list gets the number of
        projections each call draws."""
        counts, inner = [], pl.ch.sample_realization

        def draw(*args):
            out = inner(*args)
            counts.append(len(out))
            return out

        monkeypatch.setattr(pl.ch, "sample_realization", draw)
        return counts

    @pytest.mark.parametrize(
        "topology,vectors,scalars",
        [(PathTopology.SOURCE_AWARE, 2, 2), (PathTopology.RIS_AWARE, 3, 1)],
        ids=lambda v: getattr(v, "value", v),
    )
    def test_only_its_topology_is_drawn(self, monkeypatch, topology, vectors, scalars):
        surfaces = self._surfaces(monkeypatch)
        rician = _count_calls(monkeypatch, pl.ch, "sample_rician")
        pl.draw_link(_settings(topology=topology), np.random.default_rng(3), None)
        assert (surfaces, len(rician)) == ([vectors], scalars)

    def test_faded_calibration_draws_the_legit_hop(self, monkeypatch):
        surfaces = self._surfaces(monkeypatch)
        rician = _count_calls(monkeypatch, pl.ch, "sample_rician")
        calibrate_noise(ExperimentConfig(settings=_settings(snr_mode="faded")))
        assert (surfaces, len(rician)) == ([2] * CALIBRATION_DRAWS, 0)


def _estimate_delay_full(settings, x, y, onset):
    """Reference delay estimate that reads its lags off the full correlation."""
    f = settings.frame_len
    sig = settings.peak_significance
    values, lags = rx.cross_correlate(x, y, f, f - 1), np.arange(1 - f, f)
    mask = np.abs(lags - onset) <= 8
    if mask.any():
        local = lags[mask][np.argmax(np.abs(values[mask]))]
        local_mag = np.max(np.abs(values[mask]))
        primary = np.abs(values[lags == 0])
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
                y = 3.0 * x
                y[tau:] += pl._replica(model, x, a_j, rng)[: f - tau]
                y += pl._noise(f, rng)
                onset, _ = rx.estimate_onset(y, guard=guard)
                for o in [onset, tau] + edge_onsets:
                    want = _estimate_delay_full(s, x, y, o)
                    assert pl._estimate_delay(s, x, y, o) == want
                    local_wins += want != o
        # the correlation peak overrides the change-point on some frames
        assert local_wins > 0


class TestTemporalProbe:
    """`_temporal_pair` draws from the cell's generator in the order frame
    bits, noise, replica; the legit burst starts the probe, the replica lands
    at tau, and the jam stream is read from the delay estimate."""

    @staticmethod
    def _cell(model, tau_hat, seed):
        return pl._Cell(
            model=model, rng=np.random.default_rng(seed), a_j=2.0 * np.exp(0.3j), snr_j=1.0,
            clamped=False, detected=True, tau_hat=tau_hat,
        )

    @pytest.mark.parametrize("model", list(JammerModel), ids=lambda m: m.value)
    def test_streams_bit_for_bit(self, model):
        s = _settings(frame_len=256, pilot_len=8)
        link = pl.draw_link(s, np.random.default_rng([7, 0]), None)
        tau = 100
        s = replace(s, jam_delay=tau)
        # an early, exact and late estimate; the late one's burst overlaps the replica
        for tau_hat in (tau - 3, tau, tau + 2):
            burst, _ = rx.partition_temporal(s.frame_len, tau_hat)
            c = self._cell(model, tau_hat, [7, tau_hat])
            ref = copy.deepcopy(c.rng)
            legit, jam, nv_l, nv_j = pl._temporal_pair(s, link, c, burst)
            xb, _ = pl._frame(s, link.base.scheme, burst, ref)
            noise = pl._noise(tau + burst, ref)
            replica = pl._replica(model, xb, c.a_j, ref)
            want_legit = noise[:burst] + link.a_l * xb
            want_legit[tau:] += replica[: max(burst - tau, 0)]
            padded = np.concatenate([np.zeros(tau, dtype=complex), replica])
            want_jam = noise[tau_hat : tau_hat + burst] + padded[tau_hat : tau_hat + burst]
            assert np.array_equal(legit, want_legit) and np.array_equal(jam, want_jam)
            assert (nv_l, nv_j) == (1.0, 1.0)
            assert c.rng.bit_generator.state == ref.bit_generator.state

    def test_too_short_returns_none(self):
        s = _settings(frame_len=256, pilot_len=8)
        link = pl.draw_link(s, np.random.default_rng([7, 1]), None)
        # a burst under two pilots is refused before any draw
        c = self._cell(JammerModel.PS, 15, 3)
        state = c.rng.bit_generator.state
        assert pl._temporal_pair(replace(s, jam_delay=100), link, c, 15) is None
        assert c.rng.bit_generator.state == state
        # a replica at tau 10 read from 40 leaves a 10-sample jam stream
        c = self._cell(JammerModel.PS, 40, 4)
        assert pl._temporal_pair(replace(s, jam_delay=10), link, c, 40) is None
        # at tau 16 it holds two pilots' worth
        c = self._cell(JammerModel.PS, 40, 4)
        assert pl._temporal_pair(replace(s, jam_delay=16), link, c, 40) is not None


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

    def test_faded_mode_needs_a_noise_floor(self, noise_floors):
        """A pinned config's floors hold None for the destination, which faded
        mode reads: the error names the floor and the mode."""
        faded = _settings(snr_mode="faded")
        assert noise_floors[0] is None
        for call in (
            lambda: pl.draw_link(faded, np.random.default_rng(0), None),
            lambda: run_trial(faded, 5.0, JammerModel.PS, np.random.default_rng(0), *noise_floors),
        ):
            with pytest.raises(ValueError, match="snr_mode = faded needs noise_var_watt"):
                call()

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

    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_rows_are_one_row_draws_in_turn(self, m):
        """An (m, n) buffer holds, row by row, the bits of m one-row draws
        from the same generator, and leaves it where they do."""
        ref_rng, rng = np.random.default_rng([9, m]), np.random.default_rng([9, m])
        ref = np.array([pl._noise(100, ref_rng) for _ in range(m)])
        out = pl._noise((m, 100), rng)
        assert out.shape == (m, 100)
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
        assert rng.random() == ref_rng.random()

    def test_antenna_zero_does_not_depend_on_the_array_size(self):
        """A link draw's antenna 0, the one detection reads, is the same to the
        bit at every array size from one generator state."""
        s = _settings(orthogonality=OrthogonalityMode.SPATIAL, frame_len=512, pilot_len=16)
        clean = [
            pl.draw_link(replace(s, antennas=m), np.random.default_rng([59, 1]), None).clean[0]
            for m in (4, 8, 16)
        ]
        for c in clean[1:]:
            assert np.array_equal(c.view(np.uint64), clean[0].view(np.uint64))


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
        """Every cell of a trial shares its link draw. Each row draws from a
        generator of its own, and a jammer's rows at every RIS size start
        from one state, which no other jammer shares."""
        links, models, first_draws, results, rngs = [], [], [], [], []
        inner = pl.run_cells

        def cells_call(settings, model, jsrs, rng, eaves_var, link):
            links.append(link)
            models.append({model})
            first_draws.append([copy.deepcopy(rng).random()])
            rngs.append(rng)
            assert len({id(r) for r in rngs}) == len(rngs)
            results.extend(inner(settings, model, jsrs, rng, eaves_var, link))
            return results[-len(jsrs) :]

        monkeypatch.setattr(pl, "run_cells", cells_call)
        run_sweep(ExperimentConfig(
            jammers=tuple(JammerModel), ris_sizes=(16, 32), jsr_grid_db=(0.0, 10.0), trials=1,
            settings=_settings(snr_mode="faded"),
        ))
        # one call per (RIS size, jammer), each on that jammer's cells alone
        assert models == [{model} for model in JammerModel] * 2
        assert len(results) == 12 and all(link is links[0] for link in links[:3])
        assert len({r.t_baseline for r in results[:6]}) == 1
        # the first draw of each jammer's cells, the same at both RIS sizes
        firsts = [set(draws) for draws in first_draws]
        assert all(len(f) == 1 for f in firsts) and firsts[:3] == firsts[3:]
        assert len(set.union(*firsts)) == 3


def _spatial_oracle_settings():
    """A 4-element array and a 256-sample frame: at these JSRs some replicas
    go undetected, MUSIC puts some angle pairs inside the 5 degree limit, and
    some late delay estimates leave a spatial pair too short to classify."""
    return _settings(
        link=RisLinkConfig(element_count=16), orthogonality=OrthogonalityMode.SPATIAL,
        baseline_snr_db=11.0, antennas=4, frame_len=256, pilot_len=8,
    )


class TestRunCells:
    """`run_cells` runs one jammer's row: it draws the row's replica and
    angle of arrival once, batches the MUSIC/LCMV of its spatial cells, and
    each cell still gets exactly the result of the one-JSR row at its JSR
    from the same generator state."""

    @pytest.mark.parametrize("orthogonality", list(OrthogonalityMode), ids=lambda m: m.value)
    def test_cells_equal_one_jsr_rows(self, monkeypatch, orthogonality):
        if orthogonality == OrthogonalityMode.SPATIAL:
            s = _spatial_oracle_settings()
        else:
            # estimates below the 16-sample onset leave a burst under two pilots
            s = _settings(link=RisLinkConfig(element_count=16), frame_len=256, pilot_len=8,
                          jam_delay=16)
        unresolved, short, undetected = [], [], []
        separate, spatial_pair, temporal_pair = rx.separate_spatial, pl._spatial_pair, pl._temporal_pair

        def separate_spatial(cov, aoas):
            w, resolved = separate(cov, aoas)
            unresolved.extend(~resolved)
            return w, resolved

        def pair(inner):
            def spy(*args):
                result = inner(*args)
                short.append(result is None)
                return result
            return spy

        monkeypatch.setattr(rx, "separate_spatial", separate_spatial)
        monkeypatch.setattr(pl, "_spatial_pair", pair(spatial_pair))
        monkeypatch.setattr(pl, "_temporal_pair", pair(temporal_pair))
        jsrs = (-20.0, -10.0, 0.0, 10.0)
        # MUSIC leaves an angle pair unresolved in a few trials in a hundred
        # (7 of the first 200 of these trials), so a handful may hold none
        for t in range(100):
            link = pl.draw_link(s, np.random.default_rng([31, t]), None)
            for ji, model in enumerate(JammerModel):
                def rng():
                    return np.random.default_rng([31, t, ji])

                row = pl.run_cells(s, model, jsrs, rng(), s.eaves_noise_watt, link)
                one = [pl.run_cells(s, model, (jsr,), rng(), s.eaves_noise_watt, link)[0]
                       for jsr in jsrs]
                # every field, NaN delay errors included, to the last bit
                assert [repr(r) for r in row] == [repr(r) for r in one]
                undetected += [not r.detected for r in row]
        assert any(undetected) and any(short)
        assert any(unresolved) == (orthogonality == OrthogonalityMode.SPATIAL)

    @pytest.mark.parametrize("orthogonality", list(OrthogonalityMode), ids=lambda m: m.value)
    def test_front_draws_once_per_row(self, monkeypatch, orthogonality):
        """The row's replica is shaped once, whatever its length; the front
        leaves rng where the replica and the angle of arrival leave it, and
        each cell gets a generator of its own at that state."""
        s = _settings(orthogonality=orthogonality, baseline_snr_db=11.0)
        link = pl.draw_link(s, np.random.default_rng([37, 0]), None)
        jsrs = (-10.0, 0.0, 10.0, 20.0)
        for ji, model in enumerate(JammerModel):
            rng = np.random.default_rng([37, ji])
            ref = copy.deepcopy(rng)
            transforms = _count_calls(monkeypatch, pl.jm, "jammer_transform")
            cells = pl._jam_front(s, link, model, jsrs, rng, s.eaves_noise_watt)
            monkeypatch.undo()
            assert len(transforms) == 1 and len(cells) == len(jsrs)
            jm.jammer_transform(model, link.x[: s.frame_len - s.tau], ref)
            if orthogonality == OrthogonalityMode.SPATIAL:
                while abs(ref.uniform(-np.pi / 3, np.pi / 3) - link.aoa_l) < np.deg2rad(15.0):
                    pass
            assert rng.bit_generator.state == ref.bit_generator.state
            assert len({id(c.rng) for c in cells} | {id(rng)}) == len(jsrs) + 1
            draws = {c.rng.random() for c in cells}
            assert draws == {ref.random()}

    def test_one_jammer_generator_per_row(self, monkeypatch):
        """A unit makes one generator for its link draw and one per jammer,
        whatever the JSR grid."""
        cfg = _two_ris_sweep()
        assert len(cfg.jsr_grid_db) > 1
        calls = _count_calls(monkeypatch, harness, "_trial_rng")
        noise_var, eaves_var = calibrate_noise(cfg)
        harness._run_unit((cfg, 1, 2, noise_var, eaves_var))
        assert len(calls) == 1 + len(cfg.jammers)
        assert [c[1:] for c in calls] == [(2,)] + [(2, model) for model in cfg.jammers]

    def test_shared_parts_match_the_snapshot(self):
        """The covariance from the clean covariance plus a rank-two correction,
        and the outputs from w^H clean plus the jam's gain, against the same
        quantities formed on the m x f snapshot."""
        s = _settings(orthogonality=OrthogonalityMode.SPATIAL, baseline_snr_db=11.0)
        f, tau = s.frame_len, s.tau
        for t in range(4):
            link = pl.draw_link(s, np.random.default_rng([5, t]), None)
            for ji, model in enumerate(JammerModel):
                rng = np.random.default_rng([5, t, ji])
                for c in pl._jam_front(s, link, model, (0.0, 10.0), rng, s.eaves_noise_watt):
                    assert c.steer is not None
                    jam = np.zeros(f, dtype=complex)
                    jam[tau:] = c.jam
                    streams = link.clean + np.outer(c.steer, jam)
                    ref = streams @ streams.conj().T / f
                    assert np.max(np.abs(c.cov - ref)) <= 1e-13 * np.max(np.abs(ref))
                    aoas = rx.estimate_aoa(ref)
                    assert np.array_equal(rx.estimate_aoa(c.cov), aoas)
                    w, resolved = rx.separate_spatial(ref, aoas)
                    assert resolved
                    out_ref = w.conj().T @ streams
                    out = pl._lcmv_outputs(link.clean, w, c.steer, c.jam)
                    assert np.max(np.abs(out - out_ref)) <= 1e-13 * np.max(np.abs(out_ref))


class TestSeams:
    """A cell's power budget draws nothing; the cells of one class adapt
    from one error-curve call, and a cell with no class, or an Unknown one,
    keeps the jam-free baseline's choice."""

    @pytest.mark.parametrize("model", list(JammerModel), ids=lambda m: m.value)
    def test_budget_is_what_the_front_stores(self, model):
        s = _settings()
        for t in range(3):
            link = pl.draw_link(s, np.random.default_rng([11, t]), None)
            # the cap cuts a 60 dB target and leaves a -10 dB one
            for jsr, clamped in ((-10.0, False), (60.0, True)):
                rng = np.random.default_rng([11, t, int(clamped)])
                state = rng.bit_generator.state
                budget = pl._jam_budget(s, link, jsr, s.eaves_noise_watt)
                assert rng.bit_generator.state == state
                c = pl._jam_front(s, link, model, (jsr,), rng, s.eaves_noise_watt)[0]
                assert budget == (c.a_j, c.snr_j, c.clamped) and c.clamped is clamped

    def test_no_class_keeps_the_baseline(self):
        # a fixed rate, so the RS rule flags no jam-free frame
        s = _settings(fixed_rate=0.94)
        undetected = 0
        for t in range(4):
            link = pl.draw_link(s, np.random.default_rng([12, t]), None)
            for ji, model in enumerate(JammerModel):
                rng = np.random.default_rng([12, t, ji])
                for r in pl.run_cells(s, model, (-30.0, -10.0, 0.0), rng, s.eaves_noise_watt, link):
                    undetected += not r.detected
                    if r.jammer_class is None:
                        assert (r.t_jammed, r.scheme, r.code_rate, r.payload_fraction) == (
                            link.t_baseline, link.base.scheme, link.base.code.rate, 1.0
                        )
        assert undetected > 0

    def test_one_error_curve_call_per_class(self, monkeypatch):
        # adaptive coding: every class's decision depends on its snr_j
        s = _settings()
        jsrs = (-10.0, -5.0, 0.0, 2.5, 5.0, 7.5, 10.0, 15.0, 20.0)
        present = set()
        for t in range(3):
            link = pl.draw_link(s, np.random.default_rng([14, t]), None)
            for ji, model in enumerate(JammerModel):
                rng = np.random.default_rng([14, t, ji])
                calls = _count_calls(monkeypatch, ad, "effective_ber")
                results = pl.run_cells(s, model, jsrs, rng, s.eaves_noise_watt, link)
                classes = {r.jammer_class for r in results} - {None, rx.JammerClass.UNKNOWN}
                assert sorted(c[0] for c in calls) == sorted(classes)
                present |= classes
                monkeypatch.undo()
                # each decision is the scalar one
                for jsr, r in zip(jsrs, results):
                    snr_j = pl._jam_budget(s, link, jsr, s.eaves_noise_watt)[1]
                    want = ad.select_link(
                        r.jammer_class, link.snr_l, snr_j if r.jammer_class else 0.0,
                        s.base_family, s.delta, s.fixed_rate, s.max_order,
                    )
                    assert (r.scheme, r.code_rate) == (want.scheme, want.code.rate)
        assert len(present) > 1

    def test_unknown_and_unclassified_cells_keep_the_baseline(self, monkeypatch):
        s = _settings()
        link = pl.draw_link(s, np.random.default_rng([15, 0]), None)
        calls = _count_calls(monkeypatch, ad, "effective_ber")
        cells = [
            pl._Cell(model, None, *pl._jam_budget(s, link, jsr, s.eaves_noise_watt),
                     detected=True, tau_hat=s.tau, cls=cls, fraction=fraction)
            for model in JammerModel for jsr in (0.0, 20.0)
            for cls, fraction in ((rx.JammerClass.UNKNOWN, 0.5), (None, 1.0))
        ]
        results = pl._results(s, link, cells)
        assert calls == []
        for c, r in zip(cells, results):
            assert c.snr_j > 0.0
            assert (r.scheme, r.code_rate) == (link.base.scheme, link.base.code.rate)
            # the scalar rule with the cell's own snr_j decides the same
            scalar = ad.select_link(c.cls, link.snr_l, c.snr_j, s.base_family, s.delta,
                                    s.fixed_rate, s.max_order)
            assert scalar == link.base
            assert r.t_jammed == ad.throughput(s.bandwidth_hz, scalar.code, scalar.scheme,
                                               c.fraction)

    def test_undetected_cells_adapt_from_the_baseline_memo(self, monkeypatch):
        # no RS-rule flags at a fixed rate, and a power-jump gate a -30 dB
        # replica cannot open
        s = _settings(fixed_rate=0.94, peak_significance=0.9)
        link = pl.draw_link(s, np.random.default_rng([13, 0]), None)
        # the link draw's baseline decision, with no adaptation call at all
        calls = [_count_calls(monkeypatch, ad, name) for name in ("select_link", "effective_ber")]
        results = [
            r for k, model in enumerate(list(JammerModel) * 3)
            for r in pl.run_cells(s, model, (-30.0,), np.random.default_rng([13, k]),
                                  s.eaves_noise_watt, link)
        ]
        assert not any(r.detected for r in results)
        assert calls == [[], []]
        assert {(r.scheme, r.code_rate) for r in results} == {
            (link.base.scheme, link.base.code.rate)
        }


class TestIdealOutcome:
    """The waveform layers reach a trial's link choice and throughput only
    through its defense outcome (class, payload fraction). Each trial's ideal
    twin redraws its link and adapts to the true class at the true delay,
    with no jammer draw and no waveform: a trial whose outcome is the ideal
    one matches its twin exactly, and so does the row of a cell whose trials
    all are."""

    @staticmethod
    def _twin(cfg, settings, t, noise_var, eaves_var, fraction):
        """The ideal results of trial t at the RIS size of `settings`, laid out
        as `_run_unit`'s: one list per jammer, in JSR order."""
        link = pl.draw_link(settings, harness._trial_rng(cfg, t), noise_var)

        def ideal(model, jsr):
            c = pl._Cell(model, None, *pl._jam_budget(settings, link, jsr, eaves_var),
                         detected=True, tau_hat=settings.tau,
                         cls=rx.JammerClass(model.value), fraction=fraction)
            return pl._results(settings, link, [c])[0]

        return [[ideal(model, jsr) for jsr in cfg.jsr_grid_db] for model in cfg.jammers]

    # JSRs where every trial of some cell gets the ideal outcome at 10 trials
    @pytest.mark.parametrize("name,jsrs", [
        ("figure2a", (5.0, 7.5, 10.0)), ("figure2b", (7.5, 12.5, 17.5)),
        ("headline", (15.0, 30.0)),
    ])
    def test_ideal_trials_and_cells_match_their_twins(self, monkeypatch, name, jsrs):
        cfg = load_config(os.path.join(CONFIGS, f"{name}.ini"))
        cfg = replace(cfg, trials=10, jsr_grid_db=jsrs)
        s = cfg.settings
        fraction = 1.0
        if s.orthogonality == OrthogonalityMode.TEMPORAL:
            fraction = rx.partition_temporal(s.frame_len, s.tau)[1]
        units, inner = {}, harness._run_unit

        def run_unit(args):
            units[args[1:3]] = inner(args)
            return units[args[1:3]]

        monkeypatch.setattr(harness, "_run_unit", run_unit)
        rows = {(r.jammer, r.ris_size, r.jsr_db): r for r in run_sweep(cfg)}
        noise_var, eaves_var = calibrate_noise(cfg)
        # the fields the defense outcome reaches through the link choice
        fields = ("t_baseline", "t_jammed", "scheme", "code_rate")
        ideal_trials = ideal_cells = 0
        for ri, ris in enumerate(cfg.ris_sizes):
            settings = replace(s, link=replace(s.link, element_count=ris))
            twins = [
                self._twin(cfg, settings, t, noise_var, eaves_var, fraction)
                for t in range(cfg.trials)
            ]
            for ji, model in enumerate(cfg.jammers):
                for ki, jsr in enumerate(cfg.jsr_grid_db):
                    trials = [units[ri, t][ji][ki] for t in range(cfg.trials)]
                    twin = [unit[ji][ki] for unit in twins]
                    # the true class and the ideal fraction
                    ideal = [r.classified_correct and r.payload_fraction == fraction for r in trials]
                    for r, w in itertools.compress(zip(trials, twin), ideal):
                        assert [getattr(r, f) for f in fields] == [getattr(w, f) for f in fields]
                    ideal_trials += sum(ideal)
                    if all(ideal):
                        ideal_cells += 1
                        want = harness._aggregate(jsr, model, s.topology, ris, twin)
                        assert rows[model, ris, jsr].gain == want.gain
        assert ideal_trials > 0 and ideal_cells > 0


def _stage_two_reference(scheme, c) -> float:
    """The sign balance of one cell's stage-two probe, one cell at a time:
    PS when it reaches `flip_threshold`, else AS."""
    n = 1024
    bits = c.rng.integers(0, 2, n * scheme.bits_per_symbol).astype(np.uint8)
    x = modulate(bits, scheme)
    stream = pl._replica(c.model, x, c.a_j, c.rng) + pl._noise(n, c.rng)
    r = stream * np.conj(x) / np.abs(x) ** 2
    phase = 0.5 * np.angle(np.sum(r**2))
    signs = np.real(r * np.exp(-1j * phase)) < 0.0
    return float(min(np.mean(signs), 1.0 - np.mean(signs)))


def _classify_reference(settings, scheme, legit_s, jam_s, nv_l, nv_j):
    """(similarity ratio, pilot anomaly fraction) of the pair equalized
    stream by stream before it is compared."""
    pilot = pl._pilot(scheme, settings.pilot_len)
    n = min(legit_s.size, jam_s.size)
    legit_eq, nv_legit_eq = rx.equalize_stream(legit_s[:n], pilot, nv_l)
    jam_eq, _ = rx.equalize_stream(jam_s[:n], pilot, nv_j)
    sim = rx.similarity_ratio(jam_eq, legit_eq, nv_legit_eq)
    return sim, rx.pilot_anomaly_fraction(jam_eq[: pilot.size], pilot)


class TestOnePass:
    """A jammed cell's passes over its samples, each against the rule it
    stands for: the shared jam-free onset prefix against the onset of the
    whole frame, the stacked stage two against one probe per cell, and the
    pair compared at its own scale against the equalized pair."""

    @pytest.mark.parametrize("where", ["0", "1", "half", "end-3"])
    def test_shared_prefix_onset_is_the_whole_frame_onset(self, monkeypatch, where):
        f = 512
        delay = {"0": 0, "1": 1, "half": f // 2, "end-3": f - 3}[where]
        s = _settings(frame_len=f, pilot_len=16, jam_delay=delay)
        onsets, estimate = [], rx.estimate_onset

        def estimate_onset(y, guard, head):
            onsets.append((y.copy(), guard, estimate(y, guard, head)))
            return onsets[-1][2]

        monkeypatch.setattr(rx, "estimate_onset", estimate_onset)
        for t in range(4):
            link = pl.draw_link(s, np.random.default_rng([41, t]), None)
            assert link.head_power.size == delay + 1
            assert np.array_equal(link.head_power, rx.power_sums(link.clean[0])[: delay + 1])
            for ji, model in enumerate(JammerModel):
                rng = np.random.default_rng([41, t, ji])
                pl.run_cells(s, model, (-10.0, 5.0, 20.0), rng, s.eaves_noise_watt, link)
        assert len(onsets) == 4 * 9
        for y, guard, got in onsets:
            assert got == estimate(y, guard)

    @pytest.mark.parametrize("count", [1, 13])
    def test_stacked_stage_two_matches_one_probe_per_cell(self, count):
        s = _settings()
        scheme = ModScheme(Family.PSK, 4)
        models = [JammerModel.PS, JammerModel.AS]

        def cells():
            return [pl._Cell(
                model=models[k % 2], rng=np.random.default_rng([43, count, k]),
                a_j=10.0 ** (k / 8.0) * np.exp(0.4j * k), snr_j=1.0, clamped=False,
                detected=True, tau_hat=s.tau,
            ) for k in range(count)]

        ref = cells()
        balance = [_stage_two_reference(scheme, c) for c in ref]
        # each cell's balance as the threshold, and the next float above it:
        # the stack's verdicts flip exactly where the reference's do
        verdicts = set()
        for b in balance:
            for threshold in (b, np.nextafter(b, 1.0)):
                stack = cells()
                pl._stage_two(replace(s, flip_threshold=threshold), scheme, stack)
                got = [c.cls for c in stack]
                want = [rx.JammerClass.PS if bk >= threshold else rx.JammerClass.AS
                        for bk in balance]
                assert got == want
                verdicts.update(got)
                for c, r in zip(stack, ref):
                    assert c.rng.bit_generator.state == r.rng.bit_generator.state
        assert verdicts == {rx.JammerClass.PS, rx.JammerClass.AS}

    @pytest.mark.parametrize("orthogonality", list(OrthogonalityMode), ids=lambda m: m.value)
    def test_pair_compared_at_its_scale_is_the_equalized_pair(self, monkeypatch, orthogonality):
        if orthogonality == OrthogonalityMode.SPATIAL:
            s = _settings(orthogonality=orthogonality, baseline_snr_db=11.0)
        else:
            s = _settings()
        pairs, classify = [], pl._classify
        seen, rule = [], rx.classify_jammer

        def spy_classify(settings, scheme, *pair):
            pairs.append((scheme, pair))
            return classify(settings, scheme, *pair)

        def classify_jammer(sim, inversions, *args):
            seen.append((sim, inversions))
            return rule(sim, inversions, *args)

        monkeypatch.setattr(pl, "_classify", spy_classify)
        monkeypatch.setattr(rx, "classify_jammer", classify_jammer)
        for t in range(3):
            link = pl.draw_link(s, np.random.default_rng([47, t]), None)
            for ji, model in enumerate(JammerModel):
                rng = np.random.default_rng([47, t, ji])
                pl.run_cells(s, model, (0.0, 5.0, 10.0, 15.0), rng, s.eaves_noise_watt, link)
        assert len(seen) == len(pairs) > 0
        for (scheme, pair), (sim, inversions) in zip(pairs, seen):
            want_sim, want_inversions = _classify_reference(s, scheme, *pair)
            assert sim == pytest.approx(want_sim, rel=1e-12, abs=0.0)
            assert inversions == want_inversions
            args = (s.sim_threshold, s.inversion_threshold, scheme.family)
            assert rule(sim, inversions, *args) == rule(want_sim, want_inversions, *args)
        noise_vars = {pair[2:] for _, pair in pairs}
        if orthogonality == OrthogonalityMode.TEMPORAL:
            assert noise_vars == {(1.0, 1.0)}
        else:
            # the LCMV outputs' noise variances ||w_k||^2
            assert all(nv_l != 1.0 and nv_j != 1.0 for nv_l, nv_j in noise_vars)


class TestMemory:
    """The traced peak of one jammer's 13 cells on a link draw. Stacking
    whole frames or transforms across cells would raise it several times
    over; the bounds keep a sweep's resident memory where it is."""

    @pytest.mark.parametrize("name,bound_mb", [("figure2a", 1.0), ("figure2b", 1.5)])
    def test_peak_of_one_run_cells_call(self, name, bound_mb):
        cfg = load_config(os.path.join(CONFIGS, f"{name}.ini"))
        s = cfg.settings
        assert len(cfg.jsr_grid_db) == 13
        noise_var, eaves_var = calibrate_noise(cfg)
        peak = 0
        for t in range(6):
            link = pl.draw_link(s, np.random.default_rng([53, t]), noise_var)
            for ji, model in enumerate(cfg.jammers):
                rng = np.random.default_rng([53, t, ji])
                # what the call allocates, from a trace started just before it
                tracemalloc.start()
                try:
                    pl.run_cells(s, model, cfg.jsr_grid_db, rng, eaves_var, link)
                    peak = max(peak, tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peak <= bound_mb * 1e6
