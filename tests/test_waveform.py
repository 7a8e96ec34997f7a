"""Waveform tests: constellation normalization, Gray mapping, modulate and
demodulate round trips, measured BER against the analytic curve, and the
Reed-Solomon codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from risjam.waveform import (
    DEFAULT_RS_TABLE,
    Family,
    ModScheme,
    RsCode,
    WaveformError,
    constellation,
    demodulate,
    measure_ber,
    modulate,
    rs_decode,
    rs_encode,
)

ALL_SCHEMES = [
    ModScheme(f, m)
    for f in Family
    for m in (2, 4, 8, 16, 32, 64)
]


class TestConstellations:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
    def test_unit_energy(self, scheme):
        pts = constellation(scheme.family, scheme.order)
        assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
    def test_points_distinct(self, scheme):
        pts = constellation(scheme.family, scheme.order)
        assert len(np.unique(np.round(pts, 9))) == scheme.order

    def test_ask_strictly_positive_real(self):
        for m in (2, 4, 8, 16, 32, 64):
            pts = constellation(Family.ASK, m)
            assert np.all(pts.real > 0)
            assert np.allclose(pts.imag, 0)

    def test_psk_gray_neighbors_differ_one_bit(self):
        for m in (4, 8, 16):
            pts = constellation(Family.PSK, m)
            ring = np.argsort(np.mod(np.angle(pts), 2 * np.pi))
            for a, b in zip(ring, np.roll(ring, -1)):
                assert bin(int(a) ^ int(b)).count("1") == 1

    def test_bad_order_rejected(self):
        with pytest.raises(WaveformError):
            ModScheme(Family.PSK, 3)


class TestModemRoundTrip:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
    def test_bijection(self, scheme):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 600 * scheme.bits_per_symbol).astype(np.uint8)
        assert np.array_equal(demodulate(modulate(bits, scheme), scheme), bits)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scheme=st.sampled_from(ALL_SCHEMES),
        n_syms=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=50, deadline=None)
    def test_bijection_property(self, seed, scheme, n_syms):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, n_syms * scheme.bits_per_symbol).astype(np.uint8)
        assert np.array_equal(demodulate(modulate(bits, scheme), scheme), bits)

    def test_bit_count_must_divide(self):
        with pytest.raises(WaveformError):
            modulate(np.zeros(5, dtype=np.uint8), ModScheme(Family.PSK, 4))

    def test_bpsk_ber_matches_q_function(self):
        # independent oracle: P_b = Q(sqrt(2*SNR)) for coherent BPSK
        rng = np.random.default_rng(2)
        scheme = ModScheme(Family.PSK, 2)
        snr = 10 ** (4.0 / 10.0)
        n = 200000
        bits = rng.integers(0, 2, n).astype(np.uint8)
        x = modulate(bits, scheme)
        sigma = np.sqrt(1.0 / (2.0 * snr))
        y = x + sigma * (rng.normal(size=n) + 1j * rng.normal(size=n))
        ber = measure_ber(bits, demodulate(y, scheme))
        expected = 0.5 * erfc(np.sqrt(snr))
        assert ber == pytest.approx(expected, rel=0.1)


class TestReedSolomon:
    def test_table_rates(self):
        rates = [c.rate for c in DEFAULT_RS_TABLE]
        assert rates == sorted(rates, reverse=True)
        assert all(c.n == 255 for c in DEFAULT_RS_TABLE)
        assert DEFAULT_RS_TABLE[0].rate == pytest.approx(240 / 255)
        assert DEFAULT_RS_TABLE[-1].rate == pytest.approx(178 / 255)

    def test_encode_is_systematic(self):
        rng = np.random.default_rng(3)
        code = RsCode(255, 224)
        data = rng.integers(0, 256, code.k)
        cw = rs_encode(data, code)
        assert cw.size == code.n
        assert np.array_equal(cw[: code.k], data)

    def test_clean_decode(self):
        rng = np.random.default_rng(4)
        for code in DEFAULT_RS_TABLE:
            data = rng.integers(0, 256, code.k)
            res = rs_decode(rs_encode(data, code), code)
            assert not res.failure
            assert res.corrected == 0
            assert np.array_equal(res.data, data)

    @pytest.mark.parametrize("code", DEFAULT_RS_TABLE, ids=lambda c: f"rs{c.n}_{c.k}")
    def test_corrects_up_to_t(self, code):
        rng = np.random.default_rng(code.k)
        data = rng.integers(0, 256, code.k)
        cw = rs_encode(data, code)
        for _ in range(30):
            w = int(rng.integers(1, code.t + 1))
            pos = rng.choice(code.n, size=w, replace=False)
            bad = cw.copy()
            bad[pos] ^= rng.integers(1, 256, size=w)
            res = rs_decode(bad, code)
            assert not res.failure
            assert res.corrected == w
            assert np.array_equal(res.data, data)

    def test_flags_beyond_t(self):
        rng = np.random.default_rng(9)
        code = RsCode(255, 224)
        data = rng.integers(0, 256, code.k)
        cw = rs_encode(data, code)
        flagged = 0
        for _ in range(50):
            pos = rng.choice(code.n, size=code.t + 1, replace=False)
            bad = cw.copy()
            bad[pos] ^= rng.integers(1, 256, size=code.t + 1)
            if rs_decode(bad, code).failure:
                flagged += 1
        assert flagged >= 49

    def test_bad_params_rejected(self):
        with pytest.raises(WaveformError):
            RsCode(255, 255)
        with pytest.raises(WaveformError):
            RsCode(256, 200)
        with pytest.raises(WaveformError):
            rs_decode(np.zeros(10, dtype=np.int64), RsCode(255, 224))


class TestErrorRates:
    def test_measure_ber(self):
        assert measure_ber([0, 1, 1, 0], [0, 1, 0, 0]) == pytest.approx(0.25)
        with pytest.raises(WaveformError):
            measure_ber([0, 1], [0])
