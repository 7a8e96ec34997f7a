"""Waveform tests: constellation normalization, Gray mapping, modulate and
demodulate round trips, measured BER against the analytic curve, and the
Reed-Solomon codec."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from risjam.waveform import (
    _GF_EXP,
    _GF_LOG,
    DEFAULT_RS_TABLE,
    Family,
    ModScheme,
    RsCode,
    WaveformError,
    _generator_poly,
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


def _lfsr_encode(data_symbols, code):
    """Reference systematic encoder: one LFSR division step per data byte."""
    data = np.asarray(data_symbols, dtype=np.int64)
    nsym = code.n - code.k
    gen = np.asarray(_generator_poly(nsym), dtype=np.int64)
    gen_log = _GF_LOG[gen[1:]]
    gen_nz = gen[1:] != 0
    rem = np.zeros(nsym, dtype=np.int64)
    for d in data.tolist():
        coef = d ^ int(rem[0])
        rem[:-1] = rem[1:]
        rem[-1] = 0
        if coef:
            rem[gen_nz] ^= _GF_EXP[(gen_log[gen_nz] + _GF_LOG[coef]) % 255]
    return np.concatenate([data, rem])


def _data_block(kind, k, rng):
    if kind == "zero":
        return np.zeros(k, dtype=np.int64)
    if kind == "sparse":  # 1..k//20 nonzero bytes (one for short codes)
        data = np.zeros(k, dtype=np.int64)
        pos = rng.choice(k, size=int(rng.integers(1, max(1, k // 20) + 1)), replace=False)
        data[pos] = rng.integers(1, 256, size=pos.size)
        return data
    return rng.integers(0, 256, k)


class TestEncoderOracle:
    @given(
        code=st.sampled_from(DEFAULT_RS_TABLE + (RsCode(15, 11),)),
        kind=st.sampled_from(["random", "sparse", "zero"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_lfsr_loop(self, code, kind, seed):
        data = _data_block(kind, code.k, np.random.default_rng(seed))
        got = rs_encode(data, code)
        want = _lfsr_encode(data, code)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# sha256 of every (data, failure, corrected) that rs_decode returns on
# _decoder_corpus(); it pins the decoder's results, miscorrections included
DECODER_GOLDEN = "5aa1f60b0e30a930b0af235450ca1e046371d6dd9dea711efcd7e518cb241f7c"


def _decoder_corpus():
    """Two seeded blocks per table code and error weight 0..2t."""
    rng = np.random.default_rng(20240607)
    for code in DEFAULT_RS_TABLE:
        for w in range(2 * code.t + 1):
            for _ in range(2):
                cw = _lfsr_encode(rng.integers(0, 256, code.k), code)
                pos = rng.choice(code.n, size=w, replace=False)
                cw[pos] ^= rng.integers(1, 256, size=w)
                yield code, cw


class TestDecoderGolden:
    def test_results_unchanged(self):
        h = hashlib.sha256()
        for code, word in _decoder_corpus():
            res = rs_decode(word, code)
            h.update(np.asarray(res.data, dtype=np.int64).tobytes())
            h.update(bytes([res.failure, res.corrected]))
        assert h.hexdigest() == DECODER_GOLDEN


class TestErrorRates:
    def test_measure_ber(self):
        assert measure_ber([0, 1, 1, 0], [0, 1, 0, 0]) == pytest.approx(0.25)
        with pytest.raises(WaveformError):
            measure_ber([0, 1], [0])
