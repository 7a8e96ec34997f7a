"""Adaptation tests: SNR combining, analytic error curves against a Monte
Carlo oracle, modulation remapping, code selection, and the scalar metrics."""

import numpy as np
import pytest
from scipy.special import erfc

from helpers import measure_ber
from risjam.adaptation import (
    AdaptationError,
    _q,
    ber_awgn,
    dbm_to_watt,
    effective_ber,
    jsr_db,
    remap_modulation,
    residual_symbol_error,
    select_code,
    select_link,
    ser_awgn,
    snr_jamming,
    throughput,
)
from risjam.receiver import JammerClass
from risjam.waveform import (
    DEFAULT_RS_TABLE,
    Family,
    ModScheme,
    RsCode,
    demodulate,
    modulate,
)


class TestSnrJamming:
    def test_symmetric_unit_point(self):
        assert snr_jamming(1.0, 1.0) == pytest.approx(1.0 / 3.0)

    def test_bottleneck_limits(self):
        # a huge eavesdropping SNR leaves the relay hop as the bottleneck
        assert snr_jamming(1e9, 5.0) == pytest.approx(5.0, rel=1e-6)
        assert snr_jamming(5.0, 1e9) == pytest.approx(5.0, rel=1e-6)

    def test_monotone(self):
        vals = [snr_jamming(10.0, g) for g in (0.1, 1.0, 10.0, 100.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_negative(self):
        with pytest.raises(AdaptationError):
            snr_jamming(-1.0, 1.0)


class TestErrorCurves:
    def test_bpsk_closed_form(self):
        snr = 10 ** (6.0 / 10.0)
        assert ser_awgn(Family.PSK, 2, snr) == pytest.approx(0.5 * erfc(np.sqrt(snr)))

    @pytest.mark.parametrize(
        "family,order",
        [(Family.PSK, 8), (Family.ASK, 4), (Family.QAM, 16), (Family.QAM, 64)],
    )
    def test_matches_monte_carlo(self, family, order):
        rng = np.random.default_rng(order)
        scheme = ModScheme(family, order)
        snr = 10 ** (18.0 / 10.0) if order >= 16 else 10 ** (14.0 / 10.0)
        n = 120000
        bits = rng.integers(0, 2, n * scheme.bits_per_symbol).astype(np.uint8)
        x = modulate(bits, scheme)
        sigma = np.sqrt(1.0 / (2.0 * snr))
        y = x + sigma * (rng.normal(size=n) + 1j * rng.normal(size=n))
        measured = measure_ber(bits, demodulate(y, scheme))
        analytic = ber_awgn(family, order, snr)
        assert measured == pytest.approx(analytic, rel=0.25)

    def test_q_matches_scipy_erfc(self):
        x = np.linspace(0.0, 8.0, 4001)
        expected = 0.5 * erfc(x / np.sqrt(2.0))
        assert np.allclose(_q(x), expected, rtol=1e-13, atol=0.0)
        assert _q(x.reshape(-1, 1)).shape == (x.size, 1)
        for v in (0.0, 0.5, 3.0, 8.0):
            assert _q(v) == pytest.approx(0.5 * erfc(v / np.sqrt(2.0)), rel=1e-13, abs=0.0)

    def test_ser_capped_at_one(self):
        assert ser_awgn(Family.QAM, 64, 1e-9) <= 1.0


class TestEffectiveBer:
    def test_unknown_ignores_jam_power(self):
        assert effective_ber(JammerClass.UNKNOWN, Family.PSK, 4, 5.0, 50.0) == (
            pytest.approx(float(ber_awgn(Family.PSK, 4, 5.0)))
        )

    def test_drfm_adds_full_power(self):
        got = effective_ber(JammerClass.DRFM, Family.PSK, 4, 5.0, 20.0)
        assert got == pytest.approx(float(ber_awgn(Family.PSK, 4, 25.0)))

    def test_as_between_none_and_full(self):
        full = effective_ber(JammerClass.DRFM, Family.PSK, 4, 5.0, 20.0)
        none = effective_ber(JammerClass.UNKNOWN, Family.PSK, 4, 5.0, 20.0)
        mid = effective_ber(JammerClass.AS, Family.PSK, 4, 5.0, 20.0)
        assert full < mid < none


class TestRemap:
    def test_rules(self):
        cur = ModScheme(Family.PSK, 16)
        assert remap_modulation(JammerClass.AS, cur).family == Family.PSK
        assert remap_modulation(JammerClass.PS, cur).family == Family.ASK
        assert remap_modulation(JammerClass.DRFM, cur) == cur
        assert remap_modulation(JammerClass.UNKNOWN, cur) == cur


class TestCodeSelection:
    def test_residual_formula(self):
        code = RsCode(255, 239)
        assert residual_symbol_error(0.05, code) == pytest.approx(
            (255 * 0.05 - 8) / 255
        )

    def test_high_snr_picks_highest_rate(self):
        ber = ber_awgn(Family.PSK, 2, 1000.0)
        d = select_code(ModScheme(Family.PSK, 2), -0.005, DEFAULT_RS_TABLE, ber)
        assert d.compliant
        assert d.code == DEFAULT_RS_TABLE[0]

    def test_low_snr_falls_back(self):
        ber = ber_awgn(Family.PSK, 2, 0.01)
        d = select_code(ModScheme(Family.PSK, 2), -0.005, DEFAULT_RS_TABLE, ber)
        assert not d.compliant
        assert d.code == DEFAULT_RS_TABLE[-1]

    def test_rate_monotone_in_snr(self):
        snrs = np.linspace(0.5, 30.0, 40)
        rates = [
            select_code(
                ModScheme(Family.PSK, 4), -0.005, DEFAULT_RS_TABLE, ber_awgn(Family.PSK, 4, s)
            ).code.rate
            for s in snrs
        ]
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_rejects_nonnegative_delta(self):
        with pytest.raises(AdaptationError):
            select_code(
                ModScheme(Family.PSK, 2), 0.0, DEFAULT_RS_TABLE, ber_awgn(Family.PSK, 2, 10.0)
            )


# base_family, delta, fixed_rate and max_order of the default TrialSettings
DEFAULTS = (Family.PSK, -0.005, None, 64)


class TestLinkSelection:
    def test_spectral_efficiency_grows_with_snr(self):
        effs = []
        for snr_db in (0.0, 7.0, 14.0, 21.0, 28.0):
            d = select_link(None, 10 ** (snr_db / 10.0), 0.0, *DEFAULTS)
            effs.append(d.code.rate * d.scheme.bits_per_symbol)
        assert all(a <= b + 1e-12 for a, b in zip(effs, effs[1:]))

    def test_classified_jammer_raises_efficiency(self):
        snr_l = 10 ** (7.0 / 10.0)
        snr_j = 10 ** (12.0 / 10.0)
        base = select_link(None, snr_l, snr_j, *DEFAULTS)
        aware = select_link(JammerClass.DRFM, snr_l, snr_j, *DEFAULTS)
        eff = lambda d: d.code.rate * d.scheme.bits_per_symbol
        assert eff(aware) > eff(base)

    def test_fixed_rate_restricts_table(self):
        d = select_link(None, 100.0, 0.0, Family.PSK, -0.005, 0.94, 64)
        assert d.code == RsCode(255, 240)
        with pytest.raises(AdaptationError):
            select_link(None, 100.0, 0.0, Family.PSK, -0.005, 0.5, 64)

    def test_max_order_respected(self):
        d = select_link(None, 1e6, 0.0, Family.PSK, -0.005, None, 8)
        assert d.scheme.order <= 8

    def test_ps_switches_to_ask(self):
        d = select_link(JammerClass.PS, 10.0, 10.0, *DEFAULTS)
        assert d.scheme.family == Family.ASK

    def test_as_stays_psk(self):
        d = select_link(JammerClass.AS, 10.0, 10.0, *DEFAULTS)
        assert d.scheme.family == Family.PSK


class TestMetrics:
    def test_throughput_formula(self):
        t = throughput(1.0, RsCode(50, 47), ModScheme(Family.PSK, 64), 1.0)
        assert t == pytest.approx(5.64)
        assert throughput(2.0, RsCode(50, 47), ModScheme(Family.PSK, 64), 0.5) == (
            pytest.approx(5.64)
        )
        with pytest.raises(AdaptationError):
            throughput(1.0, RsCode(50, 47), ModScheme(Family.PSK, 64), 0.0)

    def test_jsr_db(self):
        assert jsr_db(10.0, 1.0) == pytest.approx(10.0)
        assert jsr_db(1.0, 1.0) == pytest.approx(0.0)
        with pytest.raises(AdaptationError):
            jsr_db(0.0, 1.0)

    def test_power_conversions(self):
        assert dbm_to_watt(30.0) == pytest.approx(1.0)
        assert dbm_to_watt(0.0) == pytest.approx(1e-3)
