"""Adaptation tests: SNR combining, analytic error curves against a Monte
Carlo oracle, modulation remapping, code selection, and the scalar metrics."""

import itertools

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import erfc

from helpers import measure_ber
from risjam import adaptation as ad
from risjam.adaptation import (
    AdaptationDecision,
    AdaptationError,
    _q,
    ber_awgn,
    code_table,
    dbm_to_watt,
    effective_ber,
    jsr_db,
    remap_modulation,
    residual_symbol_error,
    select_link,
    ser_awgn,
    snr_jamming,
    throughput,
)
from risjam.receiver import JammerClass
from risjam.waveform import (
    DEFAULT_RS_TABLE,
    ORDERS,
    Family,
    ModScheme,
    RsCode,
    demodulate,
    modulate,
)

CLASSES = (None, JammerClass.UNKNOWN, JammerClass.DRFM, JammerClass.PS, JammerClass.AS)


def _ser_per_order(family, m, snr):
    """Reference SER: one scalar order, each family's special cases spelled
    out (BPSK's single tail, QAM's missing quadrature rail at order 2)."""
    snr = np.asarray(snr, dtype=float)
    if family == Family.PSK:
        if m == 2:
            ser = _q(np.sqrt(2.0 * snr))
        else:
            ser = 2.0 * _q(np.sqrt(2.0 * snr) * np.sin(np.pi / m))
    elif family == Family.ASK:
        c = np.sqrt(6.0 / ((m + 1) * (2 * m + 1)))
        ser = 2.0 * (m - 1) / m * _q(c * np.sqrt(snr / 2.0))
    else:
        mi = 1 << ((int(np.log2(m)) + 1) // 2)
        mq = m // mi
        scale = np.sqrt(3.0 / (mi * mi + mq * mq - 2.0))
        pi = 2.0 * (1 - 1.0 / mi) * _q(scale * np.sqrt(2.0 * snr))
        pq = 2.0 * (1 - 1.0 / mq) * _q(scale * np.sqrt(2.0 * snr)) if mq > 1 else 0.0
        ser = 1.0 - (1.0 - pi) * (1.0 - pq)
    return np.minimum(ser, 1.0)


def _effective_ber_per_order(jammer_class, family, m, snr_l, snr_j):
    """Reference post-combining BER for one order, by class."""
    def ber(snr):
        ser = _ser_per_order(family, m, snr)
        return ser if family == Family.PSK and m == 2 else ser / np.log2(m)

    if jammer_class in (None, JammerClass.UNKNOWN):
        return float(ber(snr_l))
    if jammer_class == JammerClass.AS:
        nodes, weights = leggauss(48)
        v = np.minimum(nodes + 1.0, 1.0)
        return float(np.sum(weights / 2.0 * ber(snr_l + v**2 * snr_j)))
    return float(ber(snr_l + snr_j))


def _select_link_per_order(jammer_class, snr_l, snr_j, base_family, delta, fixed_rate, max_order):
    """Reference link choice: one BER and one code choice per order, by its
    own code rule: rank the table by rate, take the first code whose residual
    (n * SER - t) / n is at most delta, else the lowest-rate code, flagged
    non-compliant."""
    family = remap_modulation(jammer_class, ModScheme(base_family, 2)).family
    ranked = sorted(code_table(fixed_rate), key=lambda c: c.rate, reverse=True)
    decisions = []
    for m in ORDERS:
        if m > max_order:
            continue
        ber = _effective_ber_per_order(jammer_class, family, m, snr_l, snr_j)
        ser = 1.0 - (1.0 - ber) ** int(np.log2(m))
        fits = [c for c in ranked if (c.n * ser - c.t) / c.n <= delta]
        code = fits[0] if fits else ranked[-1]
        decisions.append(AdaptationDecision(ModScheme(family, m), code, bool(fits)))
    compliant = [d for d in decisions if d.compliant]
    if not compliant:
        return decisions[0]
    return max(compliant, key=lambda d: (d.code.rate * d.scheme.bits_per_symbol, d.scheme.order))


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


class TestAllOrdersAtOnce:
    """The error curves broadcast over the order axis and reproduce the
    per-order formulas bit for bit; select_link evaluates them once."""

    # log-spaced (snr_l, snr_j) pairs from deep in the noise to error-free
    SNRS = list(zip(np.logspace(-2.0, 4.0, 9), np.logspace(3.0, -2.0, 9)))

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    @pytest.mark.parametrize("jammer_class", CLASSES, ids=str)
    def test_effective_ber_over_orders_matches_per_order(self, jammer_class, family):
        orders = np.array(ORDERS)
        for snr_l, snr_j in self.SNRS:
            got = effective_ber(jammer_class, family, orders, snr_l, snr_j)
            scalar = [effective_ber(jammer_class, family, m, snr_l, snr_j) for m in ORDERS]
            ref = [_effective_ber_per_order(jammer_class, family, m, snr_l, snr_j) for m in ORDERS]
            assert all(type(b) is float for b in scalar)
            assert np.array_equal(got, scalar)
            assert np.array_equal(got, ref)

    def test_scalar_order_gives_float(self):
        for family in Family:
            assert type(ser_awgn(family, 16, 10.0)) is float
            assert ser_awgn(family, np.array([2, 16]), 10.0).shape == (2,)

    def test_select_link_matches_per_order_loop(self):
        grid = itertools.product(CLASSES, Family, (None, 0.94, 0.70), ORDERS, self.SNRS)
        for jammer_class, family, fixed_rate, max_order, (snr_l, snr_j) in grid:
            args = (jammer_class, snr_l, snr_j, family, -0.005, fixed_rate, max_order)
            assert select_link(*args) == _select_link_per_order(*args)

    @pytest.mark.parametrize("jammer_class", CLASSES, ids=str)
    def test_one_error_curve_call_per_decision(self, monkeypatch, jammer_class):
        calls = {"_q": 0, "effective_ber": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(ad, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(ad, name, counted)
        # an earlier test may have memoised this very decision
        select_link.cache_clear()
        select_link(jammer_class, 10.0, 10.0, Family.QAM, -0.005, None, 64)
        assert calls == {"_q": 1, "effective_ber": 1}

    def test_repeated_decision_is_memoised(self, monkeypatch):
        args = (JammerClass.AS, 3.7, 0.42, Family.PSK, -0.005, None, 32)
        select_link.cache_clear()
        first = select_link(*args)
        assert first == _select_link_per_order(*args)
        calls = []
        monkeypatch.setattr(ad, "effective_ber", lambda *a: calls.append(a))
        assert select_link(*args) == first
        assert calls == []


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

    # max_order 2 leaves only the code to choose
    def test_high_snr_picks_highest_rate(self):
        d = select_link(None, 1000.0, 0.0, Family.PSK, -0.005, None, 2)
        assert d.compliant
        assert d.code == DEFAULT_RS_TABLE[0]

    def test_low_snr_falls_back(self):
        d = select_link(None, 0.01, 0.0, Family.PSK, -0.005, None, 2)
        assert not d.compliant
        assert d.code == DEFAULT_RS_TABLE[-1]

    def test_rate_monotone_in_snr(self):
        snrs = np.linspace(0.5, 30.0, 40)
        rates = [select_link(None, s, 0.0, Family.PSK, -0.005, None, 2).code.rate for s in snrs]
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_rejects_nonnegative_delta(self):
        with pytest.raises(AdaptationError):
            select_link(None, 10.0, 0.0, Family.PSK, 0.0, None, 2)

    @pytest.mark.parametrize("fixed_rate", [None] + [c.rate for c in DEFAULT_RS_TABLE])
    def test_code_table_falls_in_rate(self, fixed_rate):
        rates = [c.rate for c in code_table(fixed_rate)]
        assert rates and all(a > b for a, b in zip(rates, rates[1:]))


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
