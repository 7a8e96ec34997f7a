"""Receiver tests: correlation against a brute-force oracle, delay and onset
estimation, AoA estimation, LCMV separation, and jammer classification."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from risjam import receiver
from risjam.jammer import JammerModel, jammer_transform
from risjam.receiver import (
    _DIAGONAL_LOADING,
    ClassifierThresholds,
    JammerClass,
    NoPeakError,
    ReceiverError,
    _AOA_GRID,
    _fb_smoothed,
    _grid_steering,
    _local_maxima,
    _steering,
    classify_jammer,
    cross_correlate,
    equalize_stream,
    estimate_aoa,
    estimate_delay,
    estimate_onset,
    partition_temporal,
    pilot_anomaly_fraction,
    separate_spatial,
    similarity_ratio,
)
from risjam.waveform import Family, ModScheme


def brute_force_correlation(y, y_ref, f_max, gamma_max):
    """Independent oracle: the sliding product summed directly at each lag,
    over the n < f_max whose reference index n + tau is in range."""
    lags = np.arange(-gamma_max, gamma_max + 1)
    out = np.zeros(lags.size, dtype=complex)
    for i, tau in enumerate(lags):
        lo, hi = max(0, -tau), min(f_max, len(y_ref) - tau)
        if lo < hi:
            out[i] = np.vdot(y_ref[lo + tau : hi + tau], y[lo:hi])
    return lags, out


def _qpsk(n, rng):
    return np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, n)))


def _sv(m, aoa):
    return _steering(m, aoa)[:, 0]


def _cov(x):
    """The m x m array covariance the pipeline forms once per snapshot."""
    return x @ x.conj().T / x.shape[1]


def _smoothed_by_subarrays(x):
    """Reference forward-backward smoothing: one Gram per (m-1)-element
    subarray of the snapshot, averaged, then the exchange-matrix products."""
    msub = x.shape[0] - 1
    r = np.zeros((msub, msub), dtype=complex)
    for start in (0, 1):
        sub = x[start : start + msub]
        r += sub @ sub.conj().T / sub.shape[1]
    r /= 2.0
    j = np.eye(msub)[::-1]
    return 0.5 * (r + j @ r.conj() @ j)


def _lcmv_reference(cov, aoas):
    """Reference LCMV weights, written for one m x m covariance."""
    m = cov.shape[0]
    c = _steering(m, aoas)
    r = cov + _DIAGONAL_LOADING * np.trace(cov).real / m * np.eye(m)
    rinv_c = np.linalg.solve(r, c)
    return rinv_c @ np.linalg.inv(c.conj().T @ rinv_c)


def _lcmv_forming_gram(x, aoas):
    """Reference LCMV that forms the snapshot's Gram itself."""
    w = _lcmv_reference(x @ x.conj().T / x.shape[1], aoas)
    return w.conj().T @ x, w


def _music_reference(cov, source_count):
    """Reference MUSIC, written for one m x m covariance."""
    msub = cov.shape[0] - 1
    r = 0.5 * (cov[:-1, :-1] + cov[1:, 1:])
    _, vecs = np.linalg.eigh(0.5 * (r + r[::-1, ::-1].conj()))
    proj = vecs[:, : msub - source_count].conj().T @ _grid_steering(msub)
    spectrum = 1.0 / np.maximum(np.sum(np.abs(proj) ** 2, axis=0), 1e-15)
    peaks = _local_maxima(spectrum)
    if peaks.size < source_count:
        return np.sort(_AOA_GRID[np.argsort(spectrum)[::-1][:source_count]])
    return np.sort(_AOA_GRID[peaks[np.argsort(spectrum[peaks])[::-1][:source_count]]])


def _two_source_snapshot(m, kind, rng, n=4096):
    """m x n snapshot of a QPSK source and a second one that is a scaled copy
    (coherent, DRFM-like), a per-sample sign-flipped copy, or independent."""
    s1 = _qpsk(n, rng)
    if kind == "coherent":
        s2 = s1
    elif kind == "sign_flipped":
        s2 = s1 * rng.choice([1.0, -1.0], size=n)
    else:
        s2 = _qpsk(n, rng)
    a1 = rng.uniform(-np.pi / 3, np.pi / 3)
    a2 = a1 + rng.choice([-1.0, 1.0]) * rng.uniform(np.deg2rad(15.0), np.deg2rad(60.0))
    g = rng.uniform(0.3, 3.0) * np.exp(2j * np.pi * rng.random())
    sigma = 10.0 ** (-rng.uniform(-5.0, 25.0) / 20.0) / np.sqrt(2.0)
    noise = sigma * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
    return np.outer(_sv(m, a1), s1) + np.outer(_sv(m, a2), g * s2) + noise, [a1, a2]


class TestCrossCorrelation:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=96) + 1j * rng.normal(size=96)
        ref = rng.normal(size=96) + 1j * rng.normal(size=96)
        res = cross_correlate(y, ref, f_max=64, gamma_max=16)
        _, oracle = brute_force_correlation(y, ref, 64, 16)
        assert res.shape == oracle.shape
        assert np.allclose(res, oracle, atol=1e-10)

    def test_delayed_replica_peaks_at_delay(self):
        rng = np.random.default_rng(2)
        x = _qpsk(256, rng)
        d = 17
        y = np.concatenate([np.zeros(d, dtype=complex), x])[:256]
        res = cross_correlate(x, y, f_max=200, gamma_max=40)
        assert estimate_delay(res) == d

    def test_estimate_delay_reads_lags_from_the_length(self):
        """2g + 1 values run over lags -g..g; equal peaks go to the smallest
        |tau|, then to the negative lag."""
        values = np.zeros(2 * 5 + 1, dtype=complex)
        values[5 - 4] = 2.0j  # lag -4
        assert estimate_delay(values) == -4
        values[5 + 3] = -2.0  # lag 3
        assert estimate_delay(values) == 3
        values[5 - 3] = 2.0  # lag -3
        assert estimate_delay(values) == -3

    def test_rejects_bad_bounds(self):
        with pytest.raises(ReceiverError):
            cross_correlate(np.ones(10), np.ones(10), f_max=8, gamma_max=8)
        with pytest.raises(ReceiverError):
            cross_correlate(np.ones(4), np.ones(10), f_max=8, gamma_max=2)
        with pytest.raises(ReceiverError):
            cross_correlate(np.ones(10), np.ones(10), f_max=8, gamma_max=-1)

    @settings(deadline=None, max_examples=150)
    @given(
        f_max=st.integers(2, 4095),
        gamma_frac=st.floats(0.0, 1.0),
        ref_extra=st.integers(-4096, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(f_max=4095, gamma_frac=1.0, ref_extra=0, seed=0)
    @example(f_max=4095, gamma_frac=0.5, ref_extra=1, seed=1)
    @example(f_max=2, gamma_frac=0.0, ref_extra=0, seed=2)
    def test_matches_direct_sum_and_scipy(self, f_max, gamma_frac, ref_extra, seed):
        """The direct sum and scipy.signal.correlate's full FFT correlation, to
        1e-12 of the Cauchy-Schwarz bound on |R|."""
        gamma = 1 + round(gamma_frac * (f_max - 2))
        ref_len = max(f_max, f_max + gamma + ref_extra)
        rng = np.random.default_rng(seed)
        y = rng.normal(size=f_max + 3) + 1j * rng.normal(size=f_max + 3)
        ref = rng.normal(size=ref_len) + 1j * rng.normal(size=ref_len)
        rs = ref[: f_max + gamma]
        tol = 1e-12 * np.linalg.norm(y[:f_max]) * np.linalg.norm(rs)
        lags, direct = brute_force_correlation(y, ref, f_max, gamma)
        full = sps.correlate(y[:f_max], rs, mode="full", method="fft")
        alone = cross_correlate(y, ref, f_max, gamma)
        assert alone.shape == lags.shape
        assert np.abs(alone - direct).max() <= tol
        assert np.abs(alone - full[rs.size - 1 - lags]).max() <= tol

    @pytest.mark.parametrize(
        "f_max, gamma, ref_len",
        [(33, 16, 49), (33, 16, 80), (100, 40, 115), (2048, 1024, 2049)],
    )
    def test_no_alias_at_the_lag_edges(self, f_max, gamma, ref_len):
        """y[0] against the last reference sample rs[-1] is a lag of rs.size - 1,
        beyond gamma, so every lag in range reads zero. A circular correlation
        one sample shorter than rs.size + gamma wraps it onto lag -gamma; the
        sizes make that shorter length a fast FFT length itself."""
        rs_size = min(ref_len, f_max + gamma)
        assert receiver._fast_len(rs_size + gamma - 1) == rs_size + gamma - 1
        y = np.zeros(f_max, dtype=complex)
        y[0] = 1.0
        ref = np.zeros(ref_len, dtype=complex)
        ref[rs_size - 1] = 1.0
        assert np.abs(cross_correlate(y, ref, f_max, gamma)).max() < 1e-12

    def test_zero_correlation_raises(self):
        res = cross_correlate(np.zeros(16), np.zeros(16), 8, 2)
        with pytest.raises(NoPeakError):
            estimate_delay(res)


class TestSimilarityRows:
    """The similarity ratio's two correlation rows, from four transforms and
    the tail correction, against the direct sums."""

    @pytest.mark.parametrize(
        "n, f_max",
        # a tail of one sample past f_max (every classification pair), of 48
        # (f_max 2000 on 2048), and of none; odd and even n
        [(3, 2), (4, 3), (2047, 2046), (2048, 2047), (2047, 1999), (2048, 2000), (64, 64)],
    )
    def test_rows_match_direct_sums(self, n, f_max):
        rng = np.random.default_rng(n + f_max)
        legit = rng.normal(size=n) + 1j * rng.normal(size=n)
        jam = rng.normal(size=n) + 1j * rng.normal(size=n)
        gamma = max(1, f_max // 2)
        rs = legit[: f_max + gamma]
        rows = receiver._similarity_rows(jam, legit, f_max, gamma)
        assert rows.shape == (2, 2 * gamma + 1)
        for row, y in zip(rows, (legit, jam)):
            _, direct = brute_force_correlation(y, rs, f_max, gamma)
            tol = 1e-12 * np.linalg.norm(y[:f_max]) * np.linalg.norm(rs)
            assert np.abs(row - direct).max() <= tol

        # the ratio read off the direct sums
        nv = 0.3
        sc, cc = (np.abs(brute_force_correlation(y, rs, f_max, gamma)[1]) for y in (legit, jam))
        sc[gamma] = max(sc[gamma] - nv * f_max, 0.0)
        expected = cc.max() / sc.max()
        assert similarity_ratio(jam, legit, f_max, nv) == pytest.approx(expected, rel=1e-9)

    def test_rejects_a_window_without_lags(self):
        with pytest.raises(ReceiverError):
            similarity_ratio(np.ones(4), np.ones(4), 1, 0.0)


class TestOnset:
    def test_noiseless_step(self):
        y = np.concatenate([np.ones(100), 2.0 * np.ones(100)]).astype(complex)
        tau, jump = estimate_onset(y, 2)
        assert tau == 100
        assert jump == pytest.approx(3.0, rel=1e-9)

    def test_noisy_step_within_tolerance(self):
        rng = np.random.default_rng(4)
        n, d = 2048, 700
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        y[d:] *= 2.0
        tau, jump = estimate_onset(y, 2)
        assert abs(tau - d) <= 20
        assert jump > 1.0

    def test_too_short_raises(self):
        with pytest.raises(ReceiverError):
            estimate_onset(np.ones(4), 2)

    @staticmethod
    def _onset_reference(y, guard):
        """The change-point formula with its grid built per call."""
        p = np.abs(y) ** 2
        n = p.size
        c = np.concatenate([[0.0], np.cumsum(p)])
        idx = np.arange(guard, n - guard)
        before = c[idx] / idx
        after = (c[-1] - c[idx]) / (n - idx)
        weight = np.sqrt(idx * (n - idx)) / n
        k = int(np.argmax((after - before) * weight))
        return int(idx[k]), float((after[k] - before[k]) / max(before[k], 1e-30))

    def test_matches_reference_formula(self):
        """Equal (onset, jump) to the per-call formula on random lengths,
        guards and steps, including repeated lengths served by the cached
        grid."""
        rng = np.random.default_rng(14)
        for n in list(rng.integers(6, 5000, size=120)) + [4096] * 5 + [6, 7]:
            guard = int(rng.integers(1, min(64, (n - 2) // 2) + 1))
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            y[rng.integers(0, n) :] *= rng.uniform(0.5, 4.0)
            assert estimate_onset(y, guard) == self._onset_reference(y, guard)


class TestLocalMaxima:
    """_local_maxima against scipy.signal.find_peaks with no conditions."""

    @staticmethod
    def _check(x):
        x = np.asarray(x, dtype=float)
        assert np.array_equal(_local_maxima(x), sps.find_peaks(x)[0])

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=60))
    def test_integer_plateaus(self, values):
        self._check(values)

    @settings(deadline=None, max_examples=200)
    @given(
        left=st.integers(1, 5), right=st.integers(1, 5),
        middle=st.lists(st.integers(0, 4), max_size=20),
        edge=st.integers(0, 4),
    )
    def test_edge_plateaus(self, left, right, middle, edge):
        self._check([edge] * left + middle + [edge] * right)

    def test_random(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 10, 361, 1000):
            for _ in range(20):
                self._check(rng.normal(size=n))

    def test_flat_top_reports_middle_rounding_down(self):
        assert _local_maxima(np.array([0.0, 2, 2, 2, 2, 1])).tolist() == [2]
        assert _local_maxima(np.array([0.0, 2, 2, 2, 1])).tolist() == [2]


class TestSpatial:
    def test_music_two_sources(self):
        rng = np.random.default_rng(5)
        m, n = 8, 2048
        a1, a2 = np.deg2rad(-20.0), np.deg2rad(25.0)
        s1 = _qpsk(n, rng)
        s2 = _qpsk(n, rng)
        x = (
            np.outer(_sv(m, a1), s1)
            + np.outer(_sv(m, a2), s2)
            + 0.1 * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
        )
        est = estimate_aoa(_cov(x), 2)
        assert np.allclose(np.rad2deg(est), [-20.0, 25.0], atol=1.0)

    def test_music_coherent_replica(self):
        # DRFM case: the second source is a scaled copy of the first
        rng = np.random.default_rng(6)
        m, n = 8, 4096
        a1, a2 = np.deg2rad(-10.0), np.deg2rad(30.0)
        s = _qpsk(n, rng)
        x = (
            np.outer(_sv(m, a1), s)
            + np.outer(_sv(m, a2), 0.9 * s)
            + 0.05 * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
        )
        est = np.rad2deg(estimate_aoa(_cov(x), 2))
        assert np.allclose(est, [-10.0, 30.0], atol=3.0)

    def test_lcmv_nulls_interferer(self):
        rng = np.random.default_rng(7)
        m, n = 8, 4096
        a1, a2 = np.deg2rad(-15.0), np.deg2rad(20.0)
        s1, s2 = _qpsk(n, rng), _qpsk(n, rng)
        x = (
            np.outer(_sv(m, a1), s1)
            + np.outer(_sv(m, a2), s2)
            + 0.1 * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
        )
        w, resolved = separate_spatial(_cov(x), [a1, a2])
        assert resolved
        out1, out2 = w.conj().T @ x
        leak1 = np.mean(np.abs(out1 - s1) ** 2)
        leak2 = np.mean(np.abs(out2 - s2) ** 2)
        assert leak1 < 0.05 and leak2 < 0.05
        # unit gain toward each look direction, a null toward the other
        assert np.allclose(w.conj().T @ _steering(m, [a1, a2]), np.eye(2), atol=1e-9)

    @pytest.mark.parametrize("m", [2, 4, 7])
    def test_cached_music_grid_matches_fresh_steering(self, m):
        grid = _grid_steering(m)
        fresh = _steering(m, np.deg2rad(np.arange(-90.0, 90.5, 0.5)))
        assert np.array_equal(grid, fresh) and grid.shape == (m, 361)
        assert _grid_steering(m) is grid and not grid.flags.writeable

    def test_steering_unit_magnitude(self):
        sv = _sv(8, 0.7)
        assert np.allclose(np.abs(sv), 1.0)
        assert sv[0] == pytest.approx(1.0)

    def test_lcmv_rejects_close_angles(self):
        x = np.zeros((8, 64), dtype=complex)
        w, resolved = separate_spatial(_cov(x), [0.0, np.deg2rad(2.0)])
        assert not resolved and w.shape == (8, 2) and np.isnan(w).all()


class TestCovariancePath:
    """MUSIC and LCMV read the one array covariance: the smoothing taken from
    its blocks matches per-subarray Grams, and LCMV on it is bit-identical to
    LCMV forming the Gram itself."""

    @pytest.mark.parametrize("kind", ["coherent", "sign_flipped", "independent"])
    @pytest.mark.parametrize("m", [3, 4, 8])
    def test_block_smoothing_matches_subarray_grams(self, monkeypatch, m, kind):
        rng = np.random.default_rng([m, len(kind)])
        for _ in range(20):
            x, _ = _two_source_snapshot(m, kind, rng)
            cov = _cov(x)
            ref = _smoothed_by_subarrays(x)
            got = _fb_smoothed(cov)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
            if m == 3:
                # a 2-element subarray has no noise subspace beside two sources
                with pytest.raises(ReceiverError):
                    estimate_aoa(cov, 2)
                continue
            angles = estimate_aoa(cov, 2)
            # MUSIC on the reference: the same estimator fed the reference matrix
            with monkeypatch.context() as patch:
                patch.setattr(receiver, "_fb_smoothed", lambda _cov: ref)
                assert np.array_equal(angles, estimate_aoa(cov, 2))

    @pytest.mark.parametrize("kind", ["coherent", "sign_flipped", "independent"])
    @pytest.mark.parametrize("m", [3, 4, 8])
    def test_lcmv_on_passed_covariance_is_bit_identical(self, m, kind):
        rng = np.random.default_rng([m, len(kind), 1])
        for _ in range(5):
            x, aoas = _two_source_snapshot(m, kind, rng)
            w, resolved = separate_spatial(_cov(x), aoas)
            ref_out, ref_w = _lcmv_forming_gram(x, aoas)
            assert resolved and np.array_equal(w, ref_w)
            assert np.array_equal(w.conj().T @ x, ref_out)


class TestStackedSpatial:
    """MUSIC and LCMV on a (k, m, m) stack of covariances give each matrix
    the bits of the call on that matrix alone, and of the one-matrix
    reference; an unresolved pair in the stack leaves the others as they are."""

    @staticmethod
    def _covs(m, rng, k=7):
        kinds = ["coherent", "sign_flipped", "independent"]
        return np.array([_cov(_two_source_snapshot(m, kinds[i % 3], rng, n=512)[0])
                         for i in range(k)])

    @pytest.mark.parametrize("m", [4, 5, 8])
    def test_music_stack_matches_each_matrix(self, m):
        rng = np.random.default_rng([m, 2])
        covs = self._covs(m, rng)
        got = estimate_aoa(covs, 2)
        assert got.shape == (covs.shape[0], 2)
        for cov, angles in zip(covs, got):
            assert np.array_equal(angles, estimate_aoa(cov, 2))
            assert np.array_equal(angles, _music_reference(cov, 2))
        # any leading shape, one angle row per matrix
        grid = estimate_aoa(covs[:6].reshape(2, 3, m, m), 2)
        assert np.array_equal(grid, got[:6].reshape(2, 3, 2))

    @pytest.mark.parametrize("m", [4, 5, 8])
    def test_lcmv_stack_matches_each_matrix(self, m):
        rng = np.random.default_rng([m, 3])
        covs = self._covs(m, rng)
        aoas = estimate_aoa(covs, 2)
        aoas[3] = [0.1, 0.1 + np.deg2rad(4.5)]  # under the resolution limit
        w, resolved = separate_spatial(covs, aoas)
        assert w.shape == (covs.shape[0], m, 2)
        assert resolved.tolist() == [i != 3 for i in range(covs.shape[0])]
        assert np.isnan(w[3]).all()
        for i in np.flatnonzero(resolved):
            one, ok = separate_spatial(covs[i], aoas[i])
            assert ok and np.array_equal(w[i], one)
            assert np.array_equal(w[i], _lcmv_reference(covs[i], aoas[i]))


class TestTemporalPartition:
    def test_fraction(self):
        burst, frac = partition_temporal(4096, 2048)
        assert burst == 2048
        assert frac == pytest.approx(0.5)

    def test_zero_tau_raises(self):
        with pytest.raises(ReceiverError):
            partition_temporal(4096, 0)


class TestClassification:
    def _streams(self, model, rng, n=2048, snr_db=15.0):
        x = _qpsk(n, rng)
        jam = jammer_transform(model, x, rng)
        jam = jam / np.sqrt(np.mean(np.abs(jam) ** 2))
        sigma = np.sqrt(10 ** (-snr_db / 10.0) / 2.0)
        noise = lambda: sigma * (rng.normal(size=n) + 1j * rng.normal(size=n))
        return x + noise(), jam + noise(), x[:64]

    def test_similarity_high_for_drfm(self):
        rng = np.random.default_rng(8)
        legit, jam, pilot = self._streams(JammerModel.DRFM, rng)
        nv = 10 ** (-1.5)
        le, nv_le = equalize_stream(legit, pilot, nv)
        je, _ = equalize_stream(jam, pilot, nv)
        sim = similarity_ratio(je, le, 2000, nv_le)
        assert sim > 0.95

    def test_similarity_low_for_ps(self):
        rng = np.random.default_rng(9)
        legit, jam, pilot = self._streams(JammerModel.PS, rng)
        nv = 10 ** (-1.5)
        le, nv_le = equalize_stream(legit, pilot, nv)
        je, _ = equalize_stream(jam, pilot, nv)
        sim = similarity_ratio(je, le, 2000, nv_le)
        assert sim < 0.5

    def test_threshold_rules(self):
        thr = ClassifierThresholds(0.93, 0.25)
        psk = ModScheme(Family.PSK, 4)
        ask = ModScheme(Family.ASK, 4)
        high, low = 0.95, 0.1
        assert classify_jammer(high, 0.0, thr, psk) == JammerClass.DRFM
        assert classify_jammer(low, 0.5, thr, psk) == JammerClass.PS
        assert classify_jammer(low, 0.5, thr, ask) == JammerClass.AS
        assert classify_jammer(low, 0.05, thr, psk) == JammerClass.UNKNOWN

    def test_pilot_anomaly_fraction(self):
        ref = np.ones(8, dtype=complex)
        jam = ref.copy()
        jam[:4] = -1.0
        assert pilot_anomaly_fraction(jam, ref) == pytest.approx(0.5)
        with pytest.raises(ReceiverError):
            pilot_anomaly_fraction(np.ones(3), np.ones(4))

    def test_equalize_removes_gain(self):
        rng = np.random.default_rng(10)
        x = _qpsk(1024, rng)
        g = 3.0 * np.exp(1j * 0.7)
        eq, nv = equalize_stream(g * x, x[:64], 0.0)
        assert np.mean(np.abs(eq - x) ** 2) < 1e-3
        assert nv == 0.0
        # a noisy stream's post-equalization noise variance is the input
        # variance over the debiased signal power
        eq, nv = equalize_stream(g * x + 0.1, x[:64], 0.5)
        power = np.mean(np.abs(g * x + 0.1) ** 2) - 0.5
        assert nv == pytest.approx(0.5 / power)
