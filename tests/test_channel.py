"""Channel model tests: path loss, correlation structure, Rician statistics,
and the cascaded coefficient against a brute-force triple sum."""

import numpy as np
import pytest

from risjam.channel import (
    ConfigError,
    CorrelationMatrix,
    PhaseMatrix,
    RicianParams,
    RisLinkConfig,
    aligned_cascade,
    build_correlation,
    cascade,
    cascaded_coefficient,
    correlation_factor,
    optimize_phases,
    path_loss,
    ris_jammer_projection,
    sample_realization,
    sample_rician,
)


def brute_force_cascade(h_in, h_out, sqrt_form, phases):
    """Independent oracle: explicit triple sum over (a, k, l)."""
    m = len(phases)
    total = 0.0 + 0.0j
    for a in range(m):
        for k in range(m):
            for ell in range(m):
                total += (
                    h_in[k]
                    * sqrt_form[k, a]
                    * np.exp(1j * phases[a])
                    * sqrt_form[a, ell]
                    * h_out[ell]
                )
    return total


class TestPathLoss:
    def test_known_values(self):
        assert path_loss(1.0, 2.7) == pytest.approx(1.0)
        assert path_loss(18.0, 2.7) == pytest.approx(18.0**-2.7, rel=1e-12)
        assert path_loss(7.0, 2.7) == pytest.approx(7.0**-2.7, rel=1e-12)

    def test_monotone_in_distance(self):
        d = np.linspace(1.0, 50.0, 20)
        vals = [path_loss(x, 2.7) for x in d]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigError, match="distance must be positive"):
            path_loss(0.0, 2.7)
        with pytest.raises(ConfigError, match="path loss exponent must be positive"):
            path_loss(1.0, -1.0)
        with pytest.raises(ConfigError, match="out of float range"):
            path_loss(1e-200, 2.7)  # overflows
        with pytest.raises(ConfigError, match="out of float range"):
            path_loss(1e200, 2.7)  # underflows to zero


class TestCorrelation:
    def test_exponential_entries(self):
        cfg = RisLinkConfig(element_count=8, corr_rate=0.05)
        corr = build_correlation(cfg)
        assert corr.entries[0, 0] == pytest.approx(1.0)
        assert corr.entries[0, 3] == pytest.approx(np.exp(-0.15), rel=1e-12)
        assert np.allclose(corr.entries, corr.entries.T)

    def test_sqrt_squares_back(self):
        for m in (1, 4, 32, 64):
            corr = build_correlation(RisLinkConfig(element_count=m, corr_rate=0.05))
            assert np.allclose(corr.sqrt_form @ corr.sqrt_form, corr.entries, atol=1e-9)

    def test_identity_at_zero_rate(self):
        corr = build_correlation(RisLinkConfig(element_count=6, corr_rate=0.0))
        assert np.allclose(corr.entries, np.ones((6, 6)))

    def test_psd(self):
        corr = build_correlation(RisLinkConfig(element_count=64, corr_rate=0.05))
        vals = np.linalg.eigvalsh(corr.entries)
        assert vals.min() > -1e-10


def real_root(m, corr_rate):
    """The symmetric square root of the exponential correlation, as computed
    when the run path read it."""
    idx = np.arange(m)
    entries = np.exp(-corr_rate * np.abs(idx[:, None] - idx[None, :]))
    vals, vecs = np.linalg.eigh(entries)
    vals = np.clip(vals, 0.0, None)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    return 0.5 * (root + root.T)


class TestRoot:
    @pytest.mark.parametrize("m", [1, 3, 64, 512])
    def test_holds_the_real_root_exactly(self, m):
        root = build_correlation(RisLinkConfig(element_count=m, corr_rate=0.05)).sqrt_form
        assert root.dtype == np.float64
        assert np.array_equal(root, real_root(m, 0.05))


RATES = (0.0, 0.05, 0.3, 2.0)


class TestCorrelationFactor:
    """The run path's closed-form factor L of R, and the surface draw a L z."""

    @pytest.mark.parametrize("m", [1, 4, 64, 512])
    @pytest.mark.parametrize("rate", RATES)
    def test_squares_to_the_entries(self, m, rate):
        factor = correlation_factor(m, rate)
        entries = build_correlation(RisLinkConfig(element_count=m, corr_rate=rate)).entries
        assert factor.dtype == np.float64 and not factor.flags.writeable
        assert np.array_equal(np.triu(factor, 1), np.zeros((m, m)))
        assert np.allclose(factor @ factor.T, entries, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("rate", RATES)
    def test_nests_bit_for_bit(self, rate):
        big = correlation_factor(512, rate)
        for m in (1, 2, 4, 63, 64, 256, 511):
            assert np.array_equal(correlation_factor(m, rate), big[:m, :m])

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("rate", RATES)
    def test_surface_draw_nests(self, count, rate):
        """The draw at M is the first M entries of the draw at 2M from equal
        generator states. Its normals and L nest bit for bit; BLAS sums the
        product in an order that depends on M, so the draw nests to rounding."""
        for m in (1, 4, 64, 256):
            for seed in range(3):
                small, large = (
                    sample_realization(RisLinkConfig(element_count=n, corr_rate=rate),
                                       np.random.default_rng(seed), count)
                    for n in (m, 2 * m)
                )
                assert small.shape == (count, m)
                np.testing.assert_allclose(small, large[:, :m], rtol=1e-13, atol=1e-16)

    def test_law_matches_the_symmetric_root_draw(self):
        """u, v and the RIS->jammer projection v_rj have the law that i.i.d.
        vectors drawn through the symmetric root give: over their amplitudes,
        circular with covariance kron(mix, R), where mix couples v and v_rj by
        sqrt(eaves_corr) alone."""
        rng = np.random.default_rng(8)
        m, n, c = 6, 20_000, 0.6
        cfg = RisLinkConfig(element_count=m, corr_rate=0.3)
        corr = build_correlation(cfg)
        amp = np.sqrt([path_loss(cfg.d_sr, 2.7)] + 2 * [path_loss(cfg.d_rd, 2.7)])
        drawn = np.array([sample_realization(cfg, rng, 3) for _ in range(n)])
        h = (rng.standard_normal((n, 3, m)) + 1j * rng.standard_normal((n, 3, m))) / np.sqrt(2)
        ref = amp[:, None] * h @ corr.sqrt_form
        mix = np.array([[1, 0, 0], [0, 1, np.sqrt(c)], [0, np.sqrt(c), 1]])
        want = np.kron(mix, corr.entries)
        for x in (drawn, ref):
            x[:, 2] = ris_jammer_projection(x[:, 1], x[:, 2], c)
            flat = (x / amp[:, None]).reshape(n, 3 * m)
            assert np.abs(flat.T @ flat.conj() / n - want).max() < 0.05
            assert np.abs(flat.T @ flat / n).max() < 0.05


class TestRician:
    def test_rayleigh_limit_power(self):
        rng = np.random.default_rng(7)
        p = RicianParams(rician_k=0.0, path_count=1)
        draws = np.array([sample_rician(p, rng) for _ in range(20000)])
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_strong_los_concentrates(self):
        rng = np.random.default_rng(7)
        p = RicianParams(rician_k=50.0)
        amps = np.abs([sample_rician(p, rng) for _ in range(2000)])
        assert np.std(amps) < 0.2

    def test_rejects_negative_k(self):
        with pytest.raises(ConfigError, match="rician_k must be >= 0"):
            RicianParams(rician_k=-1.0)


class TestCascade:
    def test_matches_triple_sum(self):
        rng = np.random.default_rng(3)
        for m in (1, 2, 4, 8):
            cfg = RisLinkConfig(element_count=m, corr_rate=rng.uniform(0.0, 0.3))
            corr = build_correlation(cfg)
            h_in = rng.normal(size=m) + 1j * rng.normal(size=m)
            h_out = rng.normal(size=m) + 1j * rng.normal(size=m)
            phi = PhaseMatrix(phases=rng.uniform(0, 2 * np.pi, m))
            fast = cascaded_coefficient(h_in, h_out, corr, phi)
            slow = brute_force_cascade(h_in, h_out, corr.sqrt_form, phi.phases)
            assert abs(fast - slow) <= 1e-9 * abs(slow)

    def test_shape_mismatch_raises(self):
        corr = build_correlation(RisLinkConfig(element_count=4))
        phi = PhaseMatrix(phases=np.zeros(4))
        with pytest.raises(ValueError, match="length mismatch"):
            cascaded_coefficient(np.ones(3), np.ones(4), corr, phi)


class TestOptimizePhases:
    def test_achieves_coherent_sum(self):
        rng = np.random.default_rng(11)
        m = 16
        corr = build_correlation(RisLinkConfig(element_count=m, corr_rate=0.05))
        h_sr = rng.normal(size=m) + 1j * rng.normal(size=m)
        h_rd = rng.normal(size=m) + 1j * rng.normal(size=m)
        phi = optimize_phases(h_sr, h_rd, corr)
        u = h_sr @ corr.sqrt_form
        v = corr.sqrt_form @ h_rd
        best = np.sum(np.abs(u * v))
        got = abs(cascaded_coefficient(h_sr, h_rd, corr, phi))
        assert got == pytest.approx(best, rel=1e-10)

    def test_beats_random_phases(self):
        rng = np.random.default_rng(13)
        m = 32
        corr = build_correlation(RisLinkConfig(element_count=m))
        h_sr = rng.normal(size=m) + 1j * rng.normal(size=m)
        h_rd = rng.normal(size=m) + 1j * rng.normal(size=m)
        opt = abs(cascaded_coefficient(h_sr, h_rd, corr, optimize_phases(h_sr, h_rd, corr)))
        for _ in range(10):
            rand = PhaseMatrix(phases=rng.uniform(0, 2 * np.pi, m))
            assert opt >= abs(cascaded_coefficient(h_sr, h_rd, corr, rand))


class TestAlignedCascade:
    @pytest.mark.parametrize("m", [1, 3, 64, 512])
    def test_matches_optimize_then_cascade(self, m):
        rng = np.random.default_rng(m)
        for corr in (
            build_correlation(RisLinkConfig(element_count=m)),
            CorrelationMatrix(entries=np.eye(m), sqrt_form=np.eye(m)),
        ):
            for _ in range(5):
                h_sr = rng.normal(size=m) + 1j * rng.normal(size=m)
                h_rd = rng.normal(size=m) + 1j * rng.normal(size=m)
                root = corr.sqrt_form
                phi, h = aligned_cascade(h_sr @ root, root @ h_rd)
                ref_phi = optimize_phases(h_sr, h_rd, corr)
                assert np.array_equal(phi.phases, ref_phi.phases)
                assert h == cascaded_coefficient(h_sr, h_rd, corr, ref_phi)
                # another outgoing vector's cascade under phi needs only its
                # own projection
                h_rj = rng.normal(size=m) + 1j * rng.normal(size=m)
                want = cascaded_coefficient(h_sr, h_rj, corr, phi)
                assert cascade(h_sr @ root, root @ h_rj, phi) == want


class TestRealization:
    def test_shapes_and_scales(self):
        rng = np.random.default_rng(5)
        cfg = RisLinkConfig(element_count=64)
        assert sample_realization(cfg, rng).shape == (2, 64)
        assert sample_realization(cfg, rng, 3).shape == (3, 64)
        power = np.mean([np.abs(sample_realization(cfg, rng, 3)) ** 2 for _ in range(200)],
                        axis=(0, 2))
        want = [path_loss(18.0, 2.7)] + 2 * [path_loss(7.0, 2.7)]
        assert power == pytest.approx(want, rel=0.1)

    def test_eaves_correlation(self):
        rng = np.random.default_rng(5)
        cfg = RisLinkConfig(element_count=256)
        rho_est = []
        for _ in range(50):
            _, v, v_ind = sample_realization(cfg, rng, 3)
            v_rj = ris_jammer_projection(v, v_ind, 0.9)
            a = v / np.sqrt(np.mean(np.abs(v) ** 2))
            b = v_rj / np.sqrt(np.mean(np.abs(v_rj) ** 2))
            rho_est.append(abs(np.vdot(a, b)) / a.size)
        assert np.mean(rho_est) > 0.8

    @pytest.mark.parametrize("m", [1, 3, 64, 512])
    def test_rj_blend_ends_are_exact(self, m):
        """sqrt(c) v + sqrt(1 - c) v_ind bit for bit at both ends of c: at
        c = 0 it is v_ind, at c = 1 it is v."""
        cfg = RisLinkConfig(element_count=m)
        for seed in range(20):
            _, v, v_ind = sample_realization(cfg, np.random.default_rng(seed), 3)
            for c, want in ((0.0, v_ind), (1.0, v)):
                assert ris_jammer_projection(v, v_ind, c).tobytes() == want.tobytes()
