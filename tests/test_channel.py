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
    optimize_phases,
    path_loss,
    _rayleigh_vector,
    sample_realization,
    sample_ris_jammer,
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
    """The real square root of the exponential correlation, as computed before
    the root was held complex."""
    idx = np.arange(m)
    entries = np.exp(-corr_rate * np.abs(idx[:, None] - idx[None, :]))
    vals, vecs = np.linalg.eigh(entries)
    vals = np.clip(vals, 0.0, None)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    return 0.5 * (root + root.T)


class TestComplexRoot:
    @pytest.mark.parametrize("m", [1, 3, 64, 512])
    def test_holds_the_real_root_exactly(self, m):
        root = build_correlation(RisLinkConfig(element_count=m, corr_rate=0.05)).sqrt_form
        assert root.dtype == np.complex128
        assert np.all(root.imag == 0.0)
        assert np.array_equal(root.real, real_root(m, 0.05))


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
        roots = (
            (build_correlation(RisLinkConfig(element_count=m)), real_root(m, 0.05)),
            (CorrelationMatrix(entries=np.eye(m), sqrt_form=np.eye(m)), np.eye(m)),
        )
        for corr, root in roots:
            for _ in range(5):
                h_sr = rng.normal(size=m) + 1j * rng.normal(size=m)
                h_rd = rng.normal(size=m) + 1j * rng.normal(size=m)
                phi, h, u = aligned_cascade(h_sr, h_rd, corr)
                ref_phi = optimize_phases(h_sr, h_rd, corr)
                assert np.array_equal(phi.phases, ref_phi.phases)
                assert h == cascaded_coefficient(h_sr, h_rd, corr, ref_phi)
                # u is h_sr's projection: another outgoing vector's cascade
                # under phi needs only its own
                h_rj = rng.normal(size=m) + 1j * rng.normal(size=m)
                assert np.array_equal(u, h_sr @ corr.sqrt_form)
                want = cascaded_coefficient(h_sr, h_rj, corr, phi)
                assert cascade(u, corr.sqrt_form @ h_rj, phi) == want
                # the same bits as the two-pass products on the real root
                u, v = h_sr @ root, root @ h_rd
                old_phi = PhaseMatrix(phases=-np.angle(u * v))
                assert np.array_equal(phi.phases, old_phi.phases)
                assert h == complex(h_sr @ root @ (old_phi.diagonal * (root @ h_rd)))


class TestRealization:
    def test_shapes_and_scales(self):
        rng = np.random.default_rng(5)
        cfg = RisLinkConfig(element_count=64)
        h_sr, h_rd = sample_realization(cfg, rng)
        assert h_sr.shape == h_rd.shape == (64,)
        assert sample_ris_jammer(cfg, h_rd, 0.0, rng).shape == (64,)
        mean_sr = np.mean(
            [np.mean(np.abs(sample_realization(cfg, rng)[0]) ** 2) for _ in range(200)]
        )
        assert mean_sr == pytest.approx(path_loss(18.0, 2.7), rel=0.1)

    def test_eaves_correlation(self):
        rng = np.random.default_rng(5)
        cfg = RisLinkConfig(element_count=256)
        rho_est = []
        for _ in range(50):
            h_rd = sample_realization(cfg, rng)[1]
            h_rj = sample_ris_jammer(cfg, h_rd, 0.9, rng)
            a = h_rd / np.sqrt(np.mean(np.abs(h_rd) ** 2))
            b = h_rj / np.sqrt(np.mean(np.abs(h_rj) ** 2))
            rho_est.append(abs(np.vdot(a, b)) / a.size)
        assert np.mean(rho_est) > 0.8

    @pytest.mark.parametrize("m", [1, 3, 64, 512])
    def test_rj_blend_ends_are_exact(self, m):
        """h_rj = sqrt(c) h_rd + sqrt(1 - c) h_ind bit for bit at both ends of
        c: at c = 0 it is the one vector it draws, at c = 1 it is h_rd."""
        cfg = RisLinkConfig(element_count=m)
        a_rd = np.sqrt(path_loss(cfg.d_rd, cfg.path_loss_exp))
        for seed in range(20):
            h_rd = sample_realization(cfg, np.random.default_rng([seed, 1]))[1]
            drawn = _rayleigh_vector(m, a_rd, np.random.default_rng(seed))
            h_rj = sample_ris_jammer(cfg, h_rd, 0.0, np.random.default_rng(seed))
            assert np.array_equal(h_rj.view(np.uint64), drawn.view(np.uint64))
            h_rj = sample_ris_jammer(cfg, h_rd, 1.0, np.random.default_rng(seed))
            assert np.array_equal(h_rj.view(np.uint64), h_rd.view(np.uint64))
