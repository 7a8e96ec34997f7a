"""Jammer transform tests."""

import numpy as np
import pytest

from risjam.jammer import JammerModel, jammer_transform


def _qpsk(n, rng):
    return np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, n)))


class TestTransforms:
    def test_drfm_is_scaled_replica(self):
        """DRFM replays x unchanged and draws nothing; its power and its onset
        are set by the caller."""
        rng = np.random.default_rng(1)
        x = _qpsk(128, rng)
        state = rng.bit_generator.state
        out = jammer_transform(JammerModel.DRFM, x, rng)
        assert np.array_equal(out, x)
        assert rng.bit_generator.state == state

    def test_ps_signs_only(self):
        rng = np.random.default_rng(2)
        x = _qpsk(512, rng)
        out = jammer_transform(JammerModel.PS, x, rng)
        ratio = out / x
        assert np.allclose(np.abs(ratio), 1.0)
        signs = np.sign(ratio.real)
        assert set(np.unique(signs)) == {-1.0, 1.0}

    def test_ps_draws_the_signs_of_choice(self):
        x = _qpsk(1001, np.random.default_rng(6))
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        out = jammer_transform(JammerModel.PS, x, rng)
        assert np.array_equal(out, x * ref.choice([1.0, -1.0], size=x.size))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_as_amplitudes_in_range(self):
        rng = np.random.default_rng(3)
        x = _qpsk(2048, rng)
        out = jammer_transform(JammerModel.AS, x, rng)
        ratio = np.abs(out / x)
        assert ratio.min() >= 0.0
        assert ratio.max() <= 2.0
        assert np.mean(ratio) == pytest.approx(1.0, abs=0.1)

    def test_rejects_bad_spec(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="empty input sequence"):
            jammer_transform(JammerModel.PS, np.array([]), rng)

