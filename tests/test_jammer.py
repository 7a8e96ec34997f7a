"""Jammer transform tests."""

import numpy as np
import pytest

from risjam.jammer import JammerError, JammerModel, jammer_transform


def _qpsk(n, rng):
    return np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, n)))


class TestTransforms:
    def test_drfm_is_scaled_replica(self):
        """DRFM replays x delayed and unchanged; its power is set by the caller."""
        rng = np.random.default_rng(1)
        x = _qpsk(128, rng)
        out = jammer_transform(JammerModel.DRFM, x, 10, rng)
        assert out.size == 138
        assert np.array_equal(out[:10], np.zeros(10))
        assert np.array_equal(out[10:], x)

    def test_ps_signs_only(self):
        rng = np.random.default_rng(2)
        x = _qpsk(512, rng)
        out = jammer_transform(JammerModel.PS, x, 0, rng)
        ratio = out / x
        assert np.allclose(np.abs(ratio), 1.0)
        signs = np.sign(ratio.real)
        assert set(np.unique(signs)) == {-1.0, 1.0}

    def test_as_amplitudes_in_range(self):
        rng = np.random.default_rng(3)
        x = _qpsk(2048, rng)
        out = jammer_transform(JammerModel.AS, x, 0, rng)
        ratio = np.abs(out / x)
        assert ratio.min() >= 0.0
        assert ratio.max() <= 2.0
        assert np.mean(ratio) == pytest.approx(1.0, abs=0.1)

    def test_rejects_bad_spec(self):
        rng = np.random.default_rng(5)
        with pytest.raises(JammerError):
            jammer_transform(JammerModel.PS, _qpsk(8, rng), -1, rng)
        with pytest.raises(JammerError):
            jammer_transform(JammerModel.PS, np.array([]), 0, rng)

