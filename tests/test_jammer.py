"""Jammer transform tests."""

import numpy as np
import pytest

from risjam.jammer import JammerError, JammerModel, JammerSpec, jammer_transform


def _qpsk(n, rng):
    return np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, n)))


class TestTransforms:
    def test_drfm_is_scaled_replica(self):
        """DRFM replays x delayed and unchanged; its power is set by the caller."""
        rng = np.random.default_rng(1)
        x = _qpsk(128, rng)
        spec = JammerSpec(model=JammerModel.DRFM, delay_samples=10)
        out = jammer_transform(spec, x, rng)
        assert out.size == 138
        assert np.array_equal(out[:10], np.zeros(10))
        assert np.array_equal(out[10:], x)

    def test_ps_signs_only(self):
        rng = np.random.default_rng(2)
        x = _qpsk(512, rng)
        spec = JammerSpec(model=JammerModel.PS, delay_samples=0)
        out = jammer_transform(spec, x, rng)
        ratio = out / x
        assert np.allclose(np.abs(ratio), 1.0)
        signs = np.sign(ratio.real)
        assert set(np.unique(signs)) == {-1.0, 1.0}

    def test_as_amplitudes_in_range(self):
        rng = np.random.default_rng(3)
        x = _qpsk(2048, rng)
        spec = JammerSpec(model=JammerModel.AS, delay_samples=0)
        out = jammer_transform(spec, x, rng)
        ratio = np.abs(out / x)
        assert ratio.min() >= 0.0
        assert ratio.max() <= 2.0
        assert np.mean(ratio) == pytest.approx(1.0, abs=0.1)

    def test_rejects_bad_spec(self):
        with pytest.raises(JammerError):
            JammerSpec(model=JammerModel.PS, delay_samples=-1)
        rng = np.random.default_rng(5)
        with pytest.raises(JammerError):
            jammer_transform(
                JammerSpec(model=JammerModel.PS, delay_samples=0),
                np.array([]), rng,
            )

