"""Reactive jammer transforms (DRFM / phase-shift / amplitude-shift) and the
two eavesdropping topologies."""

from __future__ import annotations

from enum import Enum

import numpy as np


class JammerModel(str, Enum):
    DRFM = "drfm"
    PS = "ps"
    AS = "as"


class PathTopology(str, Enum):
    SOURCE_AWARE = "source_aware"
    RIS_AWARE = "ris_aware"


_SIGNS = np.array([1.0, -1.0])
_SIGNS.flags.writeable = False


def jammer_transform(model: JammerModel, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply the per-class waveform manipulation to the symbols x.

    DRFM returns x itself (the transmit power scales it afterwards); the
    PS/AS random factors are drawn once per modulation symbol of x. Where the
    replica lands in a frame, and how much of it does, is the caller's to
    decide.
    """
    x = np.asarray(x, dtype=complex)
    if x.size == 0:
        raise ValueError("empty input sequence")
    if model == JammerModel.DRFM:
        return x
    if model == JammerModel.PS:
        # the draws of rng.choice([1.0, -1.0], x.size), without its dispatch
        return x * _SIGNS[rng.integers(0, 2, x.size)]
    return x * rng.uniform(0.0, 2.0, size=x.size)
