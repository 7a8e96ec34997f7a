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


def jammer_transform(
    model: JammerModel, x: np.ndarray, rng: np.random.Generator, n: int | None = None
) -> np.ndarray:
    """Apply the per-class waveform manipulation to the symbols x; the first
    n manipulated symbols (all of them with n None).

    DRFM returns x itself (the transmit power scales it afterwards); the
    PS/AS random factors are drawn once per modulation symbol of x, also past
    the first n. Where the replica lands in a frame is the caller's to decide.
    """
    x = np.asarray(x, dtype=complex)
    if x.size == 0:
        raise ValueError("empty input sequence")
    if model == JammerModel.DRFM:
        return x[:n]
    if model == JammerModel.PS:
        # the draws of rng.choice([1.0, -1.0], x.size), without its dispatch
        return x[:n] * _SIGNS[rng.integers(0, 2, x.size)[:n]]
    return x[:n] * rng.uniform(0.0, 2.0, size=x.size)[:n]
