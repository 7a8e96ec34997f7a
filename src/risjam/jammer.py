"""Reactive jammer transforms (DRFM / phase-shift / amplitude-shift) and the
two eavesdropping topologies."""

from __future__ import annotations

from enum import Enum

import numpy as np


class JammerError(ValueError):
    pass


class JammerModel(str, Enum):
    DRFM = "drfm"
    PS = "ps"
    AS = "as"


class PathTopology(str, Enum):
    SOURCE_AWARE = "source_aware"
    RIS_AWARE = "ris_aware"


def jammer_transform(
    model: JammerModel,
    x: np.ndarray,
    delay_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Apply the per-class waveform manipulation and the path delay.

    Output length is len(x) + delay_samples, zero-padded at the head. DRFM
    replays x unchanged (the transmit power scales it afterwards); the PS/AS
    random factors are drawn once per modulation symbol.
    """
    if delay_samples < 0:
        raise JammerError("delay_samples must be non-negative")
    x = np.asarray(x, dtype=complex)
    if x.size == 0:
        raise JammerError("empty input sequence")
    if model == JammerModel.DRFM:
        shaped = x
    elif model == JammerModel.PS:
        shaped = x * rng.choice([1.0, -1.0], size=x.size)
    else:
        shaped = x * rng.uniform(0.0, 2.0, size=x.size)
    return np.concatenate([np.zeros(delay_samples, dtype=complex), shaped])
