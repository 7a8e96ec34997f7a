"""Reactive jammer transforms (DRFM / phase-shift / amplitude-shift) and the
two eavesdropping topologies."""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class JammerSpec:
    model: JammerModel
    delay_samples: int

    def __post_init__(self):
        if self.delay_samples < 0:
            raise JammerError("delay_samples must be non-negative")


def jammer_transform(
    spec: JammerSpec,
    x: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Apply the per-class waveform manipulation and the path delay.

    Output length is len(x) + delay_samples, zero-padded at the head. DRFM
    replays x unchanged (the transmit power scales it afterwards); the PS/AS
    random factors are drawn once per modulation symbol.
    """
    x = np.asarray(x, dtype=complex)
    if x.size == 0:
        raise JammerError("empty input sequence")
    if spec.model == JammerModel.DRFM:
        shaped = x
    elif spec.model == JammerModel.PS:
        shaped = x * rng.choice([1.0, -1.0], size=x.size)
    else:
        shaped = x * rng.uniform(0.0, 2.0, size=x.size)
    return np.concatenate([np.zeros(spec.delay_samples, dtype=complex), shaped])
