"""Shared test helpers."""

import numpy as np


def measure_ber(tx_bits, rx_bits) -> float:
    """Fraction of positions where two equal-length bit sequences differ."""
    tx, rx = np.asarray(tx_bits), np.asarray(rx_bits)
    assert tx.shape == rx.shape, "bit sequences differ in length"
    return float(np.mean(tx != rx))
