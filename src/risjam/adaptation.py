"""Link adaptation: SNR combining, analytic AWGN error curves, modulation
remapping per jammer class, Reed-Solomon code selection through the residual
symbol-error criterion, and throughput/JSR metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .receiver import JammerClass
from .waveform import DEFAULT_RS_TABLE, ORDERS, Family, ModScheme, RsCode


class AdaptationError(ValueError):
    pass


_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _q(x):
    """Gaussian tail Q(x) = erfc(x / sqrt(2)) / 2, elementwise."""
    z = np.asarray(x, dtype=float) / np.sqrt(2.0)
    # a 0-d input gives a Python float, an array input an object array
    return 0.5 * np.asarray(_ERFC(z), dtype=float)


def snr_jamming(gamma_e: float, gamma_j: float) -> float:
    """Two-hop jamming SNR: gamma_e*gamma_j / (gamma_e + gamma_j + 1)."""
    if gamma_e < 0 or gamma_j < 0:
        raise AdaptationError("SNRs must be non-negative")
    return gamma_e * gamma_j / (gamma_e + gamma_j + 1.0)


# ---------------------------------------------------------------------------
# analytic AWGN error curves (symbol SNR, unit average symbol energy)
# ---------------------------------------------------------------------------


def ser_awgn(family: Family, order, snr) -> np.ndarray | float:
    """Approximate symbol error rate on AWGN at linear symbol SNR,
    broadcast over `order` and `snr`; a float when both are scalars."""
    snr = np.asarray(snr, dtype=float)
    m = np.asarray(order)
    if family == Family.PSK:
        # sin(pi/2) is exactly 1: BPSK is Q(sqrt(2 snr)) with coefficient 1
        ser = np.where(m == 2, 1.0, 2.0) * _q(np.sqrt(2.0 * snr) * np.sin(np.pi / m))
    elif family == Family.ASK:
        # positive levels c*{1..M}, adjacent spacing c
        c = np.sqrt(6.0 / ((m + 1) * (2 * m + 1)))
        ser = 2.0 * (m - 1) / m * _q(c * np.sqrt(snr / 2.0))
    else:
        # an mi x mq grid; mq = 1 (order 2) zeroes the quadrature term
        mi = 1 << ((np.log2(m).astype(int) + 1) // 2)
        mq = m // mi
        q = _q(np.sqrt(3.0 / (mi * mi + mq * mq - 2.0)) * np.sqrt(2.0 * snr))
        pi = 2.0 * (1 - 1.0 / mi) * q
        pq = 2.0 * (1 - 1.0 / mq) * q
        ser = 1.0 - (1.0 - pi) * (1.0 - pq)
    out = np.minimum(ser, 1.0)
    return float(out) if out.ndim == 0 else out


def ber_awgn(family: Family, order, snr) -> np.ndarray | float:
    """Gray-coded bit error rate (SER spread over log2(order) bits)."""
    return ser_awgn(family, order, snr) / np.log2(order)


_GL_NODES, _GL_WEIGHTS = leggauss(48)
_AS_V = np.minimum(_GL_NODES + 1.0, 1.0)  # U[0,2] factor, limiter-capped at 1
_AS_W = _GL_WEIGHTS / 2.0


def effective_ber(
    jammer_class: JammerClass | None,
    family: Family,
    order,
    snr_l: float,
    snr_j: float,
) -> np.ndarray | float:
    """Post-separation BER when the jam replica is combined with the legit
    stream, broadcast over `order`; a float for a scalar order.

    DRFM replays coherently, so powers add. The AS factor V ~ U[0, 2] scales
    the replica per symbol; the combiner input is limiter-capped at the
    nominal amplitude, so the per-symbol SNR is snr_l + min(v, 1)^2 * snr_j,
    averaged over V by quadrature. PS sign flips are folded out by the
    positive-real ASK constellation, leaving full power. An unclassified
    jammer contributes nothing.
    """
    if jammer_class == JammerClass.AS:
        snr, weights = snr_l + _AS_V**2 * snr_j, _AS_W
    elif jammer_class in (None, JammerClass.UNKNOWN):
        snr, weights = snr_l, 1.0
    else:
        snr, weights = snr_l + snr_j, 1.0
    # orders down the first axis, quadrature nodes (or one SNR) along the last
    ber = np.sum(weights * ber_awgn(family, np.asarray(order)[..., None], snr), axis=-1)
    return float(ber) if ber.ndim == 0 else ber


def remap_modulation(jammer_class: JammerClass | None, family: Family) -> Family:
    """AS pushes to PSK (amplitude-free), PS to ASK (fold-correctable),
    DRFM, Unknown and no class keep the current family."""
    if jammer_class == JammerClass.AS:
        return Family.PSK
    if jammer_class == JammerClass.PS:
        return Family.ASK
    return family


@dataclass(frozen=True)
class AdaptationDecision:
    scheme: ModScheme
    code: RsCode
    compliant: bool


def residual_symbol_error(ser: float, code: RsCode) -> float:
    """P_res = (n*SER - t) / n; negative when the code absorbs the errors."""
    return (code.n * ser - code.t) / code.n


@lru_cache(maxsize=None)
def code_table(fixed_rate: float | None) -> tuple[RsCode, ...]:
    """The codes link adaptation may pick, by falling rate: the whole table,
    or with `fixed_rate` set only the code of that rate."""
    if fixed_rate is None:
        return DEFAULT_RS_TABLE
    matches = tuple(c for c in DEFAULT_RS_TABLE if abs(c.rate - fixed_rate) < 5e-3)
    if not matches:
        raise AdaptationError(f"no table code with rate {fixed_rate}")
    return matches


# Calls repeat, a fifth to two fifths of a perfbench sweep's: under pinned
# SNR the jam-free baseline sees a handful of snr_l values, a cell with no
# class adapts through the baseline's own entry (its snr_j passed as 0.0,
# which the no-class curve ignores), and on one link draw the jammers at one
# JSR share snr_j, as do clamped cells
@lru_cache(maxsize=256)
def select_link(
    jammer_class: JammerClass | None,
    snr_l: float,
    snr_j: float,
    base_family: Family,
    delta: float,
    fixed_rate: float | None,
    max_order: int,
) -> AdaptationDecision:
    """Pick the compliant (order, code) pair with the highest spectral
    efficiency rate*log2(order) within the remapped family; ties go to the
    higher order. With none compliant, the order-2 decision stands. One
    `effective_ber` call gives the BER of every order up to `max_order`, and
    only the winning decision is built.

    With `fixed_rate` set, only that single code is on the table (fixed-rate
    operating mode); the modulation order still adapts. A pure function of
    its arguments, memoised: a repeated call returns the same decision.
    """
    if delta >= 0:
        raise AdaptationError("delta must be negative")
    family = remap_modulation(jammer_class, base_family)
    table = code_table(fixed_rate)
    orders = [order for order in ORDERS if order <= max_order]
    bers = effective_ber(jammer_class, family, np.array(orders), snr_l, snr_j)
    picks = []  # (spectral efficiency, order, code) of each order with a code
    for order, ber in zip(orders, bers.tolist()):
        bits = order.bit_length() - 1
        ser = 1.0 - (1.0 - ber) ** bits  # modulation-symbol error rate
        # the code rule: the highest-rate code whose residual is at most delta
        for code in table:
            if residual_symbol_error(ser, code) <= delta:
                picks.append((code.rate * bits, order, code))
                break
    if not picks:
        return AdaptationDecision(ModScheme(family, orders[0]), table[-1], False)
    _, order, code = max(picks, key=lambda p: p[:2])
    return AdaptationDecision(ModScheme(family, order), code, True)


def throughput(
    bandwidth: float,
    code: RsCode,
    scheme: ModScheme,
    payload_fraction: float = 1.0,
) -> float:
    """T = B * R_c * log2(order) * payload_fraction."""
    if not 0.0 < payload_fraction <= 1.0:
        raise AdaptationError(f"payload_fraction out of (0, 1]: {payload_fraction}")
    return bandwidth * code.rate * np.log2(scheme.order) * payload_fraction


def jsr_db(p_j: float, p_l: float) -> float:
    """JSR = 10 log10(P_J) - 10 log10(P_L)."""
    if p_j <= 0 or p_l <= 0:
        raise AdaptationError("powers must be positive")
    return 10.0 * np.log10(p_j) - 10.0 * np.log10(p_l)


def dbm_to_watt(p_dbm: float) -> float:
    return 10.0 ** (p_dbm / 10.0) / 1000.0
