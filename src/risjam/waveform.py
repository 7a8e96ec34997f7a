"""Bit/symbol pipeline: Gray-coded PSK/ASK/QAM mappers, Reed-Solomon coding
over GF(256), and BER/SER measurement.

All constellations are normalized to unit average symbol energy. ASK points
sit strictly on the positive real axis so that a 180-degree phase inversion
can be undone by folding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np


class WaveformError(ValueError):
    """Bad modulation/coding arguments."""


class Family(str, Enum):
    PSK = "psk"
    ASK = "ask"
    QAM = "qam"


ORDERS = (2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class ModScheme:
    family: Family
    order: int

    def __post_init__(self):
        if self.order not in ORDERS:
            raise WaveformError(f"unsupported order {self.order}")

    @property
    def bits_per_symbol(self) -> int:
        return int(np.log2(self.order))

    def __str__(self) -> str:
        return f"{self.family.value}{self.order}"


def _gray(n: int) -> int:
    return n ^ (n >> 1)


@lru_cache(maxsize=None)
def constellation(family: Family, order: int) -> np.ndarray:
    """Complex points indexed by data value; Gray-adjacent in signal space."""
    m = order
    if family == Family.PSK:
        pts = np.zeros(m, dtype=complex)
        for data in range(m):
            # place data value at the ring position whose Gray code equals it
            pos = next(p for p in range(m) if _gray(p) == data)
            pts[data] = np.exp(2j * np.pi * pos / m)
    elif family == Family.ASK:
        levels = np.arange(1, m + 1, dtype=float)
        pts = np.zeros(m, dtype=complex)
        for data in range(m):
            pos = next(p for p in range(m) if _gray(p) == data)
            pts[data] = levels[pos]
    else:  # rectangular QAM, Gray per axis
        mi = 1 << ((int(np.log2(m)) + 1) // 2)
        mq = m // mi
        bi = int(np.log2(mi))
        li = np.arange(mi) * 2.0 - (mi - 1)
        lq = np.arange(mq) * 2.0 - (mq - 1)
        pts = np.zeros(m, dtype=complex)
        for data in range(m):
            di, dq = data >> (int(np.log2(m)) - bi), data & (mq - 1)
            pi = next(p for p in range(mi) if _gray(p) == di)
            pq = next(p for p in range(mq) if _gray(p) == dq)
            pts[data] = li[pi] + 1j * lq[pq]
    return pts / np.sqrt(np.mean(np.abs(pts) ** 2))


def modulate(bits: np.ndarray, scheme: ModScheme) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint8)
    k = scheme.bits_per_symbol
    if bits.size % k:
        raise WaveformError(f"bit count {bits.size} not divisible by {k}")
    weights = 1 << np.arange(k - 1, -1, -1)
    idx = bits.reshape(-1, k) @ weights
    return constellation(scheme.family, scheme.order)[idx]


def demodulate(symbols: np.ndarray, scheme: ModScheme) -> np.ndarray:
    """Minimum-distance hard decisions back to bits."""
    pts = constellation(scheme.family, scheme.order)
    symbols = np.asarray(symbols, dtype=complex)
    idx = np.argmin(np.abs(symbols[:, None] - pts[None, :]), axis=1)
    k = scheme.bits_per_symbol
    out = ((idx[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)
    return out.ravel()


# ---------------------------------------------------------------------------
# Reed-Solomon over GF(2^8), primitive polynomial x^8+x^4+x^3+x^2+1 (0x11d)
# ---------------------------------------------------------------------------

_GF_EXP = np.zeros(512, dtype=np.int64)
_GF_LOG = np.zeros(256, dtype=np.int64)
_x = 1
for _i in range(255):
    _GF_EXP[_i] = _x
    _GF_LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= 0x11D
_GF_EXP[255:510] = _GF_EXP[:255]


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return int(_GF_EXP[_GF_LOG[a] + _GF_LOG[b]])


def _gf_inv(a: int) -> int:
    return int(_GF_EXP[255 - _GF_LOG[a]])


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] ^= _gf_mul(a, b)
    return out


def _poly_eval(poly: list[int], x: int) -> int:
    # poly listed highest degree first
    y = 0
    for c in poly:
        y = _gf_mul(y, x) ^ c
    return y


@dataclass(frozen=True)
class RsCode:
    """(n, k) Reed-Solomon code over GF(256); corrects t = (n-k)//2 symbols."""

    n: int
    k: int

    def __post_init__(self):
        if not 0 < self.k < self.n <= 255:
            raise WaveformError(f"invalid RS parameters ({self.n},{self.k})")

    @property
    def t(self) -> int:
        return (self.n - self.k) // 2

    @property
    def rate(self) -> float:
        return self.k / self.n


# default adaptation table, highest rate first
DEFAULT_RS_TABLE = (
    RsCode(255, 240),
    RsCode(255, 224),
    RsCode(255, 208),
    RsCode(255, 192),
    RsCode(255, 178),
)


@lru_cache(maxsize=None)
def _generator_poly(nsym: int) -> tuple[int, ...]:
    g = [1]
    for i in range(nsym):
        g = _poly_mul(g, [1, int(_GF_EXP[i])])
    return tuple(g)


@lru_cache(maxsize=None)
def _syndrome_powers(n: int, nsym: int) -> np.ndarray:
    # generator roots are alpha^0..alpha^{nsym-1}: powers[j, i] = (i * j) mod 255
    i = np.arange(n)
    j = np.arange(nsym)
    return (j[:, None] * i[None, :]) % 255


def rs_encode(data_symbols: np.ndarray, code: RsCode) -> np.ndarray:
    """Systematic encode: returns n symbols (data followed by parity)."""
    data = np.asarray(data_symbols, dtype=np.int64)
    if data.size != code.k:
        raise WaveformError(f"expected {code.k} data symbols, got {data.size}")
    nsym = code.n - code.k
    gen = np.asarray(_generator_poly(nsym), dtype=np.int64)
    gen_log = _GF_LOG[gen[1:]]
    gen_nz = gen[1:] != 0
    rem = np.zeros(nsym, dtype=np.int64)
    for d in data.tolist():
        coef = d ^ int(rem[0])
        rem[:-1] = rem[1:]
        rem[-1] = 0
        if coef:
            rem[gen_nz] ^= _GF_EXP[(gen_log[gen_nz] + _GF_LOG[coef]) % 255]
    return np.concatenate([data, rem])


@dataclass(frozen=True)
class RsDecodeResult:
    data: np.ndarray
    failure: bool
    corrected: int


def rs_decode(block: np.ndarray, code: RsCode) -> RsDecodeResult:
    """Correct up to t symbol errors; sets `failure` when decoding breaks down."""
    recv = np.asarray(block, dtype=np.int64)
    if recv.size != code.n:
        raise WaveformError(f"expected {code.n} code symbols, got {recv.size}")
    nsym = code.n - code.k

    # syndromes S_j = c(alpha^j), j = 1..nsym, with positions indexed from the
    # highest-degree coefficient (position i has degree n-1-i)
    deg = code.n - 1 - np.arange(code.n)
    nz = recv != 0
    if not nz.any():
        return RsDecodeResult(recv[: code.k].copy(), False, 0)
    powers = (_syndrome_powers(code.n, nsym)[:, deg[nz] % 255] + _GF_LOG[recv[nz]]) % 255
    synd = np.bitwise_xor.reduce(_GF_EXP[powers].astype(np.int64), axis=1)
    if not synd.any():
        return RsDecodeResult(recv[: code.k].copy(), False, 0)

    # Berlekamp-Massey for the error locator (lowest degree first)
    s = synd.tolist()
    c_poly = [1]
    b_poly = [1]
    L, m_gap, b_coef = 0, 1, 1
    for i in range(nsym):
        delta = s[i]
        for j in range(1, L + 1):
            if j < len(c_poly) and c_poly[j]:
                delta ^= _gf_mul(c_poly[j], s[i - j])
        if delta == 0:
            m_gap += 1
        elif 2 * L <= i:
            t_poly = c_poly[:]
            scale = _gf_mul(delta, _gf_inv(b_coef))
            shifted = [0] * m_gap + [_gf_mul(scale, x) for x in b_poly]
            c_poly = [a ^ b for a, b in zip(c_poly + [0] * (len(shifted) - len(c_poly)), shifted)]
            L, b_poly, b_coef, m_gap = i + 1 - L, t_poly, delta, 1
        else:
            scale = _gf_mul(delta, _gf_inv(b_coef))
            shifted = [0] * m_gap + [_gf_mul(scale, x) for x in b_poly]
            if len(shifted) > len(c_poly):
                c_poly = c_poly + [0] * (len(shifted) - len(c_poly))
            for j, x in enumerate(shifted):
                c_poly[j] ^= x
            m_gap += 1

    if L > code.t:
        return RsDecodeResult(recv[: code.k].copy(), True, 0)

    # Chien search: evaluate the locator at X^{-1} for X = alpha^{n-1-pos},
    # vectorized over all positions
    c_arr = np.asarray(c_poly, dtype=np.int64)
    c_nz = np.flatnonzero(c_arr)
    x_log = (255 - (code.n - 1 - np.arange(code.n)) % 255) % 255  # log of X^{-1}
    loc_terms = _GF_EXP[(_GF_LOG[c_arr[c_nz]][:, None] + c_nz[:, None] * x_log[None, :]) % 255]
    loc_vals = np.bitwise_xor.reduce(loc_terms.astype(np.int64), axis=0)
    err_pos = np.flatnonzero(loc_vals == 0)
    if err_pos.size != L:
        return RsDecodeResult(recv[: code.k].copy(), True, 0)

    # Forney: omega = synd * locator mod x^nsym  (synd lowest degree first)
    synd_poly = s[:]
    omega = [0] * nsym
    for i, a in enumerate(c_poly):
        if a:
            for j, b in enumerate(synd_poly):
                if b and i + j < nsym:
                    omega[i + j] ^= _gf_mul(a, b)
    deriv = [c_poly[j] if j % 2 == 1 else 0 for j in range(1, len(c_poly))]
    fixed = recv.copy()
    for pos in err_pos.tolist():
        x_log_pos = (code.n - 1 - pos) % 255
        x_inv = int(_GF_EXP[(255 - x_log_pos) % 255])
        num = _poly_eval(list(reversed(omega)), x_inv)
        den = _poly_eval(list(reversed(deriv)), x_inv)
        if den == 0:
            return RsDecodeResult(recv[: code.k].copy(), True, 0)
        # first consecutive root is alpha^0, so the error value carries an
        # extra factor X_i
        mag = _gf_mul(int(_GF_EXP[x_log_pos]), _gf_mul(num, _gf_inv(den)))
        fixed[pos] ^= mag

    # verify by recomputing syndromes on the corrected word
    nz = fixed != 0
    if nz.any():
        powers = (_syndrome_powers(code.n, nsym)[:, deg[nz] % 255] + _GF_LOG[fixed[nz]]) % 255
        if np.bitwise_xor.reduce(_GF_EXP[powers].astype(np.int64), axis=1).any():
            return RsDecodeResult(recv[: code.k].copy(), True, 0)
    return RsDecodeResult(fixed[: code.k], False, len(err_pos))


# ---------------------------------------------------------------------------
# error-rate helpers
# ---------------------------------------------------------------------------


def measure_ber(tx_bits: np.ndarray, rx_bits: np.ndarray) -> float:
    tx = np.asarray(tx_bits)
    rx = np.asarray(rx_bits)
    if tx.shape != rx.shape:
        raise WaveformError("bit sequences differ in length")
    if tx.size == 0:
        return 0.0
    return float(np.mean(tx != rx))
