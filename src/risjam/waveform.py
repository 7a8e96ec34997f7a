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
            raise ValueError(f"unsupported order {self.order}")

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1  # log2 of a power of two

    def __str__(self) -> str:
        return f"{self.family.value}{self.order}"


def _gray(n):
    return n ^ (n >> 1)


def qam_grid(order):
    """The rectangular QAM grid of each order M, broadcast over an array of
    orders: (mi, mq) = (2^ceil(log2(M) / 2), M / mi) in-phase by quadrature
    levels; mq is 1 at order 2."""
    m = np.asarray(order)
    mi = 1 << ((np.log2(m).astype(int) + 1) // 2)
    return mi, m // mi


@lru_cache(maxsize=None)
def constellation(family: Family, order: int) -> np.ndarray:
    """Complex points indexed by data value; Gray-adjacent in signal space.

    The point at position p (on the PSK ring, the ASK level axis or each QAM
    axis) carries the data value whose bits are p's Gray code.
    """
    m = order
    pos = np.arange(m)
    pts = np.zeros(m, dtype=complex)
    if family == Family.PSK:
        pts[_gray(pos)] = np.exp(2j * np.pi * pos / m)
    elif family == Family.ASK:
        pts[_gray(pos)] = np.arange(1, m + 1, dtype=float)
    else:  # rectangular QAM, Gray per axis: the I data value sits above the Q one
        mi, mq = qam_grid(m)
        pi, pq = np.arange(mi), np.arange(mq)
        li = pi * 2.0 - (mi - 1)
        lq = pq * 2.0 - (mq - 1)
        pts[(_gray(pi)[:, None] * mq + _gray(pq)).ravel()] = (li[:, None] + 1j * lq).ravel()
    return pts / np.sqrt(np.mean(np.abs(pts) ** 2))


def modulate(bits: np.ndarray, scheme: ModScheme) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint8)
    k = scheme.bits_per_symbol
    if bits.size % k:
        raise ValueError(f"bit count {bits.size} not divisible by {k}")
    # each symbol's index, its first bit the most significant, by shifts
    cols = bits.reshape(-1, k)
    idx = cols[:, 0].astype(np.intp)
    for j in range(1, k):
        idx <<= 1
        idx |= cols[:, j]
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

# exp table: one period doubled so log sums need no reduction, then a zero
# tail that any sum involving _LOG_ZERO lands in
_GF_EXP = np.zeros(1024, dtype=np.int64)
_GF_LOG = np.zeros(256, dtype=np.int64)
_x = 1
for _i in range(255):
    _GF_EXP[_i] = _x
    _GF_LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= 0x11D
_GF_EXP[255:510] = _GF_EXP[:255]
_LOG_ZERO = 512  # stands in for the undefined log of zero


# Python-int copies for the scalar arithmetic of Berlekamp-Massey
_EXP_LIST = _GF_EXP.tolist()
_LOG_LIST = _GF_LOG.tolist()


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP_LIST[_LOG_LIST[a] + _LOG_LIST[b]]


def _gf_inv(a: int) -> int:
    return _EXP_LIST[255 - _LOG_LIST[a]]


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] ^= _gf_mul(a, b)
    return out


@dataclass(frozen=True)
class RsCode:
    """(n, k) Reed-Solomon code over GF(256); corrects t = (n-k)//2 symbols."""

    n: int
    k: int

    def __post_init__(self):
        if not 0 < self.k < self.n <= 255:
            raise ValueError(f"invalid RS parameters ({self.n},{self.k})")

    @property
    def t(self) -> int:
        return (self.n - self.k) // 2

    @property
    def rate(self) -> float:
        return self.k / self.n


# default adaptation table, by falling rate: the order the code rule tries
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
def _positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per position i of an n-symbol word: the degree n-1-i of its
    coefficient, and log X^-1 for its locator X = alpha^(n-1-i)."""
    deg = n - 1 - np.arange(n)
    x_log = (255 - deg) % 255
    deg.flags.writeable = x_log.flags.writeable = False
    return deg, x_log


@lru_cache(maxsize=None)
def _syndrome_powers(n: int, nsym: int) -> np.ndarray:
    # generator roots are alpha^0..alpha^{nsym-1}: powers[j, i] = (i * j) mod 255
    i = np.arange(n)
    j = np.arange(nsym)
    return (j[:, None] * i[None, :]) % 255


def _syndromes(word: np.ndarray, nsym: int) -> np.ndarray:
    """S_j = c(alpha^j), j = 0..nsym-1."""
    nz = word != 0
    deg = _positions(word.size)[0][nz]
    powers = (_syndrome_powers(word.size, nsym)[:, deg] + _GF_LOG[word[nz]]) % 255
    return np.bitwise_xor.reduce(_GF_EXP[powers], axis=1)


def _eval_at(poly, x_log: np.ndarray) -> np.ndarray:
    """Values of poly (lowest degree first) at the points alpha^x_log."""
    p = np.asarray(poly, dtype=np.int64)
    j = np.flatnonzero(p)
    terms = _GF_EXP[(_GF_LOG[p[j]][:, None] + j[:, None] * x_log[None, :]) % 255]
    return np.bitwise_xor.reduce(terms, axis=0)


@lru_cache(maxsize=None)
def _parity_log(n: int, k: int) -> np.ndarray:
    """k x (n-k) logs of the parity rows P_i = x^(n-1-i) mod g, highest degree
    first; zero entries hold _LOG_ZERO.

    Row k-1 is x^(n-k) mod g, and each earlier row is x times the next one
    mod g: one LFSR step apiece.
    """
    def logs(poly):
        return np.where(poly != 0, _GF_LOG[poly], _LOG_ZERO)

    nsym = n - k
    gen = np.asarray(_generator_poly(nsym)[1:], dtype=np.int64)
    gen_log = logs(gen)
    rows = np.zeros((k, nsym), dtype=np.int64)
    row = gen
    rows[k - 1] = row
    for i in range(k - 2, -1, -1):
        coef = row[0]
        row = np.append(row[1:], 0)
        if coef:
            row ^= _GF_EXP[gen_log + _GF_LOG[coef]]
        rows[i] = row
    table = logs(rows)
    table.flags.writeable = False
    return table


def rs_encode(data_symbols: np.ndarray, code: RsCode) -> np.ndarray:
    """Systematic encode: returns n symbols (data followed by parity).

    RS is linear, so the parity is the XOR of d_i * P_i over the data bytes.
    """
    data = np.asarray(data_symbols, dtype=np.int64)
    if data.size != code.k:
        raise ValueError(f"expected {code.k} data symbols, got {data.size}")
    nz = data != 0
    terms = _GF_EXP[_parity_log(code.n, code.k)[nz] + _GF_LOG[data[nz]][:, None]]
    return np.concatenate([data, np.bitwise_xor.reduce(terms, axis=0)])


@dataclass(frozen=True)
class RsDecodeResult:
    data: np.ndarray
    failure: bool
    corrected: int


def rs_decode(block: np.ndarray, code: RsCode) -> RsDecodeResult:
    """Correct up to t symbol errors; sets `failure` when decoding breaks down."""
    recv = np.asarray(block, dtype=np.int64)
    if recv.size != code.n:
        raise ValueError(f"expected {code.n} code symbols, got {recv.size}")
    nsym = code.n - code.k

    # syndromes, with positions indexed from the highest-degree coefficient
    # (position i has degree n-1-i)
    synd = _syndromes(recv, nsym)
    if not synd.any():
        return RsDecodeResult(recv[: code.k].copy(), False, 0)

    # Berlekamp-Massey for the error locator (lowest degree first)
    exp, log = _EXP_LIST, _LOG_LIST
    s = synd.tolist()
    c_poly = [1]
    b_poly = [1]
    L, m_gap, b_coef = 0, 1, 1
    for i in range(nsym):
        delta = s[i]
        for j in range(1, min(L + 1, len(c_poly))):
            if c_poly[j] and s[i - j]:
                delta ^= exp[log[c_poly[j]] + log[s[i - j]]]
        if delta == 0:
            m_gap += 1
            continue
        scale_log = log[_gf_mul(delta, _gf_inv(b_coef))]
        shifted = [0] * m_gap + [exp[scale_log + log[x]] if x else 0 for x in b_poly]
        if 2 * L <= i:
            t_poly = c_poly[:]
            c_poly = [a ^ b for a, b in zip(c_poly + [0] * (len(shifted) - len(c_poly)), shifted)]
            L, b_poly, b_coef, m_gap = i + 1 - L, t_poly, delta, 1
        else:
            if len(shifted) > len(c_poly):
                c_poly = c_poly + [0] * (len(shifted) - len(c_poly))
            for j, x in enumerate(shifted):
                c_poly[j] ^= x
            m_gap += 1

    if L > code.t:
        return RsDecodeResult(recv[: code.k].copy(), True, 0)

    # Chien search: evaluate the locator at X^{-1} for X = alpha^{n-1-pos},
    # vectorized over all positions
    deg, x_log = _positions(code.n)
    err_pos = np.flatnonzero(_eval_at(c_poly, x_log) == 0)
    if err_pos.size != L:
        return RsDecodeResult(recv[: code.k].copy(), True, 0)

    # Forney: omega = synd * locator mod x^nsym (both lowest degree first),
    # evaluated with the locator's formal derivative at every X_i^{-1}
    c_arr = np.asarray(c_poly, dtype=np.int64)
    ci, sj = np.flatnonzero(c_arr), np.flatnonzero(synd)
    prod_deg = ci[:, None] + sj[None, :]
    keep = prod_deg < nsym
    prod = _GF_EXP[_GF_LOG[c_arr[ci]][:, None] + _GF_LOG[synd[sj]][None, :]]
    omega = np.zeros(nsym, dtype=np.int64)
    np.bitwise_xor.at(omega, prod_deg[keep], prod[keep])
    deriv = [c_poly[j] if j % 2 == 1 else 0 for j in range(1, len(c_poly))]
    num = _eval_at(omega, x_log[err_pos])
    den = _eval_at(deriv, x_log[err_pos])
    if (den == 0).any():
        return RsDecodeResult(recv[: code.k].copy(), True, 0)
    # first consecutive root is alpha^0, so the error value carries an
    # extra factor X_i
    mag_log = (deg[err_pos] + _GF_LOG[num] + 255 - _GF_LOG[den]) % 255
    fixed = recv.copy()
    fixed[err_pos] ^= np.where(num != 0, _GF_EXP[mag_log], 0)

    # verify by recomputing syndromes on the corrected word
    if _syndromes(fixed, nsym).any():
        return RsDecodeResult(recv[: code.k].copy(), True, 0)
    return RsDecodeResult(fixed[: code.k], False, len(err_pos))
