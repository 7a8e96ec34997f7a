"""Receiver-side defenses: cross-correlation delay estimation, change-point
onset, AoA estimation with forward-backward spatial smoothing, LCMV
separation, temporal partitioning, and jammer classification.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

import numpy as np

from .waveform import Family


@lru_cache(maxsize=None)
def _fast_len(n: int) -> int:
    """Smallest length >= n with no prime factor above 11; numpy's FFT runs
    fast at such lengths."""
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _correlate_with_first(rows: np.ndarray) -> np.ndarray:
    """The circular correlations c[k, m] = sum_n rows[k, n] * conj(rs[n - m])
    of every row k of the 2-D `rows` against its first row rs, the index taken
    mod nfft = rows.shape[-1], in a new buffer of rows' shape.

    With each row's signal in its first n samples and nfft >= n + gamma_max,
    no lag in -gamma_max..gamma_max wraps: lag -gamma_max reads
    rs[nfft - gamma_max + n], past the end of rs, and the positive lags stay
    within n samples. R(tau) then sits at index -tau mod nfft: lags
    -gamma_max..0 are c[gamma_max] down to c[0], lags 1..gamma_max are
    c[nfft - 1] down to c[nfft - gamma_max].
    """
    spec = np.fft.fft(rows)
    spec *= spec[0].conj()
    return np.fft.ifft(spec)


def cross_correlate(y, y_ref, f_max: int, gamma_max: int) -> np.ndarray:
    """Sliding inner product R(tau) = sum_{n<f_max} y[n] * conj(y_ref[n+tau]).

    Out-of-range reference indices contribute zero. Returns R at the lags
    -gamma_max..gamma_max, in order.
    """
    y = np.asarray(y, dtype=complex)
    y_ref = np.asarray(y_ref, dtype=complex)
    if y.size < f_max or y_ref.size < f_max:
        raise ValueError("sequences shorter than f_max")
    if not 0 <= gamma_max < f_max:
        raise ValueError(f"gamma_max {gamma_max} must lie in [0, f_max {f_max})")
    rs = y_ref[: f_max + gamma_max]
    nfft = _fast_len(rs.size + gamma_max)
    rows = np.zeros((2, nfft), dtype=complex)
    rows[0, : rs.size] = rs
    rows[1, :f_max] = y[:f_max]
    c = _correlate_with_first(rows)[1]
    return np.concatenate([c[gamma_max::-1], c[: nfft - gamma_max - 1 : -1]])


def estimate_delay(values: np.ndarray) -> int:
    """Lag of the maximum magnitude of a `cross_correlate` result, whose 2g + 1
    values run over the lags -g..g; ties go to the smallest |tau|."""
    mags = np.abs(values)
    peak = mags.max()
    if peak == 0.0:
        raise ValueError("correlation is identically zero")
    cand = np.flatnonzero(mags >= peak * (1 - 1e-12)) - (mags.size - 1) // 2
    return min(cand.tolist(), key=lambda t: (abs(t), t))


@lru_cache(maxsize=8)
def _onset_grid(n: int, guard: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only candidate split indices i = guard..n-guard-1 of an n-sample
    sequence, the sample counts n - i after them, both as floats (exact, and
    no cast per call), and their generalized-likelihood weights
    sqrt(i (n - i)) / n."""
    idx = np.arange(guard, n - guard)
    grid = (idx.astype(float), (n - idx).astype(float), np.sqrt(idx * (n - idx)) / n)
    for a in grid:
        a.flags.writeable = False
    return grid


_NO_HEAD = np.zeros(1)
_NO_HEAD.flags.writeable = False


def power_sums(y, head: np.ndarray = _NO_HEAD) -> np.ndarray:
    """The n + 1 running sums [0, |y[0]|^2, |y[0]|^2 + |y[1]|^2, ...] of the
    power of an n-sample y, added in sample order.

    `head` holds the first k of them, taken once for frames that share their
    first k - 1 samples (`power_sums(y[:k - 1])`); only the rest of y is then
    added, on from head's last sum. The sums run in order, so the result is
    the whole frame's bit for bit.
    """
    y = np.asarray(y, dtype=complex)
    k = head.size
    c = np.empty(y.size + 1)
    c[:k] = head
    p = np.abs(y[k - 1 :]) ** 2
    p[:1] += head[-1]
    np.cumsum(p, out=c[k:])
    return c


def estimate_onset(y, guard: int, head: np.ndarray = _NO_HEAD) -> tuple[int, float]:
    """Change-point estimate of where extra power switches on.

    Splits the received power sequence at every candidate index at least
    `guard` samples from either edge and maximizes the after-minus-before
    mean difference. This works for any jammer class, including
    sign-flipping ones that leave no cross-correlation peak. `head` is the
    `power_sums` of a jam-free prefix y shares with other frames.
    Returns (onset index, relative power jump).
    """
    n = np.size(y)
    if n < 2 * guard + 2:
        raise ValueError("sequence too short for onset estimation")
    c = power_sums(y, head)
    # generalized-likelihood weighting keeps short edge segments, whose means
    # are dominated by noise, from winning the argmax
    idx, rest, weight = _onset_grid(n, guard)
    sums = c[guard : n - guard]
    before = sums / idx
    after = (c[-1] - sums) / rest
    k = int(np.argmax((after - before) * weight))
    base = max(before[k], 1e-30)
    return guard + k, float((after[k] - before[k]) / base)


# ---------------------------------------------------------------------------
# spatial processing
# ---------------------------------------------------------------------------

_AOA_GRID_DEG = 0.5  # MUSIC spectrum grid step
_MIN_SEPARATION_RAD = np.deg2rad(5.0)  # LCMV resolution limit
_SOURCES = 2  # the legit signal plus the jammer's replica
_DIAGONAL_LOADING = 1e-3  # LCMV covariance loading, relative to mean power


def _steering(m: int, aoa) -> np.ndarray:
    """Steering vectors of an m-element half-wavelength array: (..., m, n)
    for (..., n) angles, (m, 1) for one angle; element 0 is exactly 1."""
    i = np.arange(m)[:, None]
    return np.exp(-1j * np.pi * (i * np.sin(np.atleast_1d(aoa))[..., None, :]))


_AOA_GRID = np.deg2rad(np.arange(-90.0, 90.0 + _AOA_GRID_DEG, _AOA_GRID_DEG))
_AOA_GRID.flags.writeable = False


@lru_cache(maxsize=8)
def _grid_steering(m: int) -> np.ndarray:
    """Read-only steering matrix of an m-element array over the MUSIC grid."""
    a = _steering(m, _AOA_GRID)
    a.flags.writeable = False
    return a


def _fb_smoothed(cov: np.ndarray) -> np.ndarray:
    """Forward-backward smoothing over the two (m-1)-element subarrays, whose
    covariances are cov's leading and trailing blocks; the backward term
    J r* J (J the exchange matrix) is r* with both indices reversed. Works on
    each matrix of a (..., m, m) stack."""
    r = 0.5 * (cov[..., :-1, :-1] + cov[..., 1:, 1:])
    return 0.5 * (r + r[..., ::-1, ::-1].conj())


def estimate_aoa(cov: np.ndarray) -> np.ndarray:
    """MUSIC on the m x m array covariance `cov`, forward-backward smoothed.

    Smoothing with two forward subarrays plus the conjugate-flipped covariance
    decorrelates one coherent replica, which is exactly the DRFM situation.
    A (..., m, m) stack of covariances gives (..., _SOURCES) angles, each
    row sorted and equal to the call on that one matrix.
    """
    msub = cov.shape[-1] - 1
    # the smoothed subarray needs a noise subspace beside the sources
    if msub <= _SOURCES:
        raise ValueError(f"need more subarray elements ({msub}) than sources ({_SOURCES})")
    _, vecs = np.linalg.eigh(_fb_smoothed(cov))
    noise_space = vecs[..., : msub - _SOURCES]
    proj = noise_space.conj().swapaxes(-1, -2) @ _grid_steering(msub)
    spectra = 1.0 / np.maximum(np.sum(np.abs(proj) ** 2, axis=-2), 1e-15)
    aoas = [_music_peaks(s) for s in spectra.reshape(-1, _AOA_GRID.size)]
    return np.reshape(aoas, spectra.shape[:-1] + (_SOURCES,))


def _music_peaks(spectrum: np.ndarray) -> np.ndarray:
    """The sorted grid angles of a MUSIC spectrum's _SOURCES highest
    peaks, or of its highest values when it has fewer peaks."""
    peaks = _local_maxima(spectrum)
    if peaks.size < _SOURCES:
        # fall back to the largest grid values
        peaks = np.arange(spectrum.size)
    return np.sort(_AOA_GRID[peaks[np.argsort(spectrum[peaks])[::-1][:_SOURCES]]])


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the interior local maxima of x, in order.

    A maximum is a run of equal samples with a lower sample on each side; a
    flat top reports its middle sample, rounding down. These are the peaks
    scipy.signal.find_peaks(x) finds with no conditions.
    """
    edges = np.flatnonzero(x[1:] != x[:-1]) + 1
    starts = np.concatenate(([0], edges))
    ends = np.concatenate((edges, [x.size])) - 1
    runs = x[starts]
    top = (runs[1:-1] > runs[:-2]) & (runs[1:-1] > runs[2:])
    return (starts[1:-1][top] + ends[1:-1][top]) // 2


def separate_spatial(cov, aoas) -> tuple[np.ndarray, np.ndarray]:
    """LCMV beamformers: unit gain toward each AoA, a null toward the other.

    `cov` is an m x m array covariance, or a (..., m, m) stack, and `aoas`
    its (..., 2) angles. Returns (weights, resolved): column k of each m x 2
    weight matrix is the beamformer steered at aoas[..., k], and `resolved`
    is False where the two angles lie closer than the resolution limit,
    whose weights are NaN. Weights w give the outputs w^H x of a snapshot x.
    """
    m = cov.shape[-1]
    aoas = np.asarray(aoas, dtype=float)
    if aoas.shape[-1] != _SOURCES:
        raise ValueError(f"exactly {_SOURCES} angles expected")
    resolved = np.abs(aoas[..., 0] - aoas[..., 1]) >= _MIN_SEPARATION_RAD
    w = np.full(aoas.shape[:-1] + (m, 2), np.nan, dtype=complex)
    cov, c = cov[resolved], _steering(m, aoas[resolved])
    load = _DIAGONAL_LOADING * np.trace(cov, axis1=-2, axis2=-1).real / m
    rinv_c = np.linalg.solve(cov + load[:, None, None] * np.eye(m), c)
    # column k: unit gain to aoas[k]
    w[resolved] = rinv_c @ np.linalg.inv(c.conj().swapaxes(-1, -2) @ rinv_c)
    return w, resolved


def partition_temporal(frame_len: int, tau_hat: int) -> tuple[int, float]:
    """Shorten the burst, sent from the frame start, so the replica lands in
    a disjoint slot.

    Returns (burst_len, payload_fraction).
    """
    if tau_hat <= 0:
        raise ValueError("no temporal separation possible for tau_hat <= 0")
    burst = min(int(tau_hat), int(frame_len))
    return burst, burst / frame_len


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _similarity_rows(jam, legit, gamma: int) -> np.ndarray:
    """The two correlations the similarity ratio compares, as the rows of one
    (2, nfft) circular buffer in `_correlate_with_first`'s layout (lag tau at
    index -tau mod nfft, lags -gamma..gamma free of wrap-around): row 0
    correlates legit[:n - 1] and row 1 jam[:n - 1] of the two n-sample streams
    against the reference rs = legit, in the `cross_correlate` convention.

    Four transforms, not five: with F = FFT(rs), the jam row is the inverse
    of FFT(jam) F*, and the legit row that of F F* (the autocorrelation of all
    of rs, Wiener-Khinchin) less the lag products of the one rs sample past
    n - 1, which legit[:n - 1] leaves out. With gamma = (n - 1) // 2 the
    transforms are about 1.5 n long (3072 at n = 2048), not the 2 n of a full
    linear correlation.
    """
    n = legit.size
    buf = np.zeros((2, _fast_len(n + gamma)), dtype=complex)
    buf[0, :n] = legit
    buf[1, : n - 1] = jam[: n - 1]
    rows = _correlate_with_first(buf)
    # the tail sample contributes rs[n - 1] conj(rs[n - 1 + tau]) at the lags
    # -gamma..0, where n - 1 + tau stays in range (n - 1 > gamma); lag -j
    # sits at index j
    tail = legit[n - 1] * legit[n - 1 - gamma : n].conj()
    rows[0, : gamma + 1] -= tail[::-1]
    return rows


def similarity_ratio(jam_est, legit_est, legit_noise_var: float) -> float:
    """Sim = max|R_jy| / max|R_yy| with both peaks normalized by f_max.

    The two streams share one length n; each is correlated over its first
    f_max = n - 1 samples against all of the legit one. The legitimate
    autocorrelation peak at lag 0 carries the stream's own noise power on
    top of the signal energy; `legit_noise_var` (the legit stream's noise
    variance) is subtracted there so the ratio compares signal against
    signal. Cross terms in R_jy average out on their own. The ratio is read
    at the streams' own scale: scaling the jam stream by a scales it by |a|,
    and scaling the legit stream and its noise variance by b (|b|^2) scales
    it by 1 / |b|.
    """
    jam_est = np.asarray(jam_est, dtype=complex)
    legit_est = np.asarray(legit_est, dtype=complex)
    if jam_est.size != legit_est.size or legit_est.size < 3:
        # f_max = n - 1 below 2 leaves no lag window of +-1
        raise ValueError(f"need two streams of one length n >= 3, got "
                            f"{jam_est.size} and {legit_est.size}")
    f_max = legit_est.size - 1
    gamma = f_max // 2
    rows = _similarity_rows(jam_est, legit_est, gamma)
    # magnitudes over the two lag spans alone: -gamma..0 at the head of the
    # buffer (lag 0 first), 1..gamma at its tail
    near = np.abs(rows[:, : gamma + 1])
    far = np.abs(rows[:, rows.shape[1] - gamma :])
    near[0, 0] = max(near[0, 0] - legit_noise_var * f_max, 0.0)
    sc_max = float(max(near[0].max(), far[0].max())) / f_max
    if sc_max == 0.0:
        raise ValueError("zero-energy legitimate estimate")
    return float(max(near[1].max(), far[1].max())) / f_max / sc_max


class JammerClass(str, Enum):
    DRFM = "drfm"
    PS = "ps"
    AS = "as"
    UNKNOWN = "unknown"


def classify_jammer(
    sim: float,
    pilot_inversions: float,
    sim_threshold: float,
    inversion_threshold: float,
    family: Family,
) -> JammerClass:
    """Threshold rule: a high similarity ratio means DRFM; otherwise a high
    pilot anomaly fraction means PS under a phase-bearing family and AS under
    an amplitude-bearing one (QAM carries both, so it stays Unknown). `sim`
    is the `similarity_ratio` of the separated pair and `family` that of the
    active scheme."""
    if sim >= sim_threshold:
        return JammerClass.DRFM
    if pilot_inversions >= inversion_threshold:
        if family == Family.PSK:
            return JammerClass.PS
        if family == Family.ASK:
            return JammerClass.AS
    return JammerClass.UNKNOWN


def pilot_anomaly_fraction(jam_pilot_syms, ref_pilot_syms) -> float:
    """Fraction of channel-equalized pilot symbols too far from the reference.

    A symbol counts as anomalous when its deviation from the expected pilot
    point exceeds half the unit-energy symbol scale, which catches both
    180-degree inversions (PS) and amplitude excursions (AS).
    """
    jam = np.asarray(jam_pilot_syms, dtype=complex)
    ref = np.asarray(ref_pilot_syms, dtype=complex)
    if jam.shape != ref.shape or jam.size == 0:
        raise ValueError("pilot sequences must match and be non-empty")
    anomalous = np.abs(jam - ref) > 0.5
    return np.count_nonzero(anomalous) / anomalous.size


def mean_power(s: np.ndarray) -> float:
    """Mean of |s|^2, bit for bit np.mean's, without its dispatch."""
    p = np.abs(s) ** 2
    return np.add.reduce(p) / p.size


def debiased_power(stream: np.ndarray, noise_var: float) -> float:
    """A separated stream's mean power less its noise variance, floored at a
    tenth of that variance (1e-30 with none): the floor keeps a near-noise
    stream from being amplified into a fake signal."""
    floor = 0.1 * noise_var if noise_var > 0.0 else 1e-30
    return max(mean_power(stream) - noise_var, floor)


def stream_gain(
    stream: np.ndarray,
    pilot_syms: np.ndarray,
    noise_var: float,
) -> tuple[complex, float]:
    """The complex channel gain of a separated stream and its noise-debiased
    power, whose root is the gain's magnitude.

    Phase comes from pilot least squares (the Gaussian ML estimate); the
    magnitude comes from a noise-debiased RMS over the whole stream, which is
    robust to the PS jammer's sign flips cancelling the pilot average.
    """
    stream = np.asarray(stream, dtype=complex)
    p = np.asarray(pilot_syms, dtype=complex)
    ls = np.vdot(p, stream[: p.size]) / np.vdot(p, p)
    power = debiased_power(stream, noise_var)
    return np.sqrt(power) * np.exp(1j * np.angle(ls)), power


def equalize_stream(
    stream: np.ndarray,
    pilot_syms: np.ndarray,
    noise_var: float,
) -> tuple[np.ndarray, float]:
    """Remove the `stream_gain` from a separated stream. Returns (equalized
    stream, its noise variance after the gain removal).

    Classification compares a pair at its own scale and equalizes only the
    jam's pilot span (`pipeline._classify`); this whole-stream form is the
    reference the tests hold that compare to.
    """
    stream = np.asarray(stream, dtype=complex)
    gain, power = stream_gain(stream, pilot_syms, noise_var)
    return stream / gain, noise_var / power
