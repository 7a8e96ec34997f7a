"""End-to-end trial execution in two phases. `draw_link` makes the jam-free
part (channel draw, baseline link choice, framing, the received legit signal
plus noise); `run_cells` adds each cell's jammer to it and runs jammed
reception, detection, delay estimation, orthogonalization, classification
and adaptation, and `run_trial` is `run_cells` with one cell.

Waveform-level processing happens in receiver-normalized units (unit noise
variance), while the power bookkeeping (path loss, jammer power budget, the
two-hop jamming SNR) stays in watts.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import adaptation as ad
from . import channel as ch
from . import jammer as jm
from . import receiver as rx
from . import waveform as wf
from .channel import ConfigError


class OrthogonalityMode(str, Enum):
    SPATIAL = "spatial"
    TEMPORAL = "temporal"


class SnrMode(str, Enum):
    PINNED = "pinned"
    FADED = "faded"


# samples the power change-point keeps clear of each frame edge
_ONSET_GUARD = 2
# samples in a link draw's m x frame_len jam-free snapshot (m antennas under
# spatial orthogonality, else 1; the shipped configs hold 8 x 4096 at most)
MAX_SNAPSHOT_SAMPLES = 1 << 22


@dataclass(frozen=True)
class TrialSettings:
    """Everything one trial needs beyond the sweep coordinates."""

    link: ch.RisLinkConfig
    rician: ch.RicianParams
    topology: jm.PathTopology = jm.PathTopology.SOURCE_AWARE
    orthogonality: OrthogonalityMode = OrthogonalityMode.TEMPORAL
    frame_len: int = 4096
    pilot_len: int = 64
    jam_delay: int | None = None  # None -> frame_len // 2
    tx_power_dbm: float = 20.0
    jam_power_cap_dbm: float = 40.0
    eavesdrop_snr_db: float = 25.0
    eaves_corr: float = 0.5
    d_e1: float = 25.0
    d_j1: float = 7.0
    d_j2: float = 7.0
    baseline_snr_db: float = 7.0
    bandwidth_hz: float = 1.0
    base_family: wf.Family = wf.Family.PSK
    fixed_rate: float | None = None
    delta: float = -0.005
    max_order: int = 64
    antennas: int = 8
    sim_threshold: float = 0.93
    inversion_threshold: float = 0.25
    peak_significance: float = 0.15
    flip_threshold: float = 0.3  # stage-two PS/AS sign-balance split
    # PINNED holds the legit link at baseline_snr_db every trial (power
    # control); FADED uses the harness-calibrated fixed noise floor instead
    snr_mode: SnrMode = SnrMode.PINNED

    def __post_init__(self):
        ch.check_fields(self)
        if self.delta >= 0:
            raise ConfigError("delta must be negative")
        if self.pilot_len < 1:
            raise ConfigError(f"pilot_len must be >= 1, got {self.pilot_len}")
        if self.frame_len <= self.pilot_len:
            raise ConfigError(
                f"frame_len {self.frame_len} leaves no payload after "
                f"pilot_len {self.pilot_len}"
            )
        if self.frame_len < 2 * _ONSET_GUARD + 2:
            raise ConfigError(
                f"frame_len {self.frame_len} is too short for onset estimation"
            )
        if not 0 <= self.tau < self.frame_len:
            raise ConfigError(
                f"delay {self.tau} puts the replica outside the "
                f"{self.frame_len}-sample frame"
            )
        if self.max_order not in wf.ORDERS:
            raise ConfigError(f"max_order must be one of {wf.ORDERS}, got {self.max_order}")
        if not 0.0 <= self.eaves_corr <= 1.0:
            raise ConfigError(f"eaves_corr must lie in [0, 1], got {self.eaves_corr}")
        if not self.bandwidth_hz > 0.0:
            raise ConfigError(f"bandwidth_hz must be positive, got {self.bandwidth_hz}")
        for name in ("sim_threshold", "inversion_threshold"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        # the rules that would raise in the first trial, applied here
        ad.code_table(self.fixed_rate)
        for d in (self.d_e1, self.d_j1, self.d_j2):
            ch.path_loss(d, self.link.path_loss_exp)
        # the link budget in watts: each power a trial scales, and the noise
        # floors the two SNRs set from them, must be a normal float (+-4000
        # dBm, or a path loss exponent of 200, over- or underflows)
        link, dexp = self.link, self.link.path_loss_exp
        try:
            # mean legit power through one RIS element
            p_l = self.tx_watt * ch.path_loss(link.d_sr, dexp) * ch.path_loss(link.d_rd, dexp)
            budget = {
                "transmit power": self.tx_watt,
                "jammer power cap": self.jam_cap_watt,
                "mean legit received power": p_l,
                "mean eavesdropper power": self.eaves_watt,
                "destination noise floor": p_l / self.baseline_snr,
                "jammer noise floor": self.eaves_noise_watt,
            }
        except (OverflowError, ZeroDivisionError) as exc:
            raise ConfigError(f"link budget out of float range: {exc}") from exc
        for name, watts in budget.items():
            if not sys.float_info.min <= watts <= sys.float_info.max:
                raise ConfigError(f"{name} {watts:g} W is out of float range")
        # MUSIC resolves two sources on an (antennas - 1)-element subarray,
        # which needs one more element for its noise subspace
        if self.orthogonality == OrthogonalityMode.SPATIAL and self.antennas < 4:
            raise ConfigError(
                f"spatial orthogonality needs at least 4 antennas, got {self.antennas}"
            )
        m = self.antennas if self.orthogonality == OrthogonalityMode.SPATIAL else 1
        if m * self.frame_len > MAX_SNAPSHOT_SAMPLES:
            raise ConfigError(f"{m} x {self.frame_len} snapshot exceeds {MAX_SNAPSHOT_SAMPLES}")

    @property
    def tau(self) -> int:  # the replica onset in samples
        return self.jam_delay if self.jam_delay is not None else self.frame_len // 2

    # the link budget's powers in watts, one formula each
    @property
    def tx_watt(self) -> float:
        return ad.dbm_to_watt(self.tx_power_dbm)

    @property
    def jam_cap_watt(self) -> float:
        return ad.dbm_to_watt(self.jam_power_cap_dbm)

    @property
    def baseline_snr(self) -> float:  # a received power over this is its noise floor
        return 10.0 ** (self.baseline_snr_db / 10.0)

    @property
    def eaves_watt(self) -> float:  # mean source power at the jammer's receiver
        path_loss = ch.path_loss(self.d_e1, self.link.path_loss_exp)
        return self.tx_watt * path_loss * self.rician.path_count

    @property
    def eaves_noise_watt(self) -> float:  # pins the jammer's mean eavesdropping SNR
        return self.eaves_watt / 10.0 ** (self.eavesdrop_snr_db / 10.0)


@dataclass(frozen=True, slots=True)
class TrialResult:
    t_baseline: float
    t_jammed: float
    detected: bool
    jammer_class: rx.JammerClass | None
    classified_correct: bool
    tau_err: float  # |estimated - configured replica delay|; nan with no estimate
    scheme: wf.ModScheme
    code_rate: float
    payload_fraction: float
    clamped: bool


@lru_cache(maxsize=16)
def _pilot(scheme: wf.ModScheme, length: int) -> np.ndarray:
    """Deterministic pilot pattern shared by transmitter and receiver."""
    prng = np.random.default_rng(0xA5A5)
    bits = prng.integers(0, 2, length * scheme.bits_per_symbol).astype(np.uint8)
    syms = wf.modulate(bits, scheme)
    syms.flags.writeable = False
    return syms


def _noise(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance circular complex Gaussian noise."""
    # the real parts, then the imaginary parts: the draws, and the bits, of
    # two rng.normal(0, sqrt(0.5), n) calls, written into one buffer
    z = rng.standard_normal((2, n))
    z *= np.sqrt(0.5)
    out = np.empty(n, dtype=complex)
    out.real = z[0]
    out.imag = z[1]
    return out


def _block_bytes(payload, a_l, off: int, code: wf.RsCode, scheme: wf.ModScheme) -> np.ndarray:
    """The code.n bytes at bit offset `off` of the received payload (legit gain
    a_l), demodulating only their symbols: an RS block's offset and its 2040
    bits are whole symbols at every order, so whole-payload demodulation gives
    the same bytes."""
    k = scheme.bits_per_symbol
    span = payload[off // k : (off + code.n * 8) // k]
    return np.packbits(wf.demodulate(span / a_l, scheme))


def _block_lost(rx_bytes: np.ndarray, codeword: np.ndarray, code: wf.RsCode) -> bool:
    """True when the block arrived with more than t byte errors: exactly when
    a bounded-distance decoder fails on it or miscorrects it."""
    return int(np.count_nonzero(rx_bytes != codeword)) > code.t


def _replica(model, x, amp, rng) -> np.ndarray:
    """Jammer replica of x, scaled to mean power |amp|^2 over x. The caller
    passes the samples that land, so the JSR is the replica's power over
    them."""
    shaped = jm.jammer_transform(model, x, rng)
    power = rx.mean_power(shaped)
    if power == 0.0:
        return np.zeros(shaped.size, dtype=complex)
    return (amp / np.sqrt(power)) * shaped


def _frame(settings, scheme, n_syms, rng, code=None):
    """Pilot-prefixed frame of n_syms symbols with a random payload, and, when
    `code` is given, min(payload bits // (8 code.n), 2) RS codewords in it: the
    tail block ends at the payload's end, and a second block starts it. With
    a 64-symbol pilot, a 4096-symbol BPSK frame holds only the tail block, and
    a 2048-symbol BPSK or 1024-symbol QPSK frame none.

    The tail block is hit by a delayed replica no matter where it lands, so
    its byte errors double as the jamming detector; the head block, where
    there is one, covers the front. Returns (frame, [(payload bit offset,
    codeword bytes), ...]) with the head block first.
    """
    n_bits = (n_syms - settings.pilot_len) * scheme.bits_per_symbol
    bits = rng.integers(0, 2, n_bits).astype(np.uint8)
    blocks = []
    if code is not None:
        cw_bits = code.n * 8
        # the tail block, and the head block too when both fit
        for off in [0, n_bits - cw_bits][2 - min(n_bits // cw_bits, 2) :]:
            cw = wf.rs_encode(rng.integers(0, 256, code.k), code).astype(np.uint8)
            cw.flags.writeable = False
            bits[off : off + cw_bits] = np.unpackbits(cw)
            blocks.append((off, cw))
    return np.concatenate([_pilot(scheme, settings.pilot_len), wf.modulate(bits, scheme)]), blocks


def _too_short(settings, n: int) -> bool:
    """True when a separated pair of n samples cannot be classified: it needs
    two pilots' worth, and the similarity ratio's correlation over f_max = n - 1
    needs a lag window of +-1 inside it."""
    return n < max(2 * settings.pilot_len, 3)


def _classify(settings, scheme, legit_s, jam_s, nv_l, nv_j) -> rx.JammerClass:
    """Classify the jammer from a separated (legit, jam) pair with receiver
    noise variances (nv_l, nv_j), over their common length.

    The pair is compared at its own scale: the similarity ratio of the
    equalized pair is that of the raw pair times sqrt(P_l / P_j), with P_l
    and P_j the streams' noise-debiased powers, so only the jam's pilot span
    is equalized, for the anomaly count, and the legit stream's gain is
    never needed.
    """
    pilot = _pilot(scheme, settings.pilot_len)
    n = min(legit_s.size, jam_s.size)
    legit, jam = legit_s[:n], jam_s[:n]
    p_l = rx.debiased_power(legit, nv_l)
    g_j, p_j = rx.stream_gain(jam, pilot, nv_j)
    sim = rx.similarity_ratio(jam, legit, nv_l) * np.sqrt(p_l / p_j)
    inversions = rx.pilot_anomaly_fraction(jam[: pilot.size] / g_j, pilot)
    return rx.classify_jammer(
        sim, inversions, settings.sim_threshold, settings.inversion_threshold, scheme.family
    )


def _stage_two(settings, scheme, cells) -> None:
    """Split PS from AS for each cell of a PS verdict, on a jam-only probe
    of the cell against its known replica, and set the cell's class.

    Each cell draws its probe from its own generator: the bits of 1024
    symbols, the replica, then the noise. The probes are then read as one
    (cells, 1024) stack. Per-symbol ratios r_k = y_k / x_k
    cluster at +-1 for PS (balanced signs) and at V_k > 0 for AS. The global
    phase comes from the squared ratios, which removes the sign ambiguity; a
    near-balanced sign split means PS.
    """
    n, k = 1024, scheme.bits_per_symbol
    bits = np.empty((len(cells), n * k), dtype=np.uint8)
    for c, row in zip(cells, bits):
        row[:] = c.rng.integers(0, 2, n * k)
    x = wf.modulate(bits.ravel(), scheme).reshape(len(cells), n)
    r = np.empty_like(x)
    for c, xk, rk in zip(cells, x, r):
        rk[:] = _replica(c.model, xk, c.a_j, c.rng)
        rk += _noise(n, c.rng)
    # r = y conj(x) / |x|^2, with x's buffer reused for each temporary
    power = np.abs(x) ** 2
    r *= np.conjugate(x, out=x)
    r /= power
    phase = 0.5 * np.angle(np.sum(np.square(r, out=x), axis=1))
    signs = np.multiply(r, np.exp(-1j * phase)[:, None], out=x).real < 0.0
    share = np.mean(signs, axis=1)
    balance = np.minimum(share, 1.0 - share)
    for c, b in zip(cells, balance):
        c.cls = rx.JammerClass.PS if b >= settings.flip_threshold else rx.JammerClass.AS


def _lcmv_outputs(clean, w, steer, jam) -> np.ndarray:
    """The 2 x f outputs w^H (clean + steer j^T) of the LCMV weights w, for
    a jam j that is zero before its last `jam.size` samples and `jam` over
    them, formed without the m x f snapshot: w^H clean plus the jam times
    its gain w^H steer."""
    wh = w.conj().T
    out = wh @ clean
    out[:, out.shape[1] - jam.size :] += np.outer(wh @ steer, jam)
    return out


def _spatial_pair(settings, link, c):
    """Cell c's LCMV outputs under its weights c.w as (legit, jam aligned by
    c.tau_hat, legit noise variance, jam noise variance), or None when the
    aligned jam stream is too short to classify."""
    out = _lcmv_outputs(link.clean, c.w, c.steer, c.jam)
    pilot = _pilot(link.base.scheme, settings.pilot_len)
    # per-output noise variance ||w_k||^2 of the LCMV weights
    nv = [float(np.sum(np.abs(c.w[:, k]) ** 2)) for k in range(2)]
    # the legit stream is the one whose head matches the pilot
    head = [abs(np.vdot(pilot, s[: pilot.size])) / np.sqrt(rx.mean_power(s)) for s in out]
    k = 0 if head[0] >= head[1] else 1
    legit_s, jam_aligned = out[k], out[1 - k][c.tau_hat:]
    if _too_short(settings, min(legit_s.size, jam_aligned.size)):
        return None
    return legit_s, jam_aligned, nv[k], nv[1 - k]


def _temporal_pair(settings, link, c, burst):
    """Probe cell c with a shortened burst; its replica lands at the onset
    settings.tau, in a disjoint slot, and is read from c.tau_hat.

    Returns (legit, jam, 1.0, 1.0) in unit-noise samples, or None when the
    burst or the replica's slot is too short to classify.
    """
    if _too_short(settings, burst):
        return None
    xb, _ = _frame(settings, link.base.scheme, burst, c.rng)
    y = _noise(settings.tau + burst, c.rng)
    y[:burst] += link.a_l * xb
    y[settings.tau :] += _replica(c.model, xb, c.a_j, c.rng)
    jam_s = y[c.tau_hat : c.tau_hat + burst]
    if _too_short(settings, jam_s.size):
        return None
    return y[:burst], jam_s, 1.0, 1.0


def _defend(settings, link, c) -> None:
    """Set cell c's defense outcome (c.cls, c.fraction). The class comes from
    the LCMV-separated pair when the cell has resolved weights and the pair
    is long enough, else from the temporal probe; `run_cells` hands a PS
    verdict to stage two. With no class (nothing detected or estimated, or a
    delay that leaves no slot for the probe) the fraction stays 1."""
    pair = _spatial_pair(settings, link, c) if c.w is not None else None
    if pair is None and c.tau_hat is not None and c.tau_hat > 0:
        burst, c.fraction = rx.partition_temporal(settings.frame_len, c.tau_hat)
        pair = _temporal_pair(settings, link, c, burst)
        c.cls = rx.JammerClass.UNKNOWN  # unless the probe is long enough
    if pair is not None:
        c.cls = _classify(settings, link.base.scheme, *pair)


def _results(settings, link, cells) -> list[TrialResult]:
    """Each cell's trial result: the link choice its defense outcome sets.

    The cells of one class adapt together, from one error-curve evaluation
    over their jamming SNRs. A cell with no class, or an Unknown one, keeps
    the jam-free baseline's choice: its error curve ignores snr_j and its
    family stays the base one.
    """
    decisions = [link.base] * len(cells)
    groups = {}
    for i, c in enumerate(cells):
        if c.cls not in (None, rx.JammerClass.UNKNOWN):
            groups.setdefault(c.cls, []).append(i)
    for cls, members in groups.items():
        picks = ad.select_links(
            cls, link.snr_l, [cells[i].snr_j for i in members], settings.base_family,
            settings.delta, settings.fixed_rate, settings.max_order,
        )
        for i, decision in zip(members, picks):
            decisions[i] = decision
    return [
        TrialResult(
            t_baseline=link.t_baseline,
            t_jammed=ad.throughput(settings.bandwidth_hz, d.code, d.scheme, c.fraction),
            detected=c.detected, jammer_class=c.cls,
            classified_correct=(c.cls == rx.JammerClass(c.model.value)),
            tau_err=np.nan if c.tau_hat is None else float(abs(c.tau_hat - settings.tau)),
            scheme=d.scheme, code_rate=d.code.rate, payload_fraction=c.fraction,
            clamped=c.clamped,
        )
        for c, d in zip(cells, decisions)
    ]


def _estimate_delay(settings, x, y, onset) -> int:
    """Replica delay from a received frame whose power jumps at `onset`.

    The power change-point locates the replica onset for every jammer class
    (sign flips leave no correlation peak); when the cross-correlation shows
    a significant secondary peak near that onset, its sharper estimate wins.

    Only lag 0 and the lags within 8 of the onset are read, so R(tau) =
    sum_n x[n] * conj(y[n+tau]) (the `rx.cross_correlate` convention, reference
    samples outside the frame counting as zero) is taken at those lags alone.
    """
    f = settings.frame_len
    sig = settings.peak_significance

    def corr(tau):
        if tau >= 0:
            return np.vdot(y[tau:], x[: f - tau])
        return np.vdot(y[: f + tau], x[-tau:])

    lags = range(max(onset - 8, 1 - f), min(onset + 8, f - 1) + 1)
    mags = np.abs([corr(tau) for tau in lags])
    primary = abs(corr(0))
    if primary > 0 and mags.max() >= sig * primary:
        return lags[int(np.argmax(mags))]
    return onset


@dataclass(frozen=True)
class LinkDraw:
    """The jam-free part of a trial, drawn once per (RIS size, trial) and
    shared by every (jammer, JSR) cell run on it.

    Holds the channel products the jam phase reads (the fading draws and the
    phase alignment are consumed in `draw_link`), the baseline operating
    point, the transmitted frame and the received snapshot without the
    jammer: `clean` is the m x f legit signal plus receiver noise, in
    receiver-normalized units, and under spatial orthogonality `clean_cov` is
    its m x m covariance, which each cell's array covariance starts from.
    `head_power` holds the `rx.power_sums` of antenna 0's samples before the
    replica onset, the jam-free prefix every cell's onset search shares.
    `rs_blocks` holds each RS block's payload bit offset and transmitted
    codeword bytes, all that detection compares.
    """

    p_l: float
    noise_var_watt: float
    snr_l: float
    h_in: complex
    h_out: complex
    a_l: complex
    base: ad.AdaptationDecision
    t_baseline: float
    x: np.ndarray
    rs_blocks: tuple
    aoa_l: float | None
    clean: np.ndarray
    clean_cov: np.ndarray | None
    head_power: np.ndarray


def _legit_channel(settings, u, v):
    """The legit hop of the projections u, v: (aligned phases, h_l, received
    legit power tx_watt * |h_l|^2)."""
    phi, h_l = ch.aligned_cascade(u, v)
    return phi, h_l, settings.tx_watt * abs(h_l) ** 2


def draw_link(
    settings: TrialSettings, rng: np.random.Generator, noise_var_watt: float | None
) -> LinkDraw:
    """Channel, baseline decision, frame and jam-free snapshot of one trial.
    The RIS surfaces come from a child of `rng`, so no RIS size moves either
    stream, and an M-element surface is, to rounding, any larger one's prefix.

    `noise_var_watt` is the calibrated destination floor, read only in faded
    mode; in pinned mode the floor is set so this draw's legit SNR is the
    configured baseline, and `noise_var_watt` may be None.
    """
    if settings.snr_mode == SnrMode.FADED and noise_var_watt is None:
        raise ValueError(
            "snr_mode = faded needs noise_var_watt, the calibrated destination "
            "floor calibrate_noise returns for a faded config; got None"
        )
    link = settings.link
    ris_aware = settings.topology == jm.PathTopology.RIS_AWARE
    # under ris_aware the surfaces also hold h_rj's independent part
    u, v, *v_ind = ch.sample_realization(link, rng.spawn(1)[0], 3 if ris_aware else 2)
    phi, h_l, p_l = _legit_channel(settings, u, v)
    if settings.snr_mode == SnrMode.PINNED:
        noise_var_watt = p_l / settings.baseline_snr
    snr_l = p_l / noise_var_watt

    # baseline operating point and throughput (jammer silent)
    base = ad.select_link(
        None, snr_l, 0.0, settings.base_family, settings.delta, settings.fixed_rate,
        settings.max_order,
    )
    t_l = ad.throughput(settings.bandwidth_hz, base.code, base.scheme)

    # the jammer's eavesdropping and transmit coefficients, drawn for its
    # topology alone
    dexp = link.path_loss_exp
    if not ris_aware:
        h_in = ch.sample_rician(settings.rician, rng) * np.sqrt(ch.path_loss(settings.d_e1, dexp))
        h_out = ch.sample_rician(settings.rician, rng) * np.sqrt(ch.path_loss(settings.d_j1, dexp))
    else:
        # the jammer eavesdrops through the RIS under the legit link's phases
        h_in = ch.cascade(u, ch.ris_jammer_projection(v, v_ind[0], settings.eaves_corr), phi)
        h_out = ch.sample_rician(settings.rician, rng) * np.sqrt(ch.path_loss(settings.d_j2, dexp))

    # one frame, received on the whole array under spatial orthogonality,
    # else on one antenna (a steering vector of ones)
    f = settings.frame_len
    x, rs_blocks = _frame(settings, base.scheme, f, rng, base.code)
    a_l = h_l / abs(h_l) * np.sqrt(snr_l)
    aoa_l = None
    if settings.orthogonality == OrthogonalityMode.SPATIAL:
        m = settings.antennas
        aoa_l = rng.uniform(-np.pi / 4, np.pi / 4)
        steer_l = rx._steering(m, aoa_l)
    else:
        m, steer_l = 1, np.ones((1, 1))
    clean = steer_l * (a_l * x) + _noise(m * f, rng).reshape(m, f)
    clean_cov = None
    if aoa_l is not None:
        clean_cov = clean @ clean.conj().T / f
        clean_cov.flags.writeable = False
    head_power = rx.power_sums(clean[0, : settings.tau])
    x.flags.writeable = clean.flags.writeable = head_power.flags.writeable = False
    return LinkDraw(
        p_l=p_l, noise_var_watt=noise_var_watt, snr_l=snr_l, h_in=complex(h_in),
        h_out=complex(h_out), a_l=a_l, base=base, t_baseline=t_l, x=x,
        rs_blocks=tuple(rs_blocks), aoa_l=aoa_l, clean=clean, clean_cov=clean_cov,
        head_power=head_power,
    )


@dataclass(slots=True)
class _Cell:
    """One (jammer, JSR) cell on a link draw: its power budget, detection and
    delay estimate on antenna 0, and the outcome (cls, fraction) `_defend` and
    stage two set. A detected spatial cell also keeps its steering vector, its
    replica's active span, its m x m covariance and, once resolved, its weights."""

    model: jm.JammerModel
    rng: np.random.Generator | None
    a_j: complex
    snr_j: float
    clamped: bool
    detected: bool
    tau_hat: int | None
    steer: np.ndarray | None = None
    jam: np.ndarray | None = None
    cov: np.ndarray | None = None
    w: np.ndarray | None = None
    cls: rx.JammerClass | None = None
    fraction: float = 1.0


def _jam_budget(settings, link, jsr_db, eaves_noise_var_watt):
    """One cell's jamming-path power bookkeeping, in Python floats, with no draw:
    (a_j, snr_j, clamped), the jammer's receiver-normalized amplitude, the
    two-hop jamming SNR and whether the power cap cut the target JSR."""
    gamma_e = settings.tx_watt * abs(link.h_in) ** 2 / eaves_noise_var_watt
    p_jam = 10.0 ** (jsr_db / 10.0) * link.p_l / max(abs(link.h_out) ** 2, 1e-300)
    clamped = p_jam > settings.jam_cap_watt
    p_jam = min(p_jam, settings.jam_cap_watt)
    gamma_j = p_jam * abs(link.h_out) ** 2 / link.noise_var_watt
    a_j = np.exp(1j * np.angle(link.h_in * link.h_out)) * np.sqrt(gamma_j)
    return a_j, ad.snr_jamming(gamma_e, gamma_j), clamped


def _jam_front(settings, link, jsr_db_target, model, rng, eaves_noise_var_watt):
    """One cell's link budget, jammer draws (replica, then angle of arrival),
    detection and delay estimate."""
    a_j, snr_j, clamped = _jam_budget(settings, link, jsr_db_target, eaves_noise_var_watt)
    # normalized-unit waveform pass (unit receiver noise variance): the
    # replica of the f - tau symbols that land in the frame, at [tau, f),
    # added on each antenna by its steering
    f, tau = settings.frame_len, settings.tau
    jam = _replica(model, link.x[: f - tau], a_j, rng)
    steer = None
    if link.aoa_l is not None:
        while True:
            aoa_j = rng.uniform(-np.pi / 3, np.pi / 3)
            if abs(aoa_j - link.aoa_l) >= np.deg2rad(15.0):
                break
        steer = rx._steering(settings.antennas, aoa_j)[:, 0]
    # antenna 0, whose steering entry is exactly 1
    y = link.clean[0].copy()
    y[tau:] += jam

    # detection on antenna 0: a received-power jump, or an RS block with more
    # byte errors than the code corrects (a replica in phase quadrature can
    # leave the hard decisions untouched, and a weak one the power)
    base = link.base
    onset, jump = rx.estimate_onset(y, _ONSET_GUARD, link.head_power)
    payload = y[settings.pilot_len :]
    jumped = jump >= settings.peak_significance
    detected = jumped or any(
        _block_lost(_block_bytes(payload, link.a_l, off, base.code, base.scheme), cw, base.code)
        for off, cw in link.rs_blocks
    )
    # a lost block alone detects the jammer, but only a power jump places it
    tau_hat = _estimate_delay(settings, link.x, y, onset) if jumped else None
    cell = _Cell(model, rng, a_j, snr_j, clamped, detected, tau_hat)
    if steer is not None and tau_hat is not None:
        cell.steer, cell.jam = steer, jam
        # the covariance of the snapshot clean + s j^T from shared parts: the
        # link draw's C plus s x^H + x s^H + p s s^H, with x = clean conj(j) / f
        # and p = ||j||^2 / f, so no m x f snapshot is formed
        x = link.clean[:, tau:] @ jam.conj() / f
        sx = np.outer(steer, x.conj())
        cell.cov = link.clean_cov + (sx + sx.conj().T)
        cell.cov += np.vdot(jam, jam).real / f * np.outer(steer, steer.conj())
    return cell


def run_cells(
    settings: TrialSettings,
    cells: list[tuple[float, jm.JammerModel, np.random.Generator]],
    eaves_noise_var_watt: float,
    link: LinkDraw,
) -> list[TrialResult]:
    """The cells `(jsr_db, model, rng)` on one link draw, each a trial of the
    full detect/estimate/classify/adapt loop; one result per cell, in order.

    Each cell draws from its own generator, in the order one trial does:
    its replica and angle of arrival, then its probes. The detected spatial
    cells' MUSIC and LCMV run as one batch between detection and
    classification, and the stage two of the cells classified PS as one
    stack after it. `eaves_noise_var_watt` is the jammer's own receiver floor.
    """
    cells = [
        _jam_front(settings, link, jsr, model, rng, eaves_noise_var_watt)
        for jsr, model, rng in cells
    ]
    spatial = [c for c in cells if c.cov is not None]
    if spatial:
        cov = np.array([c.cov for c in spatial])
        w, resolved = rx.separate_spatial(cov, rx.estimate_aoa(cov))
        for c, wk, ok in zip(spatial, w, resolved):
            if ok:
                c.w = wk
    for c in cells:
        _defend(settings, link, c)
    ps = [c for c in cells if c.cls == rx.JammerClass.PS]
    if ps:
        _stage_two(settings, link.base.scheme, ps)
    return _results(settings, link, cells)


def run_trial(
    settings: TrialSettings,
    jsr_db_target: float,
    model: jm.JammerModel,
    rng: np.random.Generator,
    noise_var_watt: float | None,
    eaves_noise_var_watt: float,
) -> TrialResult:
    """One Monte Carlo trial of the full detect/estimate/classify/adapt loop:
    `run_cells` with one cell.

    `noise_var_watt` is the destination noise floor in watts, calibrated by
    the harness from the configured baseline SNR and read only in faded
    mode; pinned mode sets each draw's own floor, so it may be None there.
    `eaves_noise_var_watt` is the jammer's own receiver floor. The trial's
    jam-free link is drawn from `rng` first, then everything the jammer or
    the JSR touches; to run a cell on a given link draw, call `run_cells`.
    """
    link = draw_link(settings, rng, noise_var_watt)
    return run_cells(settings, [(jsr_db_target, model, rng)], eaves_noise_var_watt, link)[0]
