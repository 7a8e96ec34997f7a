"""End-to-end single-trial execution: channel draw, framing, jammed
reception, detection, delay estimation, orthogonalization, classification,
and adaptation.

Waveform-level processing happens in receiver-normalized units (unit noise
variance), while the power bookkeeping (path loss, jammer power budget, the
two-hop jamming SNR) stays in watts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import adaptation as ad
from . import channel as ch
from . import jammer as jm
from . import receiver as rx
from . import waveform as wf


class OrthogonalityMode(str, Enum):
    SPATIAL = "spatial"
    TEMPORAL = "temporal"
    NONE = "none"


# samples the power change-point keeps clear of each frame edge
_ONSET_GUARD = 2


class ConfigError(ValueError):
    """A setting that cannot run, caught before the first trial."""


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
    drfm_gain: float = 1.5
    sim_threshold: float = 0.93
    inversion_threshold: float = 0.25
    peak_significance: float = 0.15
    flip_threshold: float = 0.3  # stage-two PS/AS sign-balance split
    # "pinned" holds the legit link at baseline_snr_db every trial (power
    # control); "faded" uses the harness-calibrated fixed noise floor instead
    snr_mode: str = "pinned"

    def __post_init__(self):
        if self.snr_mode not in ("pinned", "faded"):
            raise ConfigError(f"snr_mode must be pinned or faded, got {self.snr_mode!r}")
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
        if self.jam_delay is not None and not 0 <= self.jam_delay < self.frame_len:
            raise ConfigError(
                f"delay {self.jam_delay} puts the replica outside the "
                f"{self.frame_len}-sample frame"
            )
        if self.max_order not in wf.ORDERS:
            raise ConfigError(f"max_order must be one of {wf.ORDERS}, got {self.max_order}")
        try:
            ad.code_table(self.fixed_rate)
            rx.ClassifierThresholds(self.sim_threshold, self.inversion_threshold)
        except (ad.AdaptationError, rx.ReceiverError) as exc:
            raise ConfigError(str(exc)) from exc
        # MUSIC resolves two sources on an (antennas - 1)-element subarray
        if self.orthogonality == OrthogonalityMode.SPATIAL and self.antennas < 3:
            raise ConfigError(
                f"spatial orthogonality needs at least 3 antennas, got {self.antennas}"
            )


@dataclass(frozen=True)
class TrialResult:
    t_baseline: float
    t_jammed: float
    detected: bool
    jammer_class: rx.JammerClass | None
    classified_correct: bool
    tau_true: int
    tau_hat: int | None
    scheme: wf.ModScheme
    code_rate: float
    payload_fraction: float
    snr_l: float
    snr_j: float
    gamma_j: float
    clamped: bool

    @property
    def gain(self) -> float:
        return self.t_jammed / self.t_baseline

    @property
    def tau_err(self) -> float:
        if self.tau_hat is None:
            return float("nan")
        return float(abs(self.tau_hat - self.tau_true))


_CLASS_OF_MODEL = {
    jm.JammerModel.DRFM: rx.JammerClass.DRFM,
    jm.JammerModel.PS: rx.JammerClass.PS,
    jm.JammerModel.AS: rx.JammerClass.AS,
}


@lru_cache(maxsize=32)
def _corr_cached(element_count: int, corr_rate: float) -> ch.CorrelationMatrix:
    return ch.build_correlation(
        ch.RisLinkConfig(element_count=element_count, corr_rate=corr_rate)
    )


@lru_cache(maxsize=16)
def _pilot_cached(family: wf.Family, order: int, length: int) -> np.ndarray:
    """Deterministic pilot pattern shared by transmitter and receiver."""
    prng = np.random.default_rng(0xA5A5)
    scheme = wf.ModScheme(family, order)
    bits = prng.integers(0, 2, length * scheme.bits_per_symbol).astype(np.uint8)
    syms = wf.modulate(bits, scheme)
    syms.flags.writeable = False
    return syms


def _pilot(scheme: wf.ModScheme, length: int) -> np.ndarray:
    return _pilot_cached(scheme.family, scheme.order, length)


def _noise(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance circular complex Gaussian noise."""
    s = np.sqrt(0.5)
    return rng.normal(0, s, n) + 1j * rng.normal(0, s, n)


def _encode_payload(n_syms, scheme, code, rng):
    """Payload bits with RS codewords placed at both ends of the frame.

    The tail-aligned block is hit by a delayed replica no matter where it
    lands, so decoding it doubles as the jamming detector; the head block
    covers the front. Whatever is left in between is random filler. Returns
    (bits, [(bit offset, data bytes), ...]).
    """
    n_bits = n_syms * scheme.bits_per_symbol
    cw_bits = code.n * 8
    bits = rng.integers(0, 2, n_bits).astype(np.uint8)
    offsets = []
    if n_bits >= 2 * cw_bits:
        offsets = [0, n_bits - cw_bits]
    elif n_bits >= cw_bits:
        offsets = [n_bits - cw_bits]
    tx_blocks = []
    for off in offsets:
        data = rng.integers(0, 256, code.k)
        bits[off : off + cw_bits] = np.unpackbits(
            wf.rs_encode(data, code).astype(np.uint8)
        )
        tx_blocks.append((off, data))
    return bits, tx_blocks


def _decode_failed(rx_bits, tx_blocks, code: wf.RsCode) -> bool:
    """Decode each placed RS block; True when any fails or miscorrects."""
    for off, data in tx_blocks:
        seg = rx_bits[off : off + code.n * 8]
        if seg.size < code.n * 8:
            continue
        blk = np.packbits(seg.astype(np.uint8)).astype(np.int64)
        res = wf.rs_decode(blk, code)
        if res.failure or not np.array_equal(res.data, np.asarray(data)):
            return True
    return False


def _replica(model, settings, x, tau, amp, rng) -> np.ndarray:
    """Jammer replica of x delayed by tau, scaled so its active span [tau, end)
    has average power |amp|^2. Length len(x) + tau, zero-padded at the head.
    """
    spec = jm.JammerSpec(model=model, amp_gain=settings.drfm_gain, delay_samples=tau)
    shaped = jm.jammer_transform(spec, x, rng)
    rms = np.sqrt(np.mean(np.abs(shaped[tau:]) ** 2))
    if rms == 0.0:
        return np.zeros(shaped.size, dtype=complex)
    return (amp / rms) * shaped


def _frame(settings, scheme, n_syms, rng, code=None):
    """Pilot-prefixed frame of n_syms symbols; optionally RS-coded payload."""
    pilot = _pilot(scheme, settings.pilot_len)
    if code is not None:
        bits, tx_blocks = _encode_payload(n_syms - settings.pilot_len, scheme, code, rng)
    else:
        bits = rng.integers(0, 2, (n_syms - settings.pilot_len) * scheme.bits_per_symbol)
        bits, tx_blocks = bits.astype(np.uint8), []
    return np.concatenate([pilot, wf.modulate(bits, scheme)]), tx_blocks


def _classify_streams(legit_stream, jam_stream, pilot, settings, scheme, nv_legit, nv_jam):
    legit_eq = rx.equalize_stream(legit_stream, pilot, nv_legit)
    jam_eq = rx.equalize_stream(jam_stream, pilot, nv_jam)
    f_max = min(legit_eq.size, jam_eq.size) - 1
    metrics = rx.similarity_ratio(
        jam_eq, legit_eq, f_max,
        legit_noise_var=rx.equalized_noise_var(legit_stream, nv_legit),
    )
    inversions = rx.pilot_anomaly_fraction(jam_eq[: pilot.size], pilot)
    thr = rx.ClassifierThresholds(settings.sim_threshold, settings.inversion_threshold)
    return rx.classify_jammer(metrics, inversions, thr, active_scheme=scheme)


def _stage_two(settings, model, scheme, a_j, rng) -> rx.JammerClass:
    """Split PS from AS on a jam-only probe against the known replica.

    Per-symbol ratios r_k = y_k / x_k cluster at +-1 for PS (balanced signs)
    and at V_k > 0 for AS. The global phase comes from the squared ratios,
    which removes the sign ambiguity; a near-balanced sign split means PS.
    """
    n = 1024
    bits = rng.integers(0, 2, n * scheme.bits_per_symbol).astype(np.uint8)
    x = wf.modulate(bits, scheme)
    stream = _replica(model, settings, x, 0, a_j, rng) + _noise(n, rng)
    r = stream * np.conj(x) / np.abs(x) ** 2
    phase = 0.5 * np.angle(np.sum(r**2))
    signs = np.real(r * np.exp(-1j * phase)) < 0.0
    balance = float(min(np.mean(signs), 1.0 - np.mean(signs)))
    return rx.JammerClass.PS if balance >= settings.flip_threshold else rx.JammerClass.AS


def _spatial_classify(settings, scheme, streams, tau_hat):
    """MUSIC AoAs and LCMV separation of the received array snapshot."""
    pilot = _pilot(scheme, settings.pilot_len)
    aoas = rx.estimate_aoa(streams, 2, grid_deg=0.5)
    (s0, s1), w = rx.separate_spatial(streams, aoas)
    # per-output noise variance ||w_k||^2 of the LCMV weights
    nv = [float(np.sum(np.abs(w[:, k]) ** 2)) for k in range(2)]

    # the legit stream is the one whose head matches the pilot
    c0 = abs(np.vdot(pilot, s0[: pilot.size])) / np.sqrt(np.mean(np.abs(s0) ** 2))
    c1 = abs(np.vdot(pilot, s1[: pilot.size])) / np.sqrt(np.mean(np.abs(s1) ** 2))
    legit_s, jam_s = (s0, s1) if c0 >= c1 else (s1, s0)
    nv_l, nv_j = (nv[0], nv[1]) if c0 >= c1 else (nv[1], nv[0])
    jam_aligned = jam_s[tau_hat:]
    if jam_aligned.size < 2 * settings.pilot_len:
        raise rx.SeparationFailure("aligned jam stream too short")
    n = min(legit_s.size, jam_aligned.size)
    return _classify_streams(
        legit_s[:n], jam_aligned[:n], pilot, settings, scheme, nv_l, nv_j
    )


def _temporal_classify(settings, model, scheme, a_l, a_j, tau, tau_hat, burst, rng):
    """Probe with a shortened burst; the replica lands in a disjoint slot."""
    pilot = _pilot(scheme, settings.pilot_len)
    if burst < 2 * settings.pilot_len:
        return rx.JammerClass.UNKNOWN
    xb, _ = _frame(settings, scheme, burst, rng)
    y = _noise(tau + burst, rng)
    y[:burst] += a_l * xb
    y += _replica(model, settings, xb, tau, a_j, rng)
    legit_s = y[:burst]
    jam_s = y[tau_hat : tau_hat + burst]
    if jam_s.size < 2 * settings.pilot_len:
        return rx.JammerClass.UNKNOWN
    n = min(legit_s.size, jam_s.size)
    return _classify_streams(legit_s[:n], jam_s[:n], pilot, settings, scheme, 1.0, 1.0)


def _orthogonalize_and_classify(settings, model, scheme, streams, a_l, a_j, tau, tau_hat, rng):
    """Returns (jammer class, payload fraction), or None when nothing usable."""
    outcome = None
    if settings.orthogonality == OrthogonalityMode.SPATIAL:
        try:
            outcome = _spatial_classify(settings, scheme, streams, tau_hat), 1.0
        except rx.SeparationFailure:
            pass  # fall back to temporal partitioning
    if outcome is None:
        try:
            _, burst, fraction = rx.partition_temporal(settings.frame_len, tau_hat)
        except rx.ReceiverError:
            return None
        outcome = _temporal_classify(
            settings, model, scheme, a_l, a_j, tau, tau_hat, burst, rng
        ), fraction
    cls, fraction = outcome
    if cls == rx.JammerClass.PS:
        cls = _stage_two(settings, model, scheme, a_j, rng)
    return cls, fraction


def _estimate_delay(settings, x, y, onset, jump) -> int | None:
    """Replica delay from the received frame, or None when nothing stands out.

    The power change-point (onset, jump) locates the replica onset for every
    jammer class (sign flips leave no correlation peak); when the
    cross-correlation shows a significant secondary peak near that onset, its
    sharper estimate wins.

    Only lag 0 and the lags within 8 of the onset are read, so R(tau) =
    sum_n x[n] * conj(y[n+tau]) (the `rx.cross_correlate` convention, reference
    samples outside the frame counting as zero) is taken at those lags alone.
    """
    f = settings.frame_len
    sig = settings.peak_significance
    if jump < sig:
        return None
    x, y = x[:f], y[:f]

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


def run_trial(
    settings: TrialSettings,
    jsr_db_target: float,
    model: jm.JammerModel,
    rng: np.random.Generator,
    noise_var_watt: float,
    eaves_noise_var_watt: float,
) -> TrialResult:
    """One Monte Carlo trial of the full detect/estimate/classify/adapt loop.

    `noise_var_watt` is the destination noise floor in watts (calibrated by
    the harness from the configured baseline SNR); `eaves_noise_var_watt` is
    the jammer's own receiver floor.
    """
    link = settings.link
    p_t = ad.dbm_to_watt(settings.tx_power_dbm)
    corr = _corr_cached(link.element_count, link.corr_rate)
    real = ch.sample_realization(link, settings.rician, rng, eaves_corr=settings.eaves_corr)
    phi = ch.optimize_phases(real.h_sr, real.h_rd, corr)
    h_l = ch.cascaded_coefficient(real.h_sr, real.h_rd, corr, phi)
    p_l = p_t * abs(h_l) ** 2
    if settings.snr_mode == "pinned":
        noise_var_watt = p_l / 10.0 ** (settings.baseline_snr_db / 10.0)
    snr_l = p_l / noise_var_watt

    # baseline operating point and throughput (jammer silent)
    base = ad.select_link(
        None, snr_l, 0.0, settings.base_family, settings.delta,
        fixed_rate=settings.fixed_rate, max_order=settings.max_order,
    )
    t_l = ad.throughput(settings.bandwidth_hz, base.code, base.scheme, 1.0)

    # jamming-path power bookkeeping
    dexp = link.path_loss_exp
    if settings.topology == jm.PathTopology.SOURCE_AWARE:
        h_in = real.h_e1 * np.sqrt(ch.path_loss(settings.d_e1, dexp))
        h_out = real.h_j1 * np.sqrt(ch.path_loss(settings.d_j1, dexp))
    else:
        h_in = ch.cascaded_coefficient(real.h_sr, real.h_rj, corr, phi)
        h_out = real.h_j2 * np.sqrt(ch.path_loss(settings.d_j2, dexp))
    gamma_e = p_t * abs(h_in) ** 2 / eaves_noise_var_watt

    p_rx_target = 10.0 ** (jsr_db_target / 10.0) * p_l
    p_jam = p_rx_target / max(abs(h_out) ** 2, 1e-300)
    cap = ad.dbm_to_watt(settings.jam_power_cap_dbm)
    clamped = p_jam > cap
    p_jam = min(p_jam, cap)
    gamma_j = p_jam * abs(h_out) ** 2 / noise_var_watt
    snr_j = ad.snr_jamming(gamma_e, gamma_j)

    # normalized-unit waveform pass (unit receiver noise variance): one frame,
    # received on the whole array under spatial orthogonality, else on one
    # antenna (a steering matrix of ones)
    f = settings.frame_len
    scheme = base.scheme
    tau = settings.jam_delay if settings.jam_delay is not None else f // 2
    x, tx_blocks = _frame(settings, scheme, f, rng, base.code)
    a_l = h_l / abs(h_l) * np.sqrt(snr_l)
    a_j = np.exp(1j * np.angle(h_in * h_out)) * np.sqrt(gamma_j)
    jam = _replica(model, settings, x, tau, a_j, rng)[:f]
    if settings.orthogonality == OrthogonalityMode.SPATIAL:
        m = settings.antennas
        aoa_l = rng.uniform(-np.pi / 4, np.pi / 4)
        while True:
            aoa_j = rng.uniform(-np.pi / 3, np.pi / 3)
            if abs(aoa_j - aoa_l) >= np.deg2rad(15.0):
                break
        steer = rx._steering(m, (aoa_l, aoa_j))
    else:
        m, steer = 1, np.ones((1, 2))
    streams = (
        steer[:, :1] * (a_l * x) + steer[:, 1:] * jam + _noise(m * f, rng).reshape(m, f)
    )
    y = streams[0]

    # detection on antenna 0: RS decode failure, backed by the received-power
    # monitor (a replica in phase quadrature can leave the hard decisions
    # untouched)
    rx_bits = wf.demodulate((y / a_l)[settings.pilot_len :], scheme)
    onset, jump = rx.estimate_onset(y, guard=_ONSET_GUARD)
    detected = (
        _decode_failed(rx_bits, tx_blocks, base.code) or jump >= settings.peak_significance
    )
    tau_hat = _estimate_delay(settings, x, y, onset, jump) if detected else None
    outcome = None
    if tau_hat is not None:
        outcome = _orthogonalize_and_classify(
            settings, model, scheme, streams, a_l, a_j, tau, tau_hat, rng
        )

    # no usable outcome keeps the baseline operating point
    cls, fraction, decision = None, 1.0, base
    if outcome is not None:
        cls, fraction = outcome
        decision = ad.select_link(
            cls, snr_l, snr_j, settings.base_family, settings.delta,
            fixed_rate=settings.fixed_rate, max_order=settings.max_order,
        )
    t_j = ad.throughput(settings.bandwidth_hz, decision.code, decision.scheme, fraction)
    return TrialResult(
        t_baseline=t_l, t_jammed=t_j, detected=detected, jammer_class=cls,
        classified_correct=(cls == _CLASS_OF_MODEL[model]), tau_true=tau,
        tau_hat=tau_hat, scheme=decision.scheme, code_rate=decision.code.rate,
        payload_fraction=fraction, snr_l=snr_l, snr_j=snr_j, gamma_j=gamma_j,
        clamped=clamped,
    )
