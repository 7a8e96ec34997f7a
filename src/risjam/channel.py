"""RIS link channel models: correlated fading, Rician draws, cascaded coefficient.

The cascaded source->RIS->destination coefficient is
    c = h_sr @ R^{1/2} @ diag(exp(j*phi)) @ R^{1/2} @ h_rd
which equals the element-wise triple sum over (a, k, l) of
    rho_{a,k}^{1/2} rho_{a,l}^{1/2} h_sr[k] h_rd[l] exp(j*phi[a]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import lru_cache
from typing import get_args, get_origin, get_type_hints

import numpy as np


class ChannelError(ValueError):
    """Invalid channel parameter or dimension mismatch."""


@lru_cache(maxsize=None)
def _enum_fields(cls) -> tuple:
    """(name, is a tuple, {lower-case value: member}) of each field of the
    dataclass cls annotated with an Enum or a tuple of one, resolved once."""
    out = []
    for name, hint in get_type_hints(cls).items():
        item = get_args(hint)[0] if get_origin(hint) is tuple else hint
        if isinstance(item, type) and issubclass(item, Enum):
            out.append((name, item is not hint, {m.value.lower(): m for m in item}))
    return tuple(out)


def check_fields(settings, error: type[ValueError]) -> None:
    """The field rule of every settings dataclass: store each Enum-annotated
    field of `settings`, or each entry of a tuple of one, as the member its
    text names in any case; raise `error` for text naming no member, and for
    a float field, or a float in a tuple field, that is nan or infinite."""
    for name, many, members in _enum_fields(type(settings)):
        value = getattr(settings, name)
        entries = value if many else (value,)
        found = tuple(members.get(v.lower()) if isinstance(v, str) else None for v in entries)
        if None in found:
            raise error(f"{name} must be one of {', '.join(members)}, got {value!r}")
        object.__setattr__(settings, name, found if many else found[0])
    for f in fields(settings):
        value = getattr(settings, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise error(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class RisLinkConfig:
    """Geometry and statistics of one RIS-assisted hop."""

    element_count: int
    d_sr: float = 18.0
    d_rd: float = 7.0
    path_loss_exp: float = 2.7
    corr_rate: float = 0.05

    def __post_init__(self):
        check_fields(self, ChannelError)
        if self.element_count < 1:
            raise ChannelError(f"element_count must be >= 1, got {self.element_count}")
        path_loss(self.d_sr, self.path_loss_exp)
        path_loss(self.d_rd, self.path_loss_exp)
        if self.corr_rate < 0:
            raise ChannelError("corr_rate must be non-negative")


# diffuse paths a Rician draw sums, each an allocated amplitude and phase
MAX_PATH_COUNT = 1_000_000


@dataclass(frozen=True)
class RicianParams:
    """Rician scalar-channel parameters (kappa=0 degenerates to Rayleigh)."""

    rician_k: float = 0.0
    path_count: int = 1

    def __post_init__(self):
        check_fields(self, ChannelError)
        if self.rician_k < 0:
            raise ChannelError("rician_k must be >= 0")
        if not 1 <= self.path_count <= MAX_PATH_COUNT:
            raise ChannelError(f"path_count must lie in [1, {MAX_PATH_COUNT}]")


@dataclass(frozen=True)
class CorrelationMatrix:
    """Correlation matrix R and its square root R^{1/2}."""

    entries: np.ndarray
    sqrt_form: np.ndarray


@dataclass(frozen=True)
class PhaseMatrix:
    """Per-element RIS phases, each in [0, 2*pi)."""

    phases: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phases", np.mod(np.asarray(self.phases, dtype=float), 2 * np.pi))

    @property
    def diagonal(self) -> np.ndarray:
        return np.exp(1j * self.phases)


@dataclass(frozen=True)
class ChannelRealization:
    """One Monte Carlo draw of every fading vector/scalar in the topology."""

    h_sr: np.ndarray
    h_rd: np.ndarray
    h_rj: np.ndarray
    h_e1: complex
    h_j1: complex
    h_j2: complex


def path_loss(d: float, delta: float) -> float:
    """Linear power attenuation d**(-delta), a positive finite float."""
    if d <= 0:
        raise ChannelError(f"distance must be positive, got {d}")
    if delta <= 0:
        raise ChannelError(f"path loss exponent must be positive, got {delta}")
    try:
        loss = float(d) ** (-delta)
        if loss > 0.0:
            return loss
    except OverflowError:
        pass
    raise ChannelError(f"path loss of distance {d} at exponent {delta} is out of float range")


def build_correlation(cfg: RisLinkConfig) -> CorrelationMatrix:
    """Exponential element correlation rho_ij = exp(-corr_rate * |i - j|).

    The square root is taken by eigendecomposition with negative eigenvalues
    clamped to zero, so the result stays PSD at any size. It is returned as
    complex128 with a zero imaginary part: numpy casts a real matrix to that
    same complex matrix before every product with a complex vector, so casting
    once here leaves each product bit-identical and saves the per-call copy.
    """
    m = cfg.element_count
    idx = np.arange(m)
    entries = np.exp(-cfg.corr_rate * np.abs(idx[:, None] - idx[None, :]))
    vals, vecs = np.linalg.eigh(entries)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    del vals, vecs  # freed before the complex copy, so the peaks do not add up
    root = 0.5 * (root + root.T)
    if not np.allclose(root @ root, entries, atol=1e-9 * m):
        raise ChannelError("correlation square root failed numerical check")
    return CorrelationMatrix(entries=entries, sqrt_form=root.astype(complex))


def sample_rician(p: RicianParams, rng: np.random.Generator) -> complex:
    """Draw one Rician scalar: LOS term plus a sum of Rayleigh-amplitude paths.

    Each diffuse path has E[R^2] = 1, phases uniform on [0, 2*pi).
    """
    k = p.rician_k
    theta_los = rng.uniform(0.0, 2 * np.pi)
    los = np.sqrt(k / (k + 1)) * np.exp(1j * theta_los)
    amps = rng.rayleigh(scale=1.0 / np.sqrt(2), size=p.path_count)
    phases = rng.uniform(0.0, 2 * np.pi, size=p.path_count)
    diffuse = np.sqrt(1.0 / (k + 1)) * np.sum(amps * np.exp(1j * phases))
    return complex(los + diffuse)


def _rayleigh_vector(m: int, amp_scale: float, rng: np.random.Generator) -> np.ndarray:
    # amplitude Rayleigh with E[g^2] = 1, phase uniform
    g = rng.rayleigh(scale=1.0 / np.sqrt(2), size=m)
    theta = rng.uniform(0.0, 2 * np.pi, size=m)
    return amp_scale * g * np.exp(-1j * theta)


def sample_realization(
    cfg: RisLinkConfig,
    jp: RicianParams,
    rng: np.random.Generator,
    eaves_corr: float,
) -> ChannelRealization:
    """Draw all fading vectors for one trial.

    The RIS->jammer vector has the RIS->destination path loss, and
    `eaves_corr` in [0, 1] correlates the two vectors (a jammer sitting next
    to the destination sees nearly the same reflected beam).
    """
    m = cfg.element_count
    delta = cfg.path_loss_exp
    a_sr = np.sqrt(path_loss(cfg.d_sr, delta))
    a_rd = np.sqrt(path_loss(cfg.d_rd, delta))

    h_sr = _rayleigh_vector(m, a_sr, rng)
    h_rd = _rayleigh_vector(m, a_rd, rng)
    h_rj_ind = _rayleigh_vector(m, a_rd, rng)

    return ChannelRealization(
        h_sr=h_sr,
        h_rd=h_rd,
        h_rj=np.sqrt(eaves_corr) * h_rd + np.sqrt(1 - eaves_corr) * h_rj_ind,
        h_e1=sample_rician(jp, rng),
        h_j1=sample_rician(jp, rng),
        h_j2=sample_rician(jp, rng),
    )


def _project(h_in, h_out, corr: CorrelationMatrix) -> tuple[np.ndarray, np.ndarray]:
    """u = h_in @ R^{1/2} and v = R^{1/2} @ h_out, the two products of a cascade."""
    return np.asarray(h_in) @ corr.sqrt_form, corr.sqrt_form @ np.asarray(h_out)


def cascaded_coefficient(
    h_in: np.ndarray,
    h_out: np.ndarray,
    corr: CorrelationMatrix,
    phi: PhaseMatrix,
) -> complex:
    """Matrix form of the cascaded RIS coefficient (see module docstring)."""
    h_in = np.asarray(h_in)
    h_out = np.asarray(h_out)
    m = corr.sqrt_form.shape[0]
    if h_in.shape != (m,) or h_out.shape != (m,) or phi.phases.shape != (m,):
        raise ChannelError(
            f"length mismatch: h_in {h_in.shape}, h_out {h_out.shape}, "
            f"phi {phi.phases.shape}, R {corr.sqrt_form.shape}"
        )
    u, v = _project(h_in, h_out, corr)
    return complex(u @ (phi.diagonal * v))


def aligned_cascade(
    h_sr: np.ndarray,
    h_rd: np.ndarray,
    corr: CorrelationMatrix,
) -> tuple[PhaseMatrix, complex]:
    """The phase alignment maximizing |cascaded_coefficient| and the cascaded
    coefficient it yields, from one projection of each vector.

    With c = sum_a u_a v_a exp(j*phi_a), u = h_sr @ R^{1/2}, v = R^{1/2} @ h_rd,
    the optimum is phi_a = -arg(u_a * v_a), giving |c| = sum_a |u_a v_a|. The
    pair equals `(phi, cascaded_coefficient(h_sr, h_rd, corr, phi))` bit for bit.
    """
    u, v = _project(h_sr, h_rd, corr)
    phi = PhaseMatrix(phases=-np.angle(u * v))
    return phi, complex(u @ (phi.diagonal * v))


def optimize_phases(
    h_sr: np.ndarray,
    h_rd: np.ndarray,
    corr: CorrelationMatrix,
) -> PhaseMatrix:
    """Per-element phase alignment maximizing |cascaded_coefficient| (see
    `aligned_cascade`)."""
    return aligned_cascade(h_sr, h_rd, corr)[0]
