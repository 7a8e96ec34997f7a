"""RIS link channel models: correlated fading, Rician draws, cascaded coefficient.

The cascaded source->RIS->destination coefficient is
    c = h_sr @ R^{1/2} @ diag(exp(j*phi)) @ R^{1/2} @ h_rd
which equals the element-wise triple sum over (a, k, l) of
    rho_{a,k}^{1/2} rho_{a,l}^{1/2} h_sr[k] h_rd[l] exp(j*phi[a]).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import get_args, get_origin, get_type_hints

import numpy as np


class ConfigError(ValueError):
    """A setting that cannot run, caught before the first trial."""


@lru_cache(maxsize=None)
def field_types(cls) -> dict:
    """name -> (entry type, is a tuple, may be None) of each field of the
    settings dataclass cls, read from its annotations once: a tuple's entry
    type, an optional's type, or the annotation itself."""
    table = {}
    for name, hint in get_type_hints(cls).items():
        args = get_args(hint)
        table[name] = (args[0] if args else hint, get_origin(hint) is tuple, type(None) in args)
    return table


def check_fields(settings) -> None:
    """The field rule of every settings dataclass: store each Enum-annotated
    field of `settings`, or each entry of a tuple of one, as the member its
    text names in any case; raise ConfigError for text naming no member, for
    an int field or entry that holds no integer, and for a float in any field,
    or in a tuple in any field, that is nan or infinite."""
    for name, (kind, many, optional) in field_types(type(settings)).items():
        value = getattr(settings, name)
        entries = value if many else (value,)
        if kind is int:
            if not all(isinstance(v, numbers.Integral) or (optional and v is None)
                       for v in entries):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        elif issubclass(kind, Enum):
            # every member's value is lower case, so text in any case finds it
            try:
                found = tuple(kind(v.lower() if isinstance(v, str) else None) for v in entries)
            except ValueError:
                texts = ", ".join(m.value for m in kind)
                raise ConfigError(f"{name} must be one of {texts}, got {value!r}") from None
            object.__setattr__(settings, name, found if many else found[0])
        else:
            for v in value if isinstance(value, tuple) else entries:
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class RisLinkConfig:
    """Geometry and statistics of one RIS-assisted hop."""

    element_count: int
    d_sr: float = 18.0
    d_rd: float = 7.0
    path_loss_exp: float = 2.7
    corr_rate: float = 0.05

    def __post_init__(self):
        check_fields(self)
        if self.element_count < 1:
            raise ConfigError(f"element_count must be >= 1, got {self.element_count}")
        path_loss(self.d_sr, self.path_loss_exp)
        path_loss(self.d_rd, self.path_loss_exp)
        if self.corr_rate < 0:
            raise ConfigError("corr_rate must be non-negative")


# diffuse paths a Rician draw sums, each an allocated amplitude and phase
MAX_PATH_COUNT = 1_000_000


@dataclass(frozen=True)
class RicianParams:
    """Rician scalar-channel parameters (kappa=0 degenerates to Rayleigh)."""

    rician_k: float = 0.0
    path_count: int = 1

    def __post_init__(self):
        check_fields(self)
        if self.rician_k < 0:
            raise ConfigError("rician_k must be >= 0")
        if not 1 <= self.path_count <= MAX_PATH_COUNT:
            raise ConfigError(f"path_count must lie in [1, {MAX_PATH_COUNT}]")


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


def path_loss(d: float, delta: float) -> float:
    """Linear power attenuation d**(-delta), a positive finite float."""
    if d <= 0:
        raise ConfigError(f"distance must be positive, got {d}")
    if delta <= 0:
        raise ConfigError(f"path loss exponent must be positive, got {delta}")
    try:
        loss = float(d) ** (-delta)
        if loss > 0.0:
            return loss
    except OverflowError:
        pass
    raise ConfigError(f"path loss of distance {d} at exponent {delta} is out of float range")


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
        raise ValueError("correlation square root failed numerical check")
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
    cfg: RisLinkConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the legit hop's fading vectors (h_sr, h_rd) for one trial."""
    m, delta = cfg.element_count, cfg.path_loss_exp
    h_sr = _rayleigh_vector(m, np.sqrt(path_loss(cfg.d_sr, delta)), rng)
    h_rd = _rayleigh_vector(m, np.sqrt(path_loss(cfg.d_rd, delta)), rng)
    return h_sr, h_rd


def sample_ris_jammer(
    cfg: RisLinkConfig, h_rd: np.ndarray, eaves_corr: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw the RIS->jammer vector h_rj = sqrt(c) h_rd + sqrt(1 - c) h_ind.

    Its independent part h_ind has the RIS->destination path loss, and
    `eaves_corr` c in [0, 1] correlates it with h_rd (a jammer sitting next
    to the destination sees nearly the same reflected beam).
    """
    a_rd = np.sqrt(path_loss(cfg.d_rd, cfg.path_loss_exp))
    h_ind = _rayleigh_vector(cfg.element_count, a_rd, rng)
    return np.sqrt(eaves_corr) * h_rd + np.sqrt(1 - eaves_corr) * h_ind


def _project(h_in, h_out, corr: CorrelationMatrix) -> tuple[np.ndarray, np.ndarray]:
    """u = h_in @ R^{1/2} and v = R^{1/2} @ h_out, the two products of a cascade."""
    return np.asarray(h_in) @ corr.sqrt_form, corr.sqrt_form @ np.asarray(h_out)


def cascade(u: np.ndarray, v: np.ndarray, phi: PhaseMatrix) -> complex:
    """The cascaded coefficient sum_a u_a v_a exp(j*phi_a) of the projections
    u = h_in @ R^{1/2} and v = R^{1/2} @ h_out."""
    return complex(u @ (phi.diagonal * v))


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
        raise ValueError(
            f"length mismatch: h_in {h_in.shape}, h_out {h_out.shape}, "
            f"phi {phi.phases.shape}, R {corr.sqrt_form.shape}"
        )
    return cascade(*_project(h_in, h_out, corr), phi)


def aligned_cascade(
    h_sr: np.ndarray,
    h_rd: np.ndarray,
    corr: CorrelationMatrix,
) -> tuple[PhaseMatrix, complex, np.ndarray]:
    """The phase alignment maximizing |cascaded_coefficient|, the cascaded
    coefficient it yields, and h_sr's projection u = h_sr @ R^{1/2}, which
    the cascade of any other outgoing vector under these phases reuses.

    With c = sum_a u_a v_a exp(j*phi_a) and v = R^{1/2} @ h_rd, the optimum is
    phi_a = -arg(u_a * v_a), giving |c| = sum_a |u_a v_a|. The coefficient
    equals `cascaded_coefficient(h_sr, h_rd, corr, phi)` bit for bit.
    """
    u, v = _project(h_sr, h_rd, corr)
    phi = PhaseMatrix(phases=-np.angle(u * v))
    return phi, cascade(u, v, phi), u


def optimize_phases(
    h_sr: np.ndarray,
    h_rd: np.ndarray,
    corr: CorrelationMatrix,
) -> PhaseMatrix:
    """Per-element phase alignment maximizing |cascaded_coefficient| (see
    `aligned_cascade`)."""
    return aligned_cascade(h_sr, h_rd, corr)[0]
