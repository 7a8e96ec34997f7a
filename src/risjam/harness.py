"""Experiment harness: INI configuration, noise calibration, the Monte Carlo
sweep over (jammer, RIS size, JSR), and CSV/summary emission.

Seeding is hierarchical, with common random numbers across the grid. The
jam-free link draw of each (RIS size, trial) uses
SeedSequence(master, spawn_key=(_LINK_KEY, ris, trial)) and is shared by
every (jammer, JSR) cell of that trial, so cells share their channel, frame
and noise by design; each cell's jammer-side draws use
SeedSequence(master, spawn_key=(jammer, ris, jsr, trial)). Workers run
whole (RIS size, trial) units, so results are byte-identical for any worker
count.
"""

from __future__ import annotations

import configparser
import ctypes
import itertools
import math
import os
import sys
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import channel as ch
from . import jammer as jm
from . import pipeline as pl
from .channel import ConfigError

CSV_HEADER = (
    "jsr_db,jammer,topology,ris_size,t_baseline,t_jammed,gain,detect_rate,"
    "classify_rate,tau_err,modulation,code_rate,payload_fraction,stderr_gain"
)

CALIBRATION_DRAWS = 256
_CAL_KEY = 0x5EED
_LINK_KEY = 0x11AC
# entries a start:stop:step list may expand to; the shipped grids have 13
MAX_RANGE_ENTRIES = 10_000
# RIS elements a sweep may ask for (the shipped configs go up to 512); the
# correlation matrix holds M^2 entries and its eigendecomposition costs M^3
MAX_RIS_SIZE = 4096


@dataclass(frozen=True)
class ExperimentConfig:
    jammers: tuple[jm.JammerModel, ...] = (
        jm.JammerModel.DRFM,
        jm.JammerModel.PS,
        jm.JammerModel.AS,
    )
    ris_sizes: tuple[int, ...] = (64,)
    jsr_grid_db: tuple[float, ...] = tuple(np.arange(-10.0, 20.5, 2.5))
    trials: int = 200
    seed: int = 1
    jobs: int = 1
    settings: pl.TrialSettings = field(
        default_factory=lambda: pl.TrialSettings(
            link=ch.RisLinkConfig(element_count=64), rician=ch.RicianParams()
        )
    )

    def __post_init__(self):
        ch.check_fields(self)
        if not self.jammers:
            raise ConfigError("jammers is empty")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.ris_sizes or min(self.ris_sizes) < 1:
            raise ConfigError("ris_sizes must be positive")
        if max(self.ris_sizes) > MAX_RIS_SIZE:
            raise ConfigError(f"ris_sizes must be at most {MAX_RIS_SIZE}")
        if not self.jsr_grid_db:
            raise ConfigError("jsr grid is empty")
        # a repeated entry would repeat its cells' rows
        for name in ("jammers", "ris_sizes", "jsr_grid_db"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} repeats an entry")
        # each trial scales the legit power by the linear JSR
        for jsr in self.jsr_grid_db:
            try:
                ratio = 10.0 ** (jsr / 10.0)
            except OverflowError:
                ratio = math.inf
            if not sys.float_info.min <= ratio <= sys.float_info.max:
                raise ConfigError(f"JSR {jsr} dB is out of float range as a power ratio")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        try:  # the rule every trial's seed sequence applies
            np.random.SeedSequence(self.seed)
        except ValueError as exc:
            raise ConfigError(f"seed {self.seed!r}: {exc}") from exc
        # settings.link is the reference link: the first RIS size
        link = replace(self.settings.link, element_count=self.ris_sizes[0])
        object.__setattr__(self, "settings", replace(self.settings, link=link))


def _fields(section, cls, *names):
    return {(section, name): (cls, name) for name in names}


# (INI section, key) -> (dataclass, field). The field's row of
# `channel.field_types` gives the key's type and its default applies when
# the key is absent; a key not in this table is rejected.
_SCHEMA = {
    **_fields("sweep", ExperimentConfig, "jammers", "ris_sizes", "trials", "seed", "jobs"),
    ("sweep", "jsr_db"): (ExperimentConfig, "jsr_grid_db"),
    **_fields("sweep", pl.TrialSettings, "topology", "orthogonality"),
    **_fields("link", ch.RisLinkConfig, "d_sr", "d_rd", "path_loss_exp", "corr_rate"),
    **_fields("link", ch.RicianParams, "rician_k", "path_count"),
    **_fields("link", pl.TrialSettings,
              "baseline_snr_db", "snr_mode", "tx_power_dbm", "bandwidth_hz"),
    ("jammer", "power_cap_dbm"): (pl.TrialSettings, "jam_power_cap_dbm"),
    ("jammer", "delay"): (pl.TrialSettings, "jam_delay"),
    **_fields("jammer", pl.TrialSettings,
              "eavesdrop_snr_db", "eaves_corr", "d_e1", "d_j1", "d_j2"),
    **_fields("receiver", pl.TrialSettings,
              "frame_len", "pilot_len", "antennas", "sim_threshold",
              "inversion_threshold", "peak_significance", "flip_threshold"),
    **_fields("adaptation", pl.TrialSettings,
              "delta", "fixed_rate", "max_order", "base_family"),
}
_SECTIONS = {section for section, _ in _SCHEMA}


def _parse_list(raw: str, cast):
    """Comma list, or a start:stop:step range (stop inclusive) of at most
    MAX_RANGE_ENTRIES values."""
    raw = raw.strip()
    if ":" in raw:
        parts = [float(p) for p in raw.split(":")]
        if len(parts) != 3 or not all(map(math.isfinite, parts)) or parts[2] <= 0:
            raise ConfigError(f"bad range spec {raw!r}, want start:stop:step")
        start, stop, step = parts
        stop += step / 2
        # the length np.arange gives, worked out before it allocates
        if (stop - start) / step > MAX_RANGE_ENTRIES:
            raise ConfigError(f"range spec {raw!r} has more than {MAX_RANGE_ENTRIES} entries")
        # each value as its shortest round-trip text, as if written out
        return tuple(cast(str(v)) for v in np.arange(start, stop, step))
    return tuple(cast(p.strip()) for p in raw.split(",") if p.strip())


def _int_entry(text: str) -> int:
    """An int list entry: it may be written 1e3 or 64.0, but must be
    integral (int() of the text rejects 16.7)."""
    return int(float(text)) if float(text).is_integer() else int(text)


def _parse(raw: str, kind, many: bool, optional: bool):
    """A field's value from its INI text, by the field's row of
    `field_types`: a list for a tuple, None for empty text where None is
    allowed."""
    if issubclass(kind, Enum):
        kind = str  # the text as it is: the field rule matches it to a member
    if many:
        return _parse_list(raw, _int_entry if kind is int else kind)
    return None if optional and not raw.strip() else kind(raw)


def load_config(path: str) -> ExperimentConfig:
    """The ExperimentConfig of the INI file at `path` (see `loads_config`);
    an unreadable file raises ConfigError too."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return loads_config(text)


def loads_config(text: str) -> ExperimentConfig:
    """The ExperimentConfig of INI text: each key sets its field, and an
    absent key keeps the field's default. Raises ConfigError, before any trial
    runs, for an unknown section or key, a value its field's type cannot
    parse, or a setting that cannot run. `[sweep] jobs` is the worker process
    count `run_sweep` may use, which changes no row."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    values = {cls: {} for cls, _ in _SCHEMA.values()}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser[section].items():
            if (section, key) not in _SCHEMA:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            cls, name = _SCHEMA[section, key]
            try:
                values[cls][name] = _parse(raw, *ch.field_types(cls)[name])
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc

    settings = pl.TrialSettings(
        # ExperimentConfig sets element_count to the first RIS size
        link=ch.RisLinkConfig(element_count=64, **values[ch.RisLinkConfig]),
        rician=ch.RicianParams(**values[ch.RicianParams]),
        **values[pl.TrialSettings],
    )
    return ExperimentConfig(**values[ExperimentConfig], settings=settings)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def calibrate_noise(cfg: ExperimentConfig) -> tuple[float | None, float]:
    """Noise floors (destination, jammer receiver) in watts.

    Under `snr_mode = faded` the destination floor is set so the mean
    legitimate SNR at the first (reference) RIS size equals the configured
    baseline; larger arrays then see a proportionally stronger link. Under
    `pinned` every link draw sets its own floor from its baseline SNR, so the
    destination floor is None and no channel is drawn. The jammer floor pins
    its mean source->jammer eavesdropping SNR at the configured value.
    """
    s = cfg.settings
    if s.snr_mode == pl.SnrMode.PINNED:
        return None, s.eaves_noise_watt
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(_CAL_KEY,)))
    powers = [pl._legit_channel(s, rng)[-1] for _ in range(CALIBRATION_DRAWS)]
    return float(np.mean(powers)) / s.baseline_snr, s.eaves_noise_watt


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    jsr_db: float
    jammer: jm.JammerModel
    topology: jm.PathTopology
    ris_size: int
    t_baseline: float
    t_jammed: float
    gain: float
    detect_rate: float
    classify_rate: float
    tau_err: float
    modulation: str
    code_rate: float
    payload_fraction: float
    stderr_gain: float
    clamped_fraction: float


def _run_unit(args) -> list[list[pl.TrialResult]]:
    """Every (jammer, JSR) cell's trial t at RIS size index ri, on one shared
    jam-free link draw: one `run_cells` result list per jammer, in JSR order."""
    cfg, ri, t, noise_var, eaves_var = args
    link_cfg = replace(cfg.settings.link, element_count=cfg.ris_sizes[ri])
    settings = replace(cfg.settings, link=link_cfg)
    seed = np.random.SeedSequence(cfg.seed, spawn_key=(_LINK_KEY, ri, t))
    link = pl.draw_link(settings, np.random.default_rng(seed), noise_var)
    results = []
    for ji, model in enumerate(cfg.jammers):
        cells = [
            (jsr, model, np.random.default_rng(
                np.random.SeedSequence(cfg.seed, spawn_key=(ji, ri, ki, t))
            ))
            for ki, jsr in enumerate(cfg.jsr_grid_db)
        ]
        results.append(pl.run_cells(settings, cells, eaves_var, link))
    return results


def _modal(values):
    """The most frequent value; the smallest among ties."""
    uniq, counts = np.unique(values, return_counts=True)
    return uniq[np.argmax(counts)]


def _aggregate(jsr, model, topology, ris, results) -> SweepRow:
    """One cell's row from its trials' results, in trial order. Each field is
    read into a contiguous 1-D array, so its mean adds the trials in order."""

    def column(name, trials=results):
        return np.array([getattr(r, name) for r in trials], dtype=float)

    t_l, t_j = column("t_baseline"), column("t_jammed")
    n, gain = t_l.size, np.mean(t_j) / np.mean(t_l)
    attempted = [r for r in results if r.jammer_class is not None]
    correct = column("classified_correct", attempted)
    tau_err = column("tau_err")
    tau_err = tau_err[~np.isnan(tau_err)]
    # the ratio of means' delta-method standard error (Cochran 1977, ch. 6)
    stderr = np.std(t_j - gain * t_l, ddof=1) / (np.sqrt(n) * np.mean(t_l)) if n > 1 else 0.0
    return SweepRow(
        jsr_db=float(jsr),
        jammer=model,
        topology=topology,
        ris_size=int(ris),
        t_baseline=float(np.mean(t_l)),
        t_jammed=float(np.mean(t_j)),
        gain=float(gain),
        detect_rate=float(np.mean(column("detected"))),
        classify_rate=float(np.mean(correct)) if correct.size else 0.0,
        tau_err=float(np.mean(tau_err)) if tau_err.size else float("nan"),
        modulation=str(_modal([str(r.scheme) for r in results])),
        code_rate=float(_modal(column("code_rate"))),
        payload_fraction=float(np.mean(column("payload_fraction"))),
        stderr_gain=float(stderr),
        clamped_fraction=float(np.mean(column("clamped"))),
    )


def _keep_heap() -> None:
    """Stop glibc from handing freed heap back to the OS after every trial.

    glibc's default thresholds move: blocks above the largest mmap block freed
    so far (128 KB at start) are mmapped, and the heap top goes back to the OS
    once more than twice that lies free. The megabytes of temporaries a
    spatial trial allocates and frees are then page-faulted in afresh every
    trial. Fixed thresholds above a trial's working set keep them in the
    heap. Does nothing without glibc's mallopt.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def run_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """One SweepRow per (jammer, RIS size, JSR) cell, in that order. cfg was
    checked when it was built, which raised ConfigError for a setting that
    cannot run. With cfg.jobs above 1 and more than one (RIS size, trial)
    unit, the units run on a pool of at most cfg.jobs worker processes, no
    more than the units or CPUs; the rows are the same for any jobs.

    Under glibc, each call sets the calling process's M_TRIM_THRESHOLD to 64
    MB and M_MMAP_THRESHOLD to 32 MB (`_keep_heap`), and both stay set after
    it returns: a trial's freed temporaries then stay in the heap instead of
    being page-faulted in afresh by the next trial."""
    _keep_heap()
    noise_var, eaves_var = calibrate_noise(cfg)
    units = [
        (cfg, ri, t, noise_var, eaves_var)
        for ri in range(len(cfg.ris_sizes))
        for t in range(cfg.trials)
    ]
    if cfg.jobs > 1 and len(units) > 1:
        # imported here: loading multiprocessing costs a one-process sweep
        # about 20 ms and 1.4 MB
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers at the first submit
        workers = min(cfg.jobs, len(units), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _rows(cfg, pool.map(_run_unit, units, chunksize=1))
    return _rows(cfg, map(_run_unit, units))


def _rows(cfg: ExperimentConfig, unit_results) -> list[SweepRow]:
    """Rows in (jammer, RIS size, JSR) order from the units' results in (RIS
    size, trial) order; one RIS size's units are held at a time."""
    rows = {}
    for ri, ris in enumerate(cfg.ris_sizes):
        units = list(itertools.islice(unit_results, cfg.trials))
        for ji, model in enumerate(cfg.jammers):
            for ki, jsr in enumerate(cfg.jsr_grid_db):
                rows[ji, ri, ki] = _aggregate(
                    jsr, model, cfg.settings.topology, ris, [unit[ji][ki] for unit in units]
                )
    return [rows[key] for key in sorted(rows)]


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (int, str)):
        return str(value)
    return format(value, ".6g")


def rows_to_csv(rows: list[SweepRow]) -> str:
    """One line per row: the SweepRow field of each CSV_HEADER column."""
    columns = CSV_HEADER.split(",")
    lines = [CSV_HEADER]
    lines += [",".join(_cell(getattr(r, name)) for name in columns) for r in rows]
    return "\n".join(lines) + "\n"


def summarize(rows: list[SweepRow]) -> str:
    """Per (jammer, RIS size) curve: crossover JSR and peak gain. The
    crossover is the first JSR whose gain exceeds 1.05 while the next grid
    point, where there is one, stays above 1.02; a one-point blip above 1 is
    not one."""
    out = []
    keys = sorted({(r.jammer, r.ris_size) for r in rows}, key=lambda k: (k[0].value, k[1]))
    for jammer, ris in keys:
        curve = sorted(
            (r for r in rows if r.jammer == jammer and r.ris_size == ris),
            key=lambda r: r.jsr_db,
        )
        above = [
            r for r, nxt in zip(curve, curve[1:] + [None])
            if r.gain > 1.05 and (nxt is None or nxt.gain > 1.02)
        ]
        peak = max(curve, key=lambda r: r.gain)
        label = f"{jammer.value:5s} ris={ris:<4d}"
        if above:
            out.append(
                f"{label} crossover at {above[0].jsr_db:+.1f} dB JSR, "
                f"peak gain {peak.gain:.3f} at {peak.jsr_db:+.1f} dB"
            )
        else:
            out.append(f"{label} no antifragile region (peak gain {peak.gain:.3f})")
    return "\n".join(out) + "\n"
