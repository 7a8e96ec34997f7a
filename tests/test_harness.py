"""Harness tests: INI parsing, calibration, sweep aggregation, CSV output,
and seed-stable parallel execution."""

import concurrent.futures
import configparser
import os
import re
from dataclasses import replace
from enum import Enum
from functools import lru_cache

import numpy as np
import pytest

import risjam
from risjam import channel as ch
from risjam import harness
from risjam import pipeline as pl
from risjam.harness import (
    _SCHEMA,
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    SweepRow,
    calibrate_noise,
    loads_config,
    rows_to_csv,
    run_sweep,
    summarize,
)
from risjam.jammer import JammerModel, PathTopology
from risjam.pipeline import OrthogonalityMode, SnrMode
from risjam.receiver import JammerClass
from risjam.waveform import Family, ModScheme

SMALL_CONFIG = """
[sweep]
jammers = drfm, ps
topology = source_aware
orthogonality = temporal
ris_sizes = 16
jsr_db = 0, 10
trials = 3
seed = 7

[link]
baseline_snr_db = 7.0

[adaptation]
fixed_rate = 0.94
"""


# one non-default value per schema key
NON_DEFAULT = {
    ("sweep", "jammers"): "ps",
    ("sweep", "topology"): "ris_aware",
    ("sweep", "orthogonality"): "spatial",
    ("sweep", "ris_sizes"): "32",
    ("sweep", "jsr_db"): "0, 5",
    ("sweep", "trials"): "7",
    ("sweep", "seed"): "5",
    ("sweep", "jobs"): "2",
    ("link", "d_sr"): "10",
    ("link", "d_rd"): "5",
    ("link", "path_loss_exp"): "2.0",
    ("link", "corr_rate"): "0.1",
    ("link", "rician_k"): "1.5",
    ("link", "path_count"): "2",
    ("link", "baseline_snr_db"): "9",
    ("link", "snr_mode"): "faded",
    ("link", "tx_power_dbm"): "25",
    ("link", "bandwidth_hz"): "2",
    ("jammer", "power_cap_dbm"): "30",
    ("jammer", "delay"): "100",
    ("jammer", "eavesdrop_snr_db"): "20",
    ("jammer", "eaves_corr"): "0.2",
    ("jammer", "d_e1"): "20",
    ("jammer", "d_j1"): "5",
    ("jammer", "d_j2"): "5",
    ("receiver", "frame_len"): "2048",
    ("receiver", "pilot_len"): "32",
    ("receiver", "antennas"): "4",
    ("receiver", "sim_threshold"): "0.9",
    ("receiver", "inversion_threshold"): "0.3",
    ("receiver", "peak_significance"): "0.2",
    ("receiver", "flip_threshold"): "0.45",
    ("adaptation", "delta"): "-0.01",
    ("adaptation", "fixed_rate"): "0.94",
    ("adaptation", "max_order"): "16",
    ("adaptation", "base_family"): "ask",
}


# NON_DEFAULT's values as a setting built in code holds them
IN_CODE = {
    ("sweep", "jammers"): (JammerModel.PS,),
    ("sweep", "topology"): PathTopology.RIS_AWARE,
    ("sweep", "orthogonality"): OrthogonalityMode.SPATIAL,
    ("sweep", "ris_sizes"): (32,),
    ("sweep", "jsr_db"): (0.0, 5.0),
    ("sweep", "trials"): 7,
    ("sweep", "seed"): 5,
    ("sweep", "jobs"): 2,
    ("link", "d_sr"): 10.0,
    ("link", "d_rd"): 5.0,
    ("link", "path_loss_exp"): 2.0,
    ("link", "corr_rate"): 0.1,
    ("link", "rician_k"): 1.5,
    ("link", "path_count"): 2,
    ("link", "baseline_snr_db"): 9.0,
    ("link", "snr_mode"): SnrMode.FADED,
    ("link", "tx_power_dbm"): 25.0,
    ("link", "bandwidth_hz"): 2.0,
    ("jammer", "power_cap_dbm"): 30.0,
    ("jammer", "delay"): 100,
    ("jammer", "eavesdrop_snr_db"): 20.0,
    ("jammer", "eaves_corr"): 0.2,
    ("jammer", "d_e1"): 20.0,
    ("jammer", "d_j1"): 5.0,
    ("jammer", "d_j2"): 5.0,
    ("receiver", "frame_len"): 2048,
    ("receiver", "pilot_len"): 32,
    ("receiver", "antennas"): 4,
    ("receiver", "sim_threshold"): 0.9,
    ("receiver", "inversion_threshold"): 0.3,
    ("receiver", "peak_significance"): 0.2,
    ("receiver", "flip_threshold"): 0.45,
    ("adaptation", "delta"): -0.01,
    ("adaptation", "fixed_rate"): 0.94,
    ("adaptation", "max_order"): 16,
    ("adaptation", "base_family"): Family.ASK,
}


class TestConfigParsing:
    def test_defaults(self):
        cfg = loads_config("[sweep]\ntrials = 2\n")
        assert cfg.trials == 2
        assert cfg.seed == 1
        assert cfg.jammers == (JammerModel.DRFM, JammerModel.PS, JammerModel.AS)
        assert cfg.settings.topology == PathTopology.SOURCE_AWARE
        assert cfg.settings.orthogonality == OrthogonalityMode.TEMPORAL
        assert cfg.ris_sizes == (64,)
        assert cfg.settings.snr_mode == "pinned"

    def test_full_round_trip(self):
        cfg = loads_config(SMALL_CONFIG)
        assert cfg.jammers == (JammerModel.DRFM, JammerModel.PS)
        assert cfg.jsr_grid_db == (0.0, 10.0)
        assert cfg.ris_sizes == (16,)
        assert cfg.settings.fixed_rate == pytest.approx(0.94)
        assert cfg.settings.link.element_count == 16

    def test_reference_ris_size_held_once(self):
        # settings.link is the link run_trial sees when called directly
        assert ExperimentConfig(ris_sizes=(16,)).settings.link.element_count == 16
        cfg = replace(loads_config(SMALL_CONFIG), ris_sizes=(32, 64))
        assert cfg.settings.link.element_count == 32

    def test_every_key_changes_the_config(self):
        default = loads_config("")
        for (section, key), value in NON_DEFAULT.items():
            cfg = loads_config(f"[{section}]\n{key} = {value}\n")
            assert cfg != default, f"[{section}] {key} = {value} has no effect"
        assert set(NON_DEFAULT) == set(_SCHEMA)

    def test_range_syntax(self):
        cfg = loads_config("[sweep]\njsr_db = -10:20:2.5\n")
        grid = np.asarray(cfg.jsr_grid_db)
        assert grid[0] == -10.0 and grid[-1] == 20.0
        assert np.allclose(np.diff(grid), 2.5)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            loads_config("[nope]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            loads_config("[sweep]\nwidgets = 3\n")

    def test_bad_enum_rejected(self):
        with pytest.raises(ConfigError):
            loads_config("[sweep]\njammers = laser\n")

    def test_bad_snr_mode_rejected(self):
        with pytest.raises(ConfigError):
            loads_config("[link]\nsnr_mode = wobbly\n")
        with pytest.raises(ConfigError, match="snr_mode"):
            replace(ExperimentConfig().settings, snr_mode="wobbly")

    def test_snr_mode_is_case_insensitive(self):
        for text, mode in (("Pinned", SnrMode.PINNED), ("FADED", SnrMode.FADED)):
            assert loads_config(f"[link]\nsnr_mode = {text}\n").settings.snr_mode is mode

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            loads_config("[sweep]\ntrials = many\n")

    def test_non_finite_floats_rejected_in_code(self):
        settings = ExperimentConfig().settings
        with pytest.raises(ConfigError, match="corr_rate must be finite"):
            replace(settings.link, corr_rate=float("nan"))
        with pytest.raises(ConfigError, match="rician_k must be finite"):
            replace(settings.rician, rician_k=float("inf"))
        for name in ("delta", "peak_significance", "flip_threshold"):
            with pytest.raises(ConfigError, match=name):
                replace(settings, **{name: float("nan")})
        with pytest.raises(ConfigError, match="bandwidth_hz"):
            replace(settings, bandwidth_hz=float("inf"))
        with pytest.raises(ConfigError, match="jsr_grid_db"):
            ExperimentConfig(jsr_grid_db=(0.0, np.float64("-inf")))

    def test_non_integers_rejected_in_code(self):
        # each would pass construction and fail mid-sweep with a TypeError
        settings = ExperimentConfig().settings
        for name, value in (("ris_sizes", (16.5,)), ("trials", 1.5), ("jobs", 1.5)):
            with pytest.raises(ConfigError, match=f"{name} must be an integer"):
                ExperimentConfig(**{name: value})
        spatial = replace(settings, orthogonality="spatial")
        for base, name, value in (
            (settings, "frame_len", 512.5), (settings, "pilot_len", 8.5),
            (spatial, "antennas", 6.5), (settings, "jam_delay", 100.5),
        ):
            with pytest.raises(ConfigError, match=f"{name} must be an integer"):
                replace(base, **{name: value})
        with pytest.raises(ConfigError, match="frame_len must be an integer, got None"):
            replace(settings, frame_len=None)
        with pytest.raises(ConfigError, match="element_count must be an integer"):
            replace(settings.link, element_count=64.0)
        with pytest.raises(ConfigError, match="path_count must be an integer"):
            replace(settings.rician, path_count="1")
        # numpy integers are integers, and a delay may be left to its default
        cfg = ExperimentConfig(ris_sizes=(np.int64(16),), trials=np.int32(2))
        assert replace(cfg.settings, frame_len=np.int64(512), jam_delay=None).tau == 256

    def test_one_error_type_wherever_the_field_lives(self):
        assert pl.ConfigError is harness.ConfigError is risjam.channel.ConfigError
        assert issubclass(ConfigError, ValueError)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigError):
            loads_config("[sweep]\ntrials = 0\n")
        with pytest.raises(ConfigError):
            loads_config("[sweep]\njobs = 0\n")



def _ini(entries: dict) -> str:
    """INI text of {(section, key): value}, one block per section."""
    sections = {}
    for (section, key), value in entries.items():
        sections.setdefault(section, {})[key] = value
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for section, keys in sections.items()
    )


# a small sweep: 3 jammers x 3 JSRs x 3 trials at RIS size 16
RUN_BASE = {
    ("sweep", "jammers"): "drfm, ps, as",
    ("sweep", "ris_sizes"): "16",
    ("sweep", "jsr_db"): "0, 10, 20",
    ("sweep", "trials"): "3",
    ("sweep", "seed"): "7",
}
RIS_AWARE = {("sweep", "topology"): "ris_aware"}
SPATIAL = {("sweep", "orthogonality"): "spatial"}
# JSR targets far above what the jammer's power cap buys, so every cell
# clamps: the cap then sets the jammer's power, and the legit received power
# the JSR it reaches, which is how the link budget reaches a pinned cell
CLAMPED = {("jammer", "power_cap_dbm"): "20", ("sweep", "jsr_db"): "40, 50, 60"}
# keys whose NON_DEFAULT value leaves RUN_BASE's sweep as it is: a value and
# the context they are live in
LIVE = {
    # the RIS-aware jammer eavesdrops through the RIS cascade
    ("link", "corr_rate"): ("0.9", RIS_AWARE),
    ("jammer", "eaves_corr"): ("1", RIS_AWARE),
    ("jammer", "d_e1"): ("100", RIS_AWARE),
    ("jammer", "d_j2"): ("1000", RIS_AWARE),
    # a transmit path loss the jammer's power cap cannot make up for
    ("jammer", "d_j1"): ("1000", {}),
    # the fewest antennas spatial orthogonality allows (at 16, this short
    # sweep's cells all reach the outcomes they reach at the default 8)
    ("receiver", "antennas"): ("4", SPATIAL),
    ("receiver", "sim_threshold"): ("0.5", {}),
    ("receiver", "inversion_threshold"): ("0.9", {}),
    ("receiver", "peak_significance"): ("1", {}),
    ("receiver", "flip_threshold"): ("0.9", {}),
    ("link", "d_sr"): ("10", CLAMPED),
    ("link", "d_rd"): ("5", CLAMPED),
    ("link", "path_loss_exp"): ("2.0", CLAMPED),
    ("link", "tx_power_dbm"): ("25", CLAMPED),
    # a baseline SNR whose jam-free choice is 64-ary, above the cap of 16
    ("adaptation", "max_order"): ("16", {("link", "baseline_snr_db"): "40"}),
}


def _run(entries: dict) -> str:
    """RUN_BASE's sweep with `entries` set, as CSV without its label columns,
    which echo the config."""
    return _label_free_csv(_ini(RUN_BASE | entries))


@lru_cache(maxsize=None)
def _label_free_csv(text: str) -> str:
    columns = CSV_HEADER.split(",")
    labels = {columns.index("jammer"), columns.index("topology")}
    csv = rows_to_csv(run_sweep(loads_config(text)))
    return "\n".join(
        ",".join(cell for i, cell in enumerate(line.split(",")) if i not in labels)
        for line in csv.splitlines()
    )


def _enum_keys():
    """Schema keys whose type is an Enum or a tuple of one, with that Enum."""
    for key, (cls, name) in _SCHEMA.items():
        kind = ch.field_types(cls)[name][0]
        if issubclass(kind, Enum):
            yield key, kind


def _enum_fields():
    """(dataclass, field, Enum, is a tuple) of each field of the sweep's
    settings whose entry type is an Enum, read from the field-type table."""
    for cls in (pl.TrialSettings, ExperimentConfig):
        for name, (kind, many, _) in ch.field_types(cls).items():
            if issubclass(kind, Enum):
                yield pytest.param(cls, name, kind, many, id=name)


def _with(cls, name, value):
    """The default sweep config with field `name` of its `cls` part set to
    value in code."""
    if cls is ExperimentConfig:
        return ExperimentConfig(**{name: value})
    settings = ExperimentConfig().settings
    if cls is not pl.TrialSettings:
        part = "link" if cls is ch.RisLinkConfig else "rician"
        name, value = part, replace(getattr(settings, part), **{name: value})
    return ExperimentConfig(settings=replace(settings, **{name: value}))


class TestEnumFieldRule:
    """Every Enum-typed setting passes one rule, built in code or read from
    INI text: a member's value in any case is stored as the member itself,
    and text naming no member raises a ConfigError naming the field."""

    @pytest.mark.parametrize("cls,name,enum_cls,many", list(_enum_fields()))
    def test_one_rule_in_code_and_ini(self, cls, name, enum_cls, many):
        keys = [key for key, target in _SCHEMA.items() if target == (cls, name)]
        builds = [lambda text: _with(cls, name, (text,) if many else text)]
        builds += [lambda text, key=key: loads_config(_ini({key: text})) for key in keys]
        for build in builds:
            with pytest.raises(ConfigError, match=name):
                build("laser")
            for member in enum_cls:
                cfg = build(member.value.upper())
                value = getattr(cfg if cls is ExperimentConfig else cfg.settings, name)
                assert (value[0] if many else value) is member
                # the stored member runs a trial whose scheme prints
                settings = replace(cfg.settings, frame_len=512)
                rng = np.random.default_rng(5)
                r = pl.run_trial(settings, 10.0, cfg.jammers[0], rng, *calibrate_noise(cfg))
                assert str(r.scheme)


def _stored(cfg, cls, name):
    """The value a config holds in field `name` of its `cls` part."""
    part = {
        ExperimentConfig: cfg, pl.TrialSettings: cfg.settings,
        ch.RisLinkConfig: cfg.settings.link, ch.RicianParams: cfg.settings.rician,
    }[cls]
    return getattr(part, name)


class TestSharedFieldTable:
    """The INI loader parses each key by the field-type table the field rule
    reads: every loaded value, or each entry of a loaded tuple, has its
    field's declared entry type, and the loaded config is the one built in
    code."""

    @pytest.mark.parametrize("key", list(_SCHEMA), ids="_".join)
    def test_loaded_value_has_the_declared_type(self, key):
        cls, name = _SCHEMA[key]
        kind, many, _ = ch.field_types(cls)[name]
        cfg = loads_config(_ini({key: NON_DEFAULT[key]}))
        value, want = _stored(cfg, cls, name), IN_CODE[key]
        assert all(type(v) is kind for v in (value if many else (value,)))
        assert value == want and type(value) is type(want)
        assert cfg == _with(cls, name, want)

    def test_declared_types(self):
        assert set(IN_CODE) == set(_SCHEMA)
        cfg = loads_config("[sweep]\nris_sizes = 16.0, 3.2e1\n[link]\nd_sr = 10\n")
        assert cfg.ris_sizes == (16, 32) and all(type(v) is int for v in cfg.ris_sizes)
        assert type(cfg.settings.link.d_sr) is float and cfg.settings.link.d_sr == 10.0
        cfg = loads_config("[sweep]\njammers = PS, as\n[adaptation]\nbase_family = QAM\n")
        assert cfg.jammers == (JammerModel.PS, JammerModel.AS)
        assert cfg.settings.base_family is Family.QAM

    @pytest.mark.parametrize("key", [k for k, (cls, name) in _SCHEMA.items()
                                     if ch.field_types(cls)[name][2]], ids="_".join)
    def test_empty_optional_loads_as_none(self, key):
        cls, name = _SCHEMA[key]
        cfg = loads_config(_ini({key: ""}))
        assert _stored(cfg, cls, name) is None
        assert cfg == _with(cls, name, None)


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_ini_reference_loads_and_names_every_key():
    with open(README) as fh:
        block = re.search(r"```ini\n(.*?)```", fh.read(), re.S).group(1)
    loads_config(block)
    parser = configparser.ConfigParser()
    parser.read_string(block)
    keys = {(section, key) for section in parser.sections() for key in parser[section]}
    assert keys == set(_SCHEMA)


def test_readme_root_export_list_is_the_package_root():
    """The first list under "Library use" names exactly `risjam.__all__`,
    each name with or without a dotted module path or an argument list."""
    with open(README) as fh:
        section = fh.read().split("\n## Library use\n", 1)[1]
    listing = re.search(r"^- .*?(?=\n\n)", section, re.S | re.M).group(0)
    names = set(re.findall(r"`(?:\w+\.)*(\w+)[`(]", listing))
    assert names == set(risjam.__all__)
    for name in names:
        assert hasattr(risjam, name)


class TestEveryKeyChangesTheRun:
    @pytest.mark.parametrize(
        "key", [k for k in NON_DEFAULT if k != ("sweep", "jobs")], ids="_".join
    )
    def test_key_changes_the_sweep(self, key):
        value, context = LIVE.get(key, (NON_DEFAULT[key], {}))
        assert _run(context | {key: value}) != _run(context), (
            f"[{key[0]}] {key[1]} = {value} does not change the run"
        )

    def test_live_contexts_hold(self):
        """CLAMPED clamps every cell at each link-budget key's value and at
        the default, and a pinned 40 dB baseline's jam-free choice is above
        order 16."""
        for key in [k for k, (_, context) in LIVE.items() if context is CLAMPED]:
            for entries in (CLAMPED, CLAMPED | {key: LIVE[key][0]}):
                rows = run_sweep(loads_config(_ini(RUN_BASE | entries)))
                assert all(r.clamped_fraction == 1.0 for r in rows)
        cfg = loads_config(_ini(RUN_BASE | {("link", "baseline_snr_db"): "40"}))
        assert pl.draw_link(cfg.settings, np.random.default_rng(0), None).base.scheme.order > 16

    @pytest.mark.parametrize(
        "key,enum_cls", [pytest.param(k, cls, id="_".join(k)) for k, cls in _enum_keys()]
    )
    def test_every_enum_value_runs_differently(self, key, enum_cls):
        runs = [_run({key: member.value}) for member in enum_cls]
        assert len(set(runs)) == len(runs), f"[{key[0]}] {key[1]} has a dead value"

    @pytest.mark.parametrize("context", [{}, SPATIAL], ids=["temporal", "spatial"])
    def test_jobs_changes_nothing(self, context):
        assert _run(context | {("sweep", "jobs"): "2"}) == _run(context)


class TestCalibration:
    """The destination floor is calibrated in faded mode, the only mode that
    reads it; pinned mode sets each link draw's floor and draws nothing here."""

    def test_noise_floor_hits_baseline(self):
        cfg = loads_config("[sweep]\ntrials = 1\n[link]\nsnr_mode = faded\n")
        noise_var, eaves_var = calibrate_noise(cfg)
        assert noise_var > 0 and eaves_var > 0
        # stronger baseline demands a lower noise floor
        cfg_hi = loads_config(
            "[sweep]\ntrials = 1\n[link]\nsnr_mode = faded\nbaseline_snr_db = 17\n"
        )
        assert calibrate_noise(cfg_hi)[0] < noise_var

    def test_deterministic(self):
        cfg = loads_config(SMALL_CONFIG.replace("[link]\n", "[link]\nsnr_mode = faded\n"))
        assert cfg.settings.snr_mode == "faded"
        assert calibrate_noise(cfg) == calibrate_noise(cfg)

    def test_pinned_draws_nothing(self, monkeypatch):
        def sample_realization(*args):
            raise AssertionError("pinned calibration drew a channel")

        monkeypatch.setattr(harness.ch, "sample_realization", sample_realization)
        cfg = loads_config("[sweep]\ntrials = 1\n")
        assert calibrate_noise(cfg) == (None, cfg.settings.eaves_noise_watt)


@pytest.fixture(scope="module")
def rows():
    return run_sweep(loads_config(SMALL_CONFIG))


class TestSweep:
    def test_grid_coverage(self, rows):
        assert len(rows) == 4  # 2 jammers x 1 ris x 2 jsr
        combos = {(r.jammer, r.jsr_db) for r in rows}
        assert combos == {
            (JammerModel.DRFM, 0.0),
            (JammerModel.DRFM, 10.0),
            (JammerModel.PS, 0.0),
            (JammerModel.PS, 10.0),
        }

    def test_rates_are_fractions(self, rows):
        for r in rows:
            assert 0.0 <= r.detect_rate <= 1.0
            assert 0.0 <= r.classify_rate <= 1.0
            assert 0.0 < r.payload_fraction <= 1.0
            assert r.t_baseline > 0

    def test_parallel_matches_serial(self, rows):
        par = run_sweep(replace(loads_config(SMALL_CONFIG), jobs=2))
        assert rows_to_csv(par) == rows_to_csv(rows)

    def test_two_ris_sizes_identical_for_any_jobs(self):
        cfg = replace(loads_config(SMALL_CONFIG), ris_sizes=(16, 32))
        csvs = [rows_to_csv(run_sweep(replace(cfg, jobs=jobs))) for jobs in (1, 2, 3)]
        assert csvs[0] == csvs[1] == csvs[2]
        assert len(csvs[0].splitlines()) == 1 + 2 * 2 * 2

    def test_pool_starts_no_more_workers_than_units_or_cpus(self, monkeypatch):
        """A process pool forks all its workers at the first submit, so a
        2-unit sweep asks for at most 2 whatever `jobs` says, and a 1-CPU
        machine for 1. The fake pool records its size and maps in-process."""
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        cfg = replace(loads_config(SMALL_CONFIG), trials=2)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert rows_to_csv(run_sweep(replace(cfg, jobs=10_000))) == rows_to_csv(run_sweep(cfg))
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        run_sweep(replace(cfg, jobs=2))
        assert sizes == [2, 1]

    def test_repeat_is_identical(self, rows):
        again = run_sweep(loads_config(SMALL_CONFIG))
        assert rows_to_csv(again) == rows_to_csv(rows)


def _csv_rows(cfg) -> dict:
    """(jammer, RIS size, JSR) -> the cell's CSV line."""
    rows = run_sweep(cfg)
    return {(r.jammer, r.ris_size, r.jsr_db): line
            for r, line in zip(rows, rows_to_csv(rows).splitlines()[1:])}


class TestStreamKeys:
    """Every stream is keyed by what it stands for, so in pinned mode an edit
    of the grid changes no row it keeps."""

    BASE = ExperimentConfig(ris_sizes=(16, 32), jsr_grid_db=(0.0, 10.0), trials=3, seed=5)

    @pytest.mark.parametrize("topology", list(PathTopology), ids=lambda t: t.value)
    @pytest.mark.parametrize("edit", [
        {"jammers": (JammerModel.AS, JammerModel.DRFM, JammerModel.PS)},
        {"jammers": (JammerModel.PS,)},
        {"jsr_grid_db": (-5.0, 0.0, 5.0, 10.0)},
        {"jsr_grid_db": (10.0,)},
        {"ris_sizes": (32, 16)},
        {"ris_sizes": (32,)},
    ], ids=lambda e: "_".join(e))
    def test_a_grid_edit_keeps_every_common_row(self, topology, edit):
        base = replace(self.BASE, settings=replace(self.BASE.settings, topology=topology))
        before, after = _csv_rows(base), _csv_rows(replace(base, **edit))
        common = before.keys() & after.keys()
        assert common and {k: before[k] for k in common} == {k: after[k] for k in common}

    def test_an_unclamped_cell_is_the_same_at_every_ris_size(self, monkeypatch):
        """Under pinned source_aware links the RIS size reaches a cell only
        through the jammer's power cap: an unclamped cell's trial result is
        the same at every RIS size."""
        cfg = replace(self.BASE, ris_sizes=(16, 64, 256), jsr_grid_db=(0.0, 10.0, 20.0),
                      trials=20)
        assert cfg.settings.topology == PathTopology.SOURCE_AWARE
        assert cfg.settings.snr_mode == SnrMode.PINNED
        units, inner = {}, harness._run_unit

        def run_unit(args):
            units[args[1:3]] = inner(args)
            return units[args[1:3]]

        monkeypatch.setattr(harness, "_run_unit", run_unit)
        run_sweep(cfg)
        compared = 0
        for t in range(cfg.trials):
            for ji in range(len(cfg.jammers)):
                for ki in range(len(cfg.jsr_grid_db)):
                    cells = [units[ri, t][ji][ki] for ri in range(len(cfg.ris_sizes))]
                    unclamped = [r for r in cells if not r.clamped]
                    assert all(r == unclamped[0] for r in unclamped)
                    compared += len(unclamped) - 1
        assert compared >= 100


# faded links and adaptive coding, so each cell's trials differ in every
# column that is averaged; 12 trials reach numpy's 8-element pairwise blocks
ORACLE_CONFIG = """
[sweep]
jammers = drfm, as
ris_sizes = 16, 32
jsr_db = 5, 15
trials = 12
seed = 3

[link]
snr_mode = faded

[jammer]
power_cap_dbm = 15
"""


def _trial(**fields) -> pl.TrialResult:
    """A trial with the given fields; the rest are those of an undetected
    psk4 trial at rate 0.94 with no delay estimate."""
    return pl.TrialResult(**{
        "t_baseline": 1.0, "t_jammed": 1.0, "detected": False, "jammer_class": None,
        "classified_correct": False, "tau_err": np.nan, "scheme": ModScheme(Family.PSK, 4),
        "code_rate": 0.94, "payload_fraction": 1.0, "clamped": False, **fields,
    })


class TestAggregation:
    def test_rows_are_the_means_of_direct_trials(self):
        """Each cell recomputed from one-cell run_cells calls on the harness's
        generators: the trial's shared link draw and the cell's own jammer
        stream; every mean is the 1-D numpy mean over the cell's trials."""
        cfg = loads_config(ORACLE_CONFIG)
        noise_var, eaves_var = calibrate_noise(cfg)
        rows = {(r.jammer, r.ris_size, r.jsr_db): r for r in run_sweep(cfg)}
        n, estimated = cfg.trials, 0
        for ris in cfg.ris_sizes:
            settings = replace(cfg.settings, link=replace(cfg.settings.link, element_count=ris))
            links = [
                pl.draw_link(settings, harness._trial_rng(cfg, t), noise_var) for t in range(n)
            ]
            for model in cfg.jammers:
                for jsr in cfg.jsr_grid_db:
                    cells = [[(jsr, model, harness._trial_rng(cfg, t, model))] for t in range(n)]
                    res = [pl.run_cells(settings, cells[t], eaves_var, links[t])[0] for t in range(n)]
                    row = rows[model, ris, jsr]
                    t_l = np.array([r.t_baseline for r in res])
                    t_j = np.array([r.t_jammed for r in res])
                    assert row.t_baseline == np.mean(t_l)
                    assert row.t_jammed == np.mean(t_j)
                    assert row.gain == np.mean(t_j) / np.mean(t_l)
                    assert row.payload_fraction == np.mean([r.payload_fraction for r in res])
                    gain = np.mean(t_j) / np.mean(t_l)
                    assert row.stderr_gain == (
                        np.std(t_j - gain * t_l, ddof=1) / (np.sqrt(n) * np.mean(t_l))
                    )
                    errs = [r.tau_err for r in res if not np.isnan(r.tau_err)]
                    if errs:
                        assert row.tau_err == np.mean(errs)
                    else:
                        assert np.isnan(row.tau_err)
                    estimated += len(errs)
                    attempted = [r for r in res if r.jammer_class is not None]
                    assert row.detect_rate == sum(r.detected for r in res) / n
                    assert row.classify_rate == (
                        sum(r.classified_correct for r in attempted) / len(attempted)
                        if attempted else 0.0
                    )
                    assert row.clamped_fraction == sum(r.clamped for r in res) / n
                    # the oracle sees summation order only where the trials differ
                    assert len(set(t_l)) > 1 and len(set(t_j)) > 1
        assert estimated > 0

    @staticmethod
    def _row(trials):
        return harness._aggregate(0.0, JammerModel.DRFM, PathTopology.SOURCE_AWARE, 64, trials)

    def _synthetic_row(self, t_l, t_j):
        return self._row([_trial(t_baseline=a, t_jammed=b) for a, b in zip(t_l, t_j)])

    def test_stderr_is_the_ratio_of_means_standard_error(self):
        """`gain` is mean(t_j) / mean(t_l); its standard error tracks a
        bootstrap of that ratio where t_l varies across trials, which the
        standard error of the per-trial ratios t_j / t_l does not. With one
        t_l for every trial, as under pinned SNR, the two agree."""
        rng = np.random.default_rng(17)
        n = 200
        t_l = rng.uniform(0.25, 1.75, n)
        t_j = 0.6 * rng.uniform(0.25, 1.75, n)
        row = self._synthetic_row(t_l, t_j)
        assert row.gain == np.mean(t_j) / np.mean(t_l)
        idx = rng.integers(0, n, (4000, n))
        boot = np.std(t_j[idx].mean(axis=1) / t_l[idx].mean(axis=1), ddof=1)
        assert row.stderr_gain == pytest.approx(boot, rel=0.06)
        per_trial = np.std(t_j / t_l, ddof=1) / np.sqrt(n)
        assert per_trial > 1.3 * boot
        pinned = self._synthetic_row(np.full(n, 0.8), t_j)
        assert pinned.stderr_gain == pytest.approx(np.std(t_j / 0.8, ddof=1) / np.sqrt(n), rel=1e-12)

    def test_a_cell_with_nothing_to_average_reads_its_empty_value(self):
        """No classified trial: classify_rate 0.0. No delay estimate: tau_err
        nan. One trial: stderr_gain 0.0."""
        row = self._row([_trial(detected=True)])
        assert (row.classify_rate, row.stderr_gain) == (0.0, 0.0)
        assert np.isnan(row.tau_err)
        # each average skips the trials that have nothing for it
        row = self._row([
            _trial(detected=True),
            _trial(jammer_class=JammerClass.PS, classified_correct=True, tau_err=2.0),
        ])
        assert (row.classify_rate, row.tau_err) == (1.0, 2.0)

    def test_modal_ties_go_to_the_smallest_name_and_lowest_rate(self):
        # two of each; the first seen are psk4 and 0.94
        trials = [
            _trial(scheme=ModScheme(Family.PSK, order), code_rate=rate)
            for order, rate in ((4, 0.94), (16, 0.5), (16, 0.94), (4, 0.5))
        ]
        row = self._row(trials)
        assert (row.modulation, row.code_rate) == ("psk16", 0.5)


class TestOutput:
    def test_csv_header_exact(self):
        assert CSV_HEADER == (
            "jsr_db,jammer,topology,ris_size,t_baseline,t_jammed,gain,"
            "detect_rate,classify_rate,tau_err,modulation,code_rate,"
            "payload_fraction,stderr_gain"
        )

    def test_csv_columns_are_row_fields(self):
        fields = set(SweepRow.__dataclass_fields__)
        assert [c for c in CSV_HEADER.split(",") if c not in fields] == []

    def test_csv_rows_carry_trial_topology(self):
        base = ExperimentConfig()
        cfg = ExperimentConfig(
            jammers=(JammerModel.DRFM,), ris_sizes=(16,), jsr_grid_db=(10.0,), trials=1,
            settings=replace(base.settings, topology=PathTopology.RIS_AWARE),
        )
        lines = rows_to_csv(run_sweep(cfg)).splitlines()[1:]
        assert lines and all(line.split(",")[2] == "ris_aware" for line in lines)

    def test_csv_shape(self):
        rows = run_sweep(loads_config(SMALL_CONFIG))
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(rows)
        assert all(len(line.split(",")) == 14 for line in lines[1:])

    def test_summary_mentions_each_curve(self):
        """One line per curve, with criterion 7's crossover: the first gain
        above 1.05 whose next grid point stays above 1.02."""
        curves = {
            (JammerModel.AS, 64): (1.013, 0.99, 1.04, 1.0),  # blips, never crosses
            (JammerModel.DRFM, 64): (1.08, 1.0, 1.06, 1.03),  # a blip, then a crossing
            (JammerModel.DRFM, 128): (1.0, 1.06, 1.021, 1.2),  # sustained at once
            (JammerModel.PS, 64): (0.9, 0.95, 1.0, 1.06),  # crosses at the last point
        }
        rows = [
            harness._aggregate(jsr, model, PathTopology.SOURCE_AWARE, ris, [_trial(t_jammed=g)])
            for (model, ris), gains in curves.items()
            for jsr, g in zip((-5.0, 0.0, 5.0, 10.0), gains)
        ]
        assert summarize(rows[::-1]).splitlines() == [
            "as    ris=64   no antifragile region (peak gain 1.040)",
            "drfm  ris=64   crossover at +5.0 dB JSR, peak gain 1.080 at -5.0 dB",
            "drfm  ris=128  crossover at +0.0 dB JSR, peak gain 1.200 at +10.0 dB",
            "ps    ris=64   crossover at +10.0 dB JSR, peak gain 1.060 at +10.0 dB",
        ]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(trials=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(ris_sizes=())
