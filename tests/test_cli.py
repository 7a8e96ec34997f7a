"""CLI tests: argument handling, exit codes, CSV emission, and overrides."""

import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import risjam
from risjam.cli import main
from risjam.harness import CSV_HEADER
from risjam.waveform import DEFAULT_RS_TABLE

CONFIG = """
[sweep]
jammers = drfm
ris_sizes = 16
jsr_db = 0, 10
trials = 2
seed = 3

[adaptation]
fixed_rate = 0.94
"""


# a one-cell sweep, so a config that does run finishes quickly
ONE_CELL = "[sweep]\njammers = drfm\nris_sizes = 16\njsr_db = 10\ntrials = 1\n"


def _write_config(tmp_path, text=CONFIG):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return str(path)


class TestCli:
    def test_success_writes_csv(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out.csv"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_missing_config_is_exit_1(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_key_is_exit_1(self, tmp_path):
        cfg = _write_config(tmp_path, "[sweep]\nbogus = 1\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1

    @pytest.mark.parametrize(
        "text,flags",
        [
            ("[receiver]\nframe_len = 32\n", []),
            ("[receiver]\nframe_len = 64\npilot_len = 64\n", []),
            ("[sweep]\northogonality = spatial\n[receiver]\nantennas = 1\n", []),
            ("[sweep]\northogonality = spatial\n[receiver]\nantennas = 2\n", []),
            (ONE_CELL + "orthogonality = spatial\n[receiver]\nantennas = 3\n", []),
            ("[jammer]\ndelay = 5000\n", []),
            ("[jammer]\ndelay = 4096\n", []),
            ("[adaptation]\nmax_order = 3\n", []),
            ("[adaptation]\nmax_order = 128\n", []),
            ("[link]\ncarrier_hz = 28e9\n", []),
            ("[jammer]\npower_floor_dbm = 0\n", []),
            ("[adaptation]\nfixed_rate = 0.5\n", []),
            ("[receiver]\nsim_threshold = 1.5\n", []),
            ("[receiver]\ninversion_threshold = 0\n", []),
            ("[receiver]\npilot_len = 0\n", []),
            ("[receiver]\nframe_len = 5\npilot_len = 1\n", []),
            ("[jammer]\ndrfm_gain = 0\n", []),
            ("[jammer]\neaves_corr = 1.5\n", []),
            ("[jammer]\neaves_corr = -0.1\n", []),
            ("[jammer]\nd_e1 = 0\n", []),
            ("[jammer]\nd_e1 = 1e-200\n", []),
            ("[jammer]\nd_j1 = -7\n", []),
            ("[sweep]\ntopology = ris_aware\n[jammer]\nd_j2 = 0\n", []),
            ("[adaptation]\ndelta = 0\n", []),
            ("[adaptation]\ndelta = 0.01\n", []),
            ("[sweep]\nseed = -1\n", []),
            ("", ["--seed", "-1"]),
            (ONE_CELL + "[link]\nbandwidth_hz = 0\n", []),
            ("[sweep]\northogonality = none\n", []),
            (ONE_CELL + "[link]\ntx_power_dbm = 4000\n", []),
            (ONE_CELL + "[link]\ntx_power_dbm = -4000\n", []),
            (ONE_CELL + "[jammer]\npower_cap_dbm = 4000\n", []),
            (ONE_CELL + "[link]\npath_loss_exp = 200\n", []),
            (ONE_CELL + "[link]\ncorr_rate = nan\n", []),
            (ONE_CELL + "[link]\ncorr_rate = inf\n", []),
            (ONE_CELL + "[link]\nrician_k = nan\n", []),
            (ONE_CELL.replace("jsr_db = 10", "jsr_db = nan"), []),
            (ONE_CELL + "[adaptation]\ndelta = nan\n", []),
            (ONE_CELL + "[receiver]\npeak_significance = nan\n", []),
            (ONE_CELL + "[receiver]\nflip_threshold = nan\n", []),
            (ONE_CELL + "[link]\nbandwidth_hz = inf\n", []),
            (ONE_CELL.replace("jsr_db = 10", "jsr_db = 4000"), []),
            (ONE_CELL.replace("jsr_db = 10", "jsr_db = -4000"), []),
            (ONE_CELL.replace("ris_sizes = 16", "ris_sizes = inf"), []),
            (ONE_CELL.replace("ris_sizes = 16", "ris_sizes = 1:1e17:1"), []),
            (ONE_CELL.replace("jsr_db = 10", "jsr_db = 0:1e17:1"), []),
            (ONE_CELL.replace("ris_sizes = 16", "ris_sizes = 1000000"), []),
            (ONE_CELL + "orthogonality = spatial\n[receiver]\nantennas = 1000000000000\n", []),
            (ONE_CELL + "[receiver]\nframe_len = 10000000000000\n", []),
            (ONE_CELL + "[link]\npath_count = 10000000000000\n", []),
            (ONE_CELL.replace("ris_sizes = 16", "ris_sizes = 16.7"), []),
            (ONE_CELL.replace("ris_sizes = 16", "ris_sizes = 1:4:0.5"), []),
            (ONE_CELL.replace("jammers = drfm", "jammers = drfm, drfm")
             .replace("jsr_db = 10", "jsr_db = 10, 10"), []),
            (ONE_CELL.replace("jammers = drfm", "jammers = 1:2:1"), []),
            ("[link]\nsnr_mode = wobbly\n", []),
        ],
        ids=[
            "frame_below_pilot", "frame_equals_pilot", "spatial_one_antenna",
            "spatial_two_antennas", "spatial_three_antennas", "delay_past_frame",
            "delay_at_frame_end", "max_order_3", "max_order_128", "carrier_hz", "power_floor_dbm",
            "fixed_rate_off_table", "sim_threshold_above_1", "inversion_threshold_0",
            "pilot_len_0", "frame_below_onset_guard", "drfm_gain_0",
            "eaves_corr_above_1", "eaves_corr_negative", "d_e1_0", "d_e1_loss_overflows",
            "d_j1_negative", "d_j2_0_ris_aware", "delta_0", "delta_positive",
            "seed_negative", "seed_flag_negative", "bandwidth_0", "orthogonality_none",
            "tx_power_overflows", "tx_power_underflows", "power_cap_overflows",
            "legit_power_underflows", "corr_rate_nan", "corr_rate_inf", "rician_k_nan",
            "jsr_db_nan", "delta_nan", "peak_significance_nan", "flip_threshold_nan",
            "bandwidth_inf", "jsr_ratio_overflows", "jsr_ratio_underflows",
            "ris_sizes_inf", "ris_sizes_range_too_long", "jsr_db_range_too_long",
            "ris_size_too_large", "spatial_snapshot_too_large", "frame_len_too_large",
            "path_count_too_large", "ris_size_not_integral", "ris_sizes_range_not_integral",
            "repeated_cells", "jammers_range", "snr_mode_wobbly",
        ],
    )
    def test_unrunnable_config_is_exit_1(self, tmp_path, capsys, text, flags):
        cfg = _write_config(tmp_path, text)
        assert main(["--config", cfg, "--out", str(tmp_path / "o.csv"), *flags]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "orthogonality,delay", [("temporal", 4), ("spatial", 1)], ids=["temporal", "spatial"]
    )
    def test_two_sample_stream_pair_runs(self, tmp_path, orthogonality, delay):
        """A separated pair of 2 samples holds two 1-symbol pilots, yet is one
        too short for the similarity ratio: it is classified Unknown (temporal)
        or falls back (spatial) instead of failing mid-sweep."""
        cfg = _write_config(tmp_path, (
            "[sweep]\njammers = drfm, ps, as\nris_sizes = 16\njsr_db = 10, 20\ntrials = 3\n"
            f"orthogonality = {orthogonality}\n"
            "[receiver]\npilot_len = 1\nframe_len = 6\n"
            f"[jammer]\ndelay = {delay}\n"
        ))
        assert main(["--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0

    def test_unwritable_output_is_exit_2(self, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path)
        sweeps = []

        def run_sweep(cfg):
            sweeps.append(cfg)
            raise RuntimeError("sweep failed")

        monkeypatch.setattr(risjam.cli, "run_sweep", run_sweep)
        # a directory, and a file in a missing directory, fail before the sweep
        for out in (tmp_path, tmp_path / "no" / "dir" / "o.csv"):
            assert main(["--config", cfg, "--out", str(out)]) == 2
        assert sweeps == []
        # a failed sweep leaves an existing file as it was, and creates none
        old = tmp_path / "old.csv"
        old.write_bytes(b"kept\n")
        assert main(["--config", cfg, "--out", str(old)]) == 2
        assert main(["--config", cfg, "--out", str(tmp_path / "new.csv")]) == 2
        assert len(sweeps) == 2 and old.read_bytes() == b"kept\n"
        assert not (tmp_path / "new.csv").exists()

    def test_summary_flag_prints(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["--config", cfg, "--out", str(tmp_path / "o.csv"), "--summary"]) == 0
        assert "drfm" in capsys.readouterr().out

    def test_seed_override_changes_output(self, tmp_path):
        # faded mode keeps per-seed channel variation visible in the averages
        cfg = _write_config(tmp_path, CONFIG + "\n[link]\nsnr_mode = faded\n")
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert main(["--config", cfg, "--out", str(a)]) == 0
        assert main(["--config", cfg, "--out", str(b), "--seed", "99"]) == 0
        assert main(["--config", cfg, "--out", str(c), "--seed", "3"]) == 0
        assert a.read_text() != b.read_text()
        assert a.read_text() == c.read_text()

    def test_trials_and_jobs_overrides(self, tmp_path):
        cfg = _write_config(tmp_path)
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert main(["--config", cfg, "--out", str(serial), "--trials", "3"]) == 0
        assert main([
            "--config", cfg, "--out", str(parallel), "--trials", "3", "--jobs", "2",
        ]) == 0
        assert serial.read_text() == parallel.read_text()


def _floats(low, high):
    """Floats in [low, high], plus the non-finite values INI text can spell."""
    return st.floats(low, high) | st.sampled_from([math.nan, math.inf, -math.inf])


def _lists(values):
    return st.lists(values, min_size=1, max_size=2).map(lambda v: ", ".join(map(str, v)))


# keys a generated config may set; a key not drawn keeps its ONE_CELL value or
# its default
GENERATED_KEYS = {
    ("sweep", "orthogonality"): st.sampled_from(["spatial", "temporal"]),
    ("sweep", "topology"): st.sampled_from(["source_aware", "ris_aware"]),
    ("sweep", "seed"): st.integers(-2, 2**64),
    ("sweep", "ris_sizes"): _lists(st.integers(-1, 64)),
    ("sweep", "jsr_db"): _lists(_floats(-5000.0, 5000.0)),
    ("sweep", "trials"): st.integers(-1, 3),
    ("link", "bandwidth_hz"): _floats(-1.0, 1e9),
    ("link", "rician_k"): _floats(-1.0, 100.0),
    ("link", "tx_power_dbm"): _floats(-5000.0, 5000.0),
    ("link", "path_loss_exp"): _floats(-1.0, 300.0),
    ("link", "d_sr"): _floats(-5.0, 100.0),
    ("link", "d_rd"): _floats(-5.0, 100.0),
    ("link", "corr_rate"): _floats(-1.0, 10.0),
    ("link", "baseline_snr_db"): _floats(-5000.0, 5000.0),
    ("link", "path_count"): st.integers(-1, 8),
    ("receiver", "frame_len"): st.integers(-1, 4096),
    ("receiver", "pilot_len"): st.integers(-1, 256),
    ("receiver", "antennas"): st.integers(1, 8),
    ("receiver", "sim_threshold"): _floats(-0.25, 1.25),
    ("receiver", "inversion_threshold"): _floats(-0.25, 1.25),
    ("receiver", "peak_significance"): _floats(-1.0, 10.0),
    ("receiver", "flip_threshold"): _floats(-1.0, 2.0),
    ("jammer", "delay"): st.integers(-1, 4200),
    ("jammer", "power_cap_dbm"): _floats(-5000.0, 5000.0),
    ("jammer", "eavesdrop_snr_db"): _floats(-5000.0, 5000.0),
    ("jammer", "eaves_corr"): _floats(-0.5, 1.5),
    ("jammer", "d_e1"): _floats(-5.0, 100.0),
    ("jammer", "d_j1"): _floats(-5.0, 100.0),
    ("jammer", "d_j2"): _floats(-5.0, 100.0),
    ("adaptation", "delta"): _floats(-0.5, 0.1),
    ("adaptation", "base_family"): st.sampled_from(["psk", "ask", "qam"]),
    ("adaptation", "fixed_rate"): st.one_of(
        st.sampled_from([round(c.rate, 3) for c in DEFAULT_RS_TABLE]),
        _floats(0.0, 1.25),
    ),
    ("adaptation", "max_order"): st.sampled_from([1, 2, 3, 4, 8, 16, 32, 64, 128]),
}


@st.composite
def one_cell_configs(draw):
    """ONE_CELL with a few drawn keys: most configs then set nothing else
    invalid, so a value that passes load yet fails mid-sweep gets run. About
    half start from a short frame with its pilot and replica delay drawn inside
    it, where the separated pair can be a few samples long."""
    sections = {"sweep": dict(line.split(" = ") for line in ONE_CELL.splitlines()[1:])}
    if draw(st.booleans()):
        frame_len = draw(st.integers(6, 14))
        sections["receiver"] = {"frame_len": frame_len, "pilot_len": draw(st.integers(1, 2))}
        sections["jammer"] = {"delay": draw(st.integers(0, frame_len - 1))}
    keys = draw(st.lists(st.sampled_from(list(GENERATED_KEYS)), max_size=5, unique=True))
    for section, key in keys:
        sections.setdefault(section, {})[key] = draw(GENERATED_KEYS[section, key])
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in entries.items())
        for section, entries in sections.items()
    )


@settings(derandomize=True, deadline=None, max_examples=600)
@given(text=one_cell_configs())
def test_generated_config_never_exits_2(tmp_path_factory, text):
    """A config either fails at load time (1) or runs (0), never mid-sweep."""
    path = tmp_path_factory.mktemp("generated") / "exp.ini"
    path.write_text(text)
    assert main(["--config", str(path), "--out", str(path.with_suffix(".csv"))]) in (0, 1)


def test_cli_import_loads_no_scipy():
    """The run path needs numpy alone; scipy is a test dependency."""
    src = os.path.dirname(os.path.dirname(risjam.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, risjam.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    """A one-process sweep never starts a pool, so importing the CLI leaves
    multiprocessing and concurrent.futures unloaded; `jobs > 1` imports them."""
    src = os.path.dirname(os.path.dirname(risjam.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, risjam.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "[]"
