"""Golden outputs: the shipped configs' CSVs at a short trial count.

A refactor that is meant to keep every number keeps these sha256s. A change
that alters the random stream on purpose updates them and records the old and
new values in CHANGES.md. Taken with numpy 2.4.6 and OpenBLAS; they hold with
BLAS at its default thread count and at 1 thread.
"""

import hashlib
import os

import pytest

from risjam.cli import main

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

GOLDEN = {
    "figure2a": "969216828df23fd132cb9b6337ad7b2a8b6ca577961f0aa04ebe8e7009bff032",
    "figure2b": "1fdd092b7e0e10d3798a19758cf449ea1d45b56ccd4c87171ba198c10f31e232",
    "figure3": "dd3ba118c170018bb3d30f9103ab6bc8d5f73cf383e2d562c9fdd5297db4ca18",
    "figure4": "323d36c4829964b0610de885aebb5df7571ff407ccf97d3f49f475021f07d4e0",
    "headline": "02fe6312d2899b6956af69ad26838db93ca95c9caca18839bddc0aa32b7b15ec",
}


def test_every_shipped_config_is_pinned():
    shipped = {name[:-4] for name in os.listdir(CONFIGS) if name.endswith(".ini")}
    assert shipped == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_config_csv_is_unchanged(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    config = os.path.join(CONFIGS, f"{name}.ini")
    assert main(["--config", config, "--out", str(out), "--trials", "5", "--jobs", "1"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]


# figure3 with `snr_mode = faded`: every shipped config runs pinned, so this
# pin is the one that covers noise calibration's 256 channel draws and the
# faded floor; it is not a shipped config, so it stays out of GOLDEN
FADED_FIGURE3 = "0a2ac340d1686937f392e6cbfb02c922d6d92faefa09fd304db2fd4e2165a991"


def test_faded_figure3_csv_is_unchanged(tmp_path):
    with open(os.path.join(CONFIGS, "figure3.ini")) as fh:
        text = fh.read()
    assert "\n[link]\n" in text
    config = tmp_path / "figure3_faded.ini"
    config.write_text(text.replace("\n[link]\n", "\n[link]\nsnr_mode = faded\n"))
    out = tmp_path / "figure3_faded.csv"
    assert main(["--config", str(config), "--out", str(out), "--trials", "5", "--jobs", "1"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FADED_FIGURE3
