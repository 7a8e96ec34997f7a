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
    "figure2a": "d9206a95c1b011e0c794beb236177baedf3013c4f8f8fae499b3371211eeb1cc",
    "figure2b": "1c9d263546cb8412a54e26ad728529a073e156345a496cd3b7f0799b7dbaaa32",
    "figure3": "8b6ed1d5c56641417fdb1f8d4a716a9cf5f3300b571c62af3e95b799637c1dc7",
    "figure4": "0d341259a30cc71d4274c901a0f5f8b1990ce9de7f39294dbbea4cf3e97329cb",
    "headline": "a237c23abab02622fa05a3b75266d20e9b1d380c8cf57efc153e0334da8088a8",
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
FADED_FIGURE3 = "6c8c47c6d9027a62ac52134698d39c45efe2642540bf6e95310a15f7b9c1d116"


def test_faded_figure3_csv_is_unchanged(tmp_path):
    with open(os.path.join(CONFIGS, "figure3.ini")) as fh:
        text = fh.read()
    assert "\n[link]\n" in text
    config = tmp_path / "figure3_faded.ini"
    config.write_text(text.replace("\n[link]\n", "\n[link]\nsnr_mode = faded\n"))
    out = tmp_path / "figure3_faded.csv"
    assert main(["--config", str(config), "--out", str(out), "--trials", "5", "--jobs", "1"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FADED_FIGURE3
