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
    "figure2a": "94cefd240dad33938fef62dfc71fb553590dbacacf6c4005e057b084530795d0",
    "figure2b": "85f0eb40467e9ac32710aaf7cd431f9ba1eaf5fd5e491856341db16cbbe716ad",
    "figure3": "123b53b90c6e7ece8b660a0a75b4445b654a62e9f0b929fc84bead8102c410c5",
    "figure4": "26ba9013429249d5b7547dac7697e8e4cf2bdf626862e932dd0ec76521043298",
    "headline": "bac0625c7bcb8aea65a2d3a23d7c27b359635a3770334df7a464170bf06daf24",
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
