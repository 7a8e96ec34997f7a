"""Link-level Monte Carlo simulator of a RIS-assisted hop under reactive jamming,
with the detect / estimate / orthogonalize / classify / adapt loop that turns
hostile energy into extra throughput.

The package root exports the simulator's entry points and the types a caller
builds, passes or compares. The building blocks (channel draws, codec,
receiver and adaptation functions) are imported from their modules.
"""

from .channel import RicianParams, RisLinkConfig
from .harness import ExperimentConfig, SweepRow, load_config, run_sweep
from .jammer import JammerModel, PathTopology
from .pipeline import (
    LinkDraw,
    OrthogonalityMode,
    SnrMode,
    TrialResult,
    TrialSettings,
    draw_link,
    run_cells,
    run_trial,
)
from .receiver import JammerClass
from .waveform import Family

__version__ = "0.1.0"

__all__ = [
    # entry points
    "load_config",
    "run_sweep",
    "draw_link",
    "run_cells",
    "run_trial",
    # settings
    "ExperimentConfig",
    "TrialSettings",
    "RisLinkConfig",
    "RicianParams",
    # results
    "SweepRow",
    "TrialResult",
    "LinkDraw",
    # enums
    "JammerModel",
    "PathTopology",
    "OrthogonalityMode",
    "SnrMode",
    "Family",
    "JammerClass",
    "__version__",
]
