"""Link-level Monte Carlo simulator of a RIS-assisted hop under reactive
jamming, with the detect / estimate / orthogonalize / classify / adapt loop
that turns hostile energy into extra throughput."""

from .adaptation import (
    AdaptationDecision,
    effective_ber,
    select_link,
    snr_jamming,
    throughput,
)
from .channel import (
    ChannelRealization,
    PhaseMatrix,
    RicianParams,
    RisLinkConfig,
    aligned_cascade,
    build_correlation,
    cascaded_coefficient,
    optimize_phases,
    path_loss,
    sample_realization,
)
from .harness import ExperimentConfig, SweepRow, load_config, run_sweep
from .jammer import JammerModel, PathTopology, jammer_transform
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
from .receiver import JammerClass, classify_jammer, estimate_delay
from .waveform import Family, ModScheme, RsCode, modulate, demodulate, rs_decode, rs_encode

__version__ = "0.1.0"

__all__ = [
    "AdaptationDecision",
    "ChannelRealization",
    "ExperimentConfig",
    "Family",
    "JammerClass",
    "JammerModel",
    "LinkDraw",
    "ModScheme",
    "OrthogonalityMode",
    "PathTopology",
    "PhaseMatrix",
    "RicianParams",
    "RisLinkConfig",
    "RsCode",
    "SnrMode",
    "SweepRow",
    "TrialResult",
    "TrialSettings",
    "aligned_cascade",
    "build_correlation",
    "cascaded_coefficient",
    "classify_jammer",
    "demodulate",
    "draw_link",
    "effective_ber",
    "estimate_delay",
    "jammer_transform",
    "load_config",
    "modulate",
    "optimize_phases",
    "path_loss",
    "rs_decode",
    "rs_encode",
    "run_cells",
    "run_sweep",
    "run_trial",
    "sample_realization",
    "select_link",
    "snr_jamming",
    "throughput",
    "__version__",
]
