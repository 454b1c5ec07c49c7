"""Evolutionary service selection in IRS-assisted wireless networks.

Pipeline: static Rayleigh channels per provider geometry (channel), SNR
maximization by alternating beamforming and surface phase alignment (phy),
population payoffs and utilities over service groups (game), the exact
replicator dynamics and the delayed ones stepped one delay window at a
time over a state history, both of the payoff pair (dynamics), and
reproducible experiment presets with CSV output (experiments, cli).
"""

from .channel import ChannelSet, complex_rayleigh, generate_channels, path_loss_linear
from .config import (
    IntegratorSpec,
    PathLossModel,
    Position,
    ScenarioConfig,
    ServiceIndex,
    SpConfig,
    SweepGrids,
    dbm_to_watt,
    default_config,
    load_config,
    parse_config,
    with_scalar_overrides,
)
from .dynamics import (
    HistoryBuffer,
    ReplicatorSolution,
    Trajectory,
    delayed_steps,
    solve_delayed,
    solve_replicator,
)
from .errors import (
    ConfigurationError,
    NumericalDriftError,
    NumericError,
)
from .game import (
    UtilityParams,
    detect_equilibrium,
    make_utilities,
    stability_bound,
    utility_numerators,
    utility_spread,
)
from .phy import ServiceLink, build_all_links, optimize_link
from .experiments import PRESETS, SimulationResult, run_experiment, simulate

__version__ = "0.1.0"
