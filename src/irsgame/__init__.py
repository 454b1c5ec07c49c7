"""Evolutionary service selection in IRS-assisted wireless networks.

Pipeline: static Rayleigh channels per provider geometry (channel), SNR
maximization by alternating beamforming and surface phase alignment (phy),
population utilities and replicator dynamics over service groups (game),
the exact undelayed solution, the delayed replicator dynamics stepped one
delay window at a time over a state history, and RK4 and Picard
cross-checks (dynamics), and
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
    config_to_text,
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
    integrate_ode,
    picard_solve,
    solve_delayed,
    solve_replicator,
)
from .errors import (
    ConfigurationError,
    NonConvergenceError,
    NumericalDriftError,
    NumericError,
)
from .game import (
    Equilibrium,
    UtilityParams,
    UtilityVector,
    detect_equilibrium,
    make_utilities,
    replicator_field,
    stability_bound,
    utility_numerators,
)
from .phy import Beamformer, PhaseShiftVector, ServiceLink, build_all_links, compute_snr, optimize_link
from .experiments import PRESETS, SimulationResult, run_experiment, simulate

__version__ = "0.1.0"
