"""Load balancing in bufferless loss networks.

Computes traffic-maximizing routing allocations, characterizes and enumerates
pure equilibria of the selfish routing game, quantifies the price of anarchy,
and validates the closed-form loss model with a packet-level Monte Carlo
simulator.
"""

from .errors import (
    CapacityError,
    InternalCheckError,
    InvalidInputError,
    LossNetError,
)
from .model import (
    TOLERANCE,
    Instance,
    RoutingProfile,
    TrafficSummary,
    count_profiles,
    instance_from_json,
    profile_from_json,
    summarize,
    total_traffic,
    traffic_rates,
)
from .optimizer import (
    OptimalSolution,
    brute_force_optimal,
    check_optimal_structure,
    opt_traffic_upper_bound,
    solve_optimal,
)
from .equilibrium import (
    BestResponseResult,
    NEVerdict,
    NashProfiles,
    PoAReport,
    best_response_dynamics,
    enumerate_nash,
    is_nash_characterization,
    is_nash_deviation_oracle,
    mixing_level,
    poa_bound,
    poa_report,
)
from .two_source import (
    NashIntervals,
    TwoSourceState,
    TwoSourceVerdict,
    check_corollaries,
    classify,
    construct_existence_ne,
    scan_nash,
)
from .packet_sim import (
    SimConfig,
    SimOutcome,
    ValidationReport,
    simulate,
    validate_analytics,
)
from .sweeps import SweepSpec, figure_presets, run_sweep

__version__ = "0.1.0"
