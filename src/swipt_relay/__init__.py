"""Success-probability analysis of a battery-limited power-splitting SWIPT
decode-and-forward relay.

The package computes (a) the closed-form long-run average success
probability of a battery-draining heuristic policy, (b) a rigorous upper
bound on the best achievable average success probability via a
finite-state average-reward decision problem solved by policy iteration,
and (c) seeded Monte Carlo estimates of both on the original
continuous-energy system.
"""

from .channel import (
    FiniteChannel,
    channel_from_table,
    quantize_equiprobable_exponential,
)
from .mdp import (
    BatteryGrid,
    MdpModel,
    MultichainSuspectedError,
    NonConvergenceError,
    PolicyIterationResult,
    build_mdp,
    default_initial_rule,
    policy_evaluate,
    policy_improve,
    policy_iteration,
    round_up_level,
    upper_bound,
)
from .experiment import (
    ExperimentConfig,
    GainReport,
    SweepRow,
    parse_config,
    report_gains,
    rows_to_csv,
    run_sweep,
)
from .relay import (
    InfeasibleActionError,
    SystemParams,
    apply_action,
    can_succeed,
    delivery_success_prob,
    energy_after_harvest,
    heuristic_average_success,
    heuristic_rule,
    make_heuristic_policy,
    max_ps_ratio,
    success_prob,
)
from .simulate import (
    SimulationConfig,
    SimulationResult,
    sample_channel,
    simulate_discrete,
    simulate_original,
)

__version__ = "0.1.0"
