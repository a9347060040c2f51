"""Success-probability analysis of a battery-limited power-splitting SWIPT
decode-and-forward relay.

The package computes (a) the closed-form long-run average success
probability of a battery-draining heuristic policy, (b) a rigorous upper
bound on the best achievable average success probability via a
finite-state average-reward decision problem solved by policy iteration,
and (c) seeded Monte Carlo estimates of both on the original
continuous-energy system.
"""

import os

# Before numpy loads: one BLAS thread halves start-up, keeps the bound's last
# bits off the core count and avoids 10-20x slower solves in some processes.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .channel import (
    FiniteChannel,
    channel_from_table,
    quantize_equiprobable_exponential,
)
from .mdp import (
    MdpModel,
    MultichainSuspectedError,
    NonConvergenceError,
    PolicyIterationResult,
    build_mdp,
    default_initial_rule,
    policy_iteration,
    upper_bound,
)
from .experiment import (
    ExperimentConfig,
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
    energy_after_harvest,
    heuristic_average_success,
    heuristic_rule,
    make_heuristic_policy,
    max_ps_ratio,
)
from .simulate import (
    SimulationConfig,
    SimulationResult,
    sample_channel,
    simulate_original,
)

__version__ = "0.1.0"
