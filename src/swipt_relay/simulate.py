"""Seeded Monte Carlo of the relay under stationary policies.

Runs the continuous-energy system block by block with true Bernoulli
outcomes, and the discretized system with expected-reward accounting (the
per-block success probability is accrued instead of a coin flip) so its
time average estimates the gain directly at lower variance. All runs are
reproducible: the same seed and inputs give bit-identical traces.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import FiniteChannel
from .mdp import MdpModel
from .relay import SystemParams, apply_action

__all__ = [
    "GENERATOR_NAME",
    "RESULT_CSV_HEADER",
    "SimulationConfig",
    "SimulationResult",
    "sample_channel",
    "simulate_discrete",
    "simulate_original",
]

# numpy's PCG64 bit generator: seedable, documented, period 2^128.
GENERATOR_NAME = "pcg64"

RESULT_CSV_HEADER = "seed,M,mean,stderr"


@dataclass(frozen=True)
class SimulationConfig:
    """Length, seed and starting battery level of one run."""

    blocks: int
    seed: int
    initial_energy: float = 0.0

    def __post_init__(self) -> None:
        if self.blocks < 1:
            raise ValueError(f"blocks must be at least 1, got {self.blocks}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not (math.isfinite(self.initial_energy) and self.initial_energy >= 0.0):
            raise ValueError(
                f"initial_energy must be finite and non-negative, "
                f"got {self.initial_energy}"
            )


@dataclass(frozen=True)
class SimulationResult:
    """Time-average success estimate with its standard error."""

    mean: float
    stderr: float
    blocks: int
    seed: int
    generator: str = GENERATOR_NAME
    trace: np.ndarray | None = None

    def csv_row(self) -> str:
        """One row in the seed,M,mean,stderr serialization."""
        return f"{self.seed},{self.blocks},{self.mean:.12g},{self.stderr:.12g}"


def sample_channel(
    channel: FiniteChannel, rng: np.random.Generator, size: int
) -> np.ndarray:
    """size i.i.d. channel-state indices, drawn by inverse-cdf lookup on
    uniforms."""
    idx = np.searchsorted(np.cumsum(channel.pmf), rng.random(size), side="right")
    return np.minimum(idx, channel.count - 1)


def _mean_stderr(total: float, total_sq: float, blocks: int) -> tuple[float, float]:
    mean = total / blocks
    if blocks < 2:
        return mean, 0.0
    variance = max(total_sq - blocks * mean * mean, 0.0) / (blocks - 1)
    return mean, math.sqrt(variance / blocks)


def simulate_original(
    policy,
    h_channel: FiniteChannel,
    g_channel: FiniteChannel,
    params: SystemParams,
    config: SimulationConfig,
    *,
    keep_trace: bool = False,
) -> SimulationResult:
    """Block-by-block run of the continuous-energy system.

    policy is a callable (energy, gain) -> (ps_ratio, transmit_energy).
    Every block draws the two link gains independently, plays the
    policy's action through relay.apply_action (which validates it and
    decides whether the relay decodes), scores a Bernoulli success when
    the relay decodes and the destination SNR reaches the threshold, and
    advances the battery. A rejected action raises its error with the
    block and the state named.
    """
    if config.initial_energy > params.battery_capacity:
        raise ValueError(
            f"initial_energy {config.initial_energy} exceeds the battery "
            f"capacity {params.battery_capacity}"
        )
    rng = np.random.default_rng(config.seed)
    blocks = config.blocks
    h_gains = h_channel.gains[sample_channel(h_channel, rng, blocks)]
    g_gains = g_channel.gains[sample_channel(g_channel, rng, blocks)]
    needed = params.delivery_threshold
    energy = float(config.initial_energy)
    trace = np.zeros(blocks, dtype=np.uint8) if keep_trace else None
    wins = 0
    for m in range(blocks):
        gain = float(h_gains[m])
        ps_ratio, transmit_energy = policy(energy, gain)
        try:
            decodes, residual = apply_action(
                energy, gain, ps_ratio, transmit_energy, params
            )
        except ValueError as exc:
            raise type(exc)(
                f"block {m}: action (ps_ratio={ps_ratio}, u={transmit_energy}) "
                f"in state (energy={energy}, gain={gain}): {exc}"
            ) from None
        success = decodes and transmit_energy * float(g_gains[m]) >= needed
        wins += success
        if trace is not None:
            trace[m] = success
        energy = residual
    mean, stderr = _mean_stderr(float(wins), float(wins), blocks)
    return SimulationResult(
        mean=mean, stderr=stderr, blocks=blocks, seed=config.seed, trace=trace
    )


def simulate_discrete(
    model: MdpModel,
    rule: np.ndarray,
    config: SimulationConfig,
    *,
    initial_channel: int | None = None,
    keep_trace: bool = False,
) -> SimulationResult:
    """Run of the discretized chain under a stationary rule.

    Each block accrues the chosen action's success probability rather
    than a coin flip, so the time average estimates the rule's gain
    directly; the battery then jumps to the action's post-top-up level.
    The start level is the highest grid level not above initial_energy;
    the first block's channel state may be pinned via initial_channel.
    """
    grid = model.grid
    if config.initial_energy > grid.capacity:
        raise ValueError(
            f"initial_energy {config.initial_energy} exceeds the battery "
            f"capacity {grid.capacity}"
        )
    rule = model._check_rule(rule)
    n_levels = grid.n_levels
    n_channels = model.h_channel.count
    reward_table = model.reward_vector(rule).reshape(n_levels, n_channels)
    post_table = model.post_levels(rule).reshape(n_levels, n_channels)
    rng = np.random.default_rng(config.seed)
    blocks = config.blocks
    h_idx = sample_channel(model.h_channel, rng, blocks)
    if initial_channel is not None:
        if not 0 <= initial_channel < n_channels:
            raise ValueError(f"initial_channel {initial_channel} out of range")
        h_idx[0] = initial_channel
    level = int(np.searchsorted(grid.levels, config.initial_energy, side="right")) - 1
    trace = np.zeros(blocks) if keep_trace else None
    total = 0.0
    total_sq = 0.0
    for m in range(blocks):
        i = h_idx[m]
        value = reward_table[level, i]
        total += value
        total_sq += value * value
        if trace is not None:
            trace[m] = value
        level = post_table[level, i]
    mean, stderr = _mean_stderr(total, total_sq, blocks)
    return SimulationResult(
        mean=mean, stderr=stderr, blocks=blocks, seed=config.seed, trace=trace
    )
