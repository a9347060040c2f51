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
    """size i.i.d. channel-state indices by inverse-cdf lookup on uniforms:
    a guide table (Chen & Asau 1974) starts u at the lookup of floor(u * C)
    / C and vector steps move it to the exact index, unless a bucket can
    hold as many cdf entries as a binary search takes comparisons."""
    # the last entry is left out, so u at or past it draws the last state
    inner, count = np.cumsum(channel.pmf)[:-1], channel.count
    u = rng.random(size)
    # entries sit at least min(pmf) apart, so a bucket of width 1 / C holds
    # at most 1 + 1 / (C * min(pmf)): the most steps a draw can take
    if 1.0 + 1.0 / (count * channel.pmf.min()) >= math.log2(count):
        return np.searchsorted(inner, u, side="right")
    guide = np.searchsorted(inner, np.arange(count) / count, side="right")
    hi = np.append(inner, np.inf)  # u at or above hi[k] moves k up
    lo = np.insert(inner, 0, -np.inf)  # u below lo[k] moves k down
    idx = guide.take((u * count).astype(np.intp), mode="clip")
    while (step := np.subtract(hi[idx] <= u, lo[idx] > u, dtype=np.int8)).any():
        idx += step
    return idx


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

    policy is a stationary callable (energy, gain) -> (ps_ratio,
    transmit_energy). Every block draws the two link gains independently,
    plays the policy's action through relay.apply_action (which validates
    it and decides whether the relay decodes), scores a Bernoulli success
    when the relay decodes and the destination SNR reaches the threshold,
    and advances the battery. Each (energy, channel index) is played once
    while the battery stays at that energy and reused after, so a policy
    that keeps state between calls is not supported. A rejected action
    raises its error with the block and the state named.
    """
    if config.initial_energy > params.battery_capacity:
        raise ValueError(
            f"initial_energy {config.initial_energy} exceeds the battery "
            f"capacity {params.battery_capacity}"
        )
    rng = np.random.default_rng(config.seed)
    blocks = config.blocks
    h_idx = sample_channel(h_channel, rng, blocks)
    g_gains = g_channel.gains[sample_channel(g_channel, rng, blocks)]
    h_list = h_idx.tolist()
    gains = h_channel.gains.tolist()
    energy = float(config.initial_energy)
    # the energy each block forwards, NaN where the relay did not decode
    spent = np.empty(blocks)
    # steady: indices played since the battery reached this energy at block
    # `since` that left it there; index i repeats block played_at[i].
    steady, since, played_at = set(), 0, np.full(h_channel.count, -1)
    m = 0
    while m < blocks:
        i = h_list[m]
        if i in steady:
            # repeat played blocks up to the next index that is new here
            end, width = m + 1, 16
            while end < blocks:
                new = np.flatnonzero(played_at[h_idx[end : end + width]] < since)
                if new.size:
                    end += int(new[0])
                    break
                end, width = min(end + width, blocks), 2 * width
            spent[m:end] = spent[played_at[h_idx[m:end]]]
            m = end
            continue
        gain = gains[i]
        ps_ratio, transmit_energy = policy(energy, gain)
        try:
            decoded, residual = apply_action(
                energy, gain, ps_ratio, transmit_energy, params
            )
        except ValueError as exc:
            raise type(exc)(
                f"block {m}: action (ps_ratio={ps_ratio}, u={transmit_energy}) "
                f"in state (energy={energy}, gain={gain}): {exc}"
            ) from None
        spent[m] = transmit_energy if decoded else math.nan
        if residual != energy:
            energy, since, steady = residual, m + 1, set()
        else:
            steady.add(i)
            played_at[i] = m
        m += 1
    success = spent * g_gains >= params.delivery_threshold
    trace = success.astype(np.uint8) if keep_trace else None
    wins = float(np.count_nonzero(success))
    mean, stderr = _mean_stderr(wins, wins, blocks)
    return SimulationResult(
        mean=mean, stderr=stderr, blocks=blocks, seed=config.seed, trace=trace
    )


def simulate_discrete(
    model: MdpModel,
    rule: np.ndarray,
    config: SimulationConfig,
    *,
    keep_trace: bool = False,
) -> SimulationResult:
    """Run of the discretized chain under a stationary rule.

    Each block accrues the chosen action's success probability rather
    than a coin flip, so the time average estimates the rule's gain
    directly; the battery then jumps to the action's post-top-up level.
    The start level is the highest grid level not above initial_energy.
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
    rewards = model.reward_vector(rule).reshape(n_levels, n_channels).tolist()
    posts = model.post_levels(rule).reshape(n_levels, n_channels).tolist()
    rng = np.random.default_rng(config.seed)
    blocks = config.blocks
    h_idx = sample_channel(model.h_channel, rng, blocks)
    level = int(np.searchsorted(grid.levels, config.initial_energy, side="right")) - 1
    trace = np.zeros(blocks) if keep_trace else None
    total = total_sq = 0.0
    for m, i in enumerate(h_idx.tolist()):
        value = rewards[level][i]
        total += value
        total_sq += value * value
        if trace is not None:
            trace[m] = value
        level = posts[level][i]
    mean, stderr = _mean_stderr(total, total_sq, blocks)
    return SimulationResult(
        mean=mean, stderr=stderr, blocks=blocks, seed=config.seed, trace=trace
    )
