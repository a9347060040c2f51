"""Seeded Monte Carlo of the relay under stationary policies.

Runs the continuous-energy system block by block, scoring each block by
its probability of delivery. All runs are reproducible: the same seed and
inputs give bit-identical traces.
"""

import functools
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .channel import FiniteChannel
from .relay import SystemParams, _delivery_table, apply_action

__all__ = [
    "RESULT_CSV_HEADER",
    "SimulationConfig",
    "SimulationResult",
    "sample_channel",
    "simulate_original",
]

RESULT_CSV_HEADER = "seed,M,mean,stderr"

# blocks per slice of simulate_original. Fewer cost more per block; more
# raise its peak memory, and at 2^14 a default sweep pass takes 3,300 page
# faults against 1,100, as glibc's malloc trims and maps 128 KiB arrays anew
_SLICE_BLOCKS = 2**13


@dataclass(frozen=True)
class SimulationConfig:
    """Length, seed and starting battery level of one run."""

    blocks: int
    seed: int
    initial_energy: float = 0.0

    def __post_init__(self) -> None:
        for name in ("blocks", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
    """Time-average success estimate with its standard error, and the
    per-block scores (float64) when the run kept its trace."""

    mean: float
    stderr: float
    blocks: int
    seed: int
    trace: np.ndarray | None = None

    def csv_row(self) -> str:
        """One row in the seed,M,mean,stderr serialization."""
        return f"{self.seed},{self.blocks},{self.mean:.12g},{self.stderr:.12g}"


# rng's annotation is a string: evaluating it would import numpy.random with
# the package, which only a simulation needs
def sample_channel(
    channel: FiniteChannel, rng: "np.random.Generator", size: int
) -> np.ndarray:
    """size i.i.d. channel-state indices by inverse-cdf lookup on uniforms,
    in one pass. A guide table (Chen & Asau 1974) over 8 C buckets keeps,
    with a 1e-12 margin, each bucket's count of cdf entries below it and
    the next: one comparison per draw, a binary search if it holds two."""
    inner, guide, following, crowded = _sampler_tables(channel)
    u = rng.random(size)
    bucket = (u * guide.size).astype(np.intp)
    idx = guide.take(bucket, mode="clip")
    idx += u >= following.take(bucket, mode="clip")
    if crowded.any():
        walk = np.flatnonzero(crowded.take(bucket, mode="clip"))
        idx[walk] = np.searchsorted(inner, u[walk], side="right")
    return idx


@functools.lru_cache(maxsize=16)
def _sampler_tables(channel: FiniteChannel) -> tuple[np.ndarray, ...]:
    """The inner cdf entries (the last is left out, so u at or past it draws
    the last state), sample_channel's guide table, entry after each guide
    and crowded buckets: built once per alphabet, read-only."""
    inner = np.cumsum(channel.pmf)[:-1]
    guide, crowded = _guide_table(inner, 8 * channel.count)
    tables = inner, guide, np.append(inner, np.inf)[guide], crowded
    for table in tables:
        table.flags.writeable = False
    return tables


def _guide_table(inner: np.ndarray, buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """sample_channel's guide table and crowded buckets, by counting each cdf
    entry at the first (shifted) bucket edge at or above it."""
    edges = np.arange(buckets + 1) / buckets
    edges[-1] = np.inf
    guide, upto = (
        np.bincount(np.searchsorted(bounds, inner), minlength=buckets + 1).cumsum()
        for bounds in (edges[:-1] - 1e-12, edges[1:] + 1e-12)
    )
    return guide[:-1], (upto - guide)[:-1] > 1


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
    transmit_energy). Every block draws its source-relay gain, plays the
    policy's action through relay.apply_action (which validates it and
    decides whether the relay decodes), updates the battery and scores
    the probability that the forwarded energy reaches the destination (0.0
    if the relay does not decode): the relay-destination gain, fresh each
    block, never moves the battery, so this estimates the mean that a draw
    of it would, with a smaller error. Each (energy, channel index) is
    played once while the battery stays at that energy and repeated after,
    so a policy that keeps state between calls is not supported. A
    rejected action raises its error with the block and the state named.

    The run is walked and scored in slices of _SLICE_BLOCKS blocks, so
    only the optional trace grows with it. The walk steps through the
    blocks one by one and skips a block whose index repeats a play of the
    stay; once every index has kept the battery where it is, no block is
    played again and the stay lasts to the end of the run. So a long stay
    that never plays every index still costs a Python step per block. A
    block scores g_channel.tail[first], first being the first gain its
    forwarded energy delivers through, found when the block is played. A
    play that keeps the battery where it is carries its first for its
    index, and the stay's skipped blocks take the carried ones in one step
    when a play moves the battery or the slice ends. The blocks are
    tallied per first, so the sums of the scores and their squares, taken
    once at the end, do not depend on the slice size.
    """
    if config.initial_energy > params.battery_capacity:
        raise ValueError(
            f"initial_energy {config.initial_energy} exceeds the battery "
            f"capacity {params.battery_capacity}"
        )
    blocks, count = config.blocks, h_channel.count
    rng = np.random.default_rng(config.seed)
    # a play forwarding u (0.0 if the relay did not decode) delivers through
    # the k = bisect_right(delivery, u) largest gains, from index last - k on
    delivery = _delivery_table(g_channel, params.delivery_threshold).tolist()
    tail, last = g_channel.tail, len(delivery)
    gains = h_channel.gains.tolist()
    energy = float(config.initial_energy)
    # steady: the indices whose play kept the battery at this energy; their
    # later blocks in the stay repeat that play, whose first is carried[i]
    steady, carried = set(), np.empty(count, dtype=np.intp)
    tally = np.zeros(last + 1, dtype=np.int64)  # blocks per first
    trace = np.empty(blocks) if keep_trace else None
    for offset in range(0, blocks, _SLICE_BLOCKS):
        size = min(_SLICE_BLOCKS, blocks - offset)
        h_idx = sample_channel(h_channel, rng, size)
        block_first = np.empty(size, dtype=np.intp)
        since = 0  # the blocks from here to the next move take carried firsts
        # once every index is steady, no block is played again
        for m, i in enumerate(h_idx.tolist() if len(steady) < count else ()):
            if i in steady:
                continue
            gain = gains[i]
            ps_ratio, transmit_energy = policy(energy, gain)
            try:
                decoded, residual = apply_action(
                    energy, gain, ps_ratio, transmit_energy, params
                )
            except ValueError as exc:
                raise type(exc)(
                    f"block {offset + m}: action (ps_ratio={ps_ratio}, "
                    f"u={transmit_energy}) in state (energy={energy}, "
                    f"gain={gain}): {exc}"
                ) from None
            first = last - bisect_right(delivery, transmit_energy if decoded else 0.0)
            if residual == energy:
                steady.add(i)
                carried[i] = first
                if len(steady) == count:
                    break
            else:  # the stay ends on this play
                if since < m:
                    block_first[since:m] = carried[h_idx[since:m]]
                block_first[m] = first
                since = m + 1
                energy = residual
                steady.clear()
        block_first[since:] = carried[h_idx[since:]]
        tally += np.bincount(block_first, minlength=last + 1)
        if trace is not None:
            trace[offset : offset + size] = tail[block_first]
    scores = tally * tail
    mean, stderr = _mean_stderr(math.fsum(scores), math.fsum(scores * tail), blocks)
    return SimulationResult(
        mean=mean, stderr=stderr, blocks=blocks, seed=config.seed, trace=trace
    )
