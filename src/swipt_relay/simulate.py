"""Seeded Monte Carlo of the relay under stationary policies.

Runs the continuous-energy system block by block with true Bernoulli
outcomes. All runs are reproducible: the same seed and inputs give
bit-identical traces.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channel import FiniteChannel
from .relay import SystemParams, _first_delivering, apply_action

__all__ = [
    "GENERATOR_NAME",
    "RESULT_CSV_HEADER",
    "SimulationConfig",
    "SimulationResult",
    "sample_channel",
    "simulate_original",
]

# numpy's PCG64 bit generator: seedable, documented, period 2^128.
GENERATOR_NAME = "pcg64"

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
    the last state), which simulate_original's cuts also read, and
    sample_channel's guide table, entry after each guide and crowded
    buckets: built once per alphabet, read-only."""
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
    transmit_energy). Every block draws the two link gains independently,
    plays the policy's action through relay.apply_action (which validates
    it and decides whether the relay decodes), scores a Bernoulli success
    when the relay decodes and the destination SNR reaches the threshold,
    and advances the battery. Each (energy, channel index) is played once
    while the battery stays at that energy and reused after, so a policy
    that keeps state between calls is not supported. From the first
    repeat at an energy, the blocks ahead are scanned in doubling windows
    and only those with an index new there are played. A rejected action
    raises its error with the block and the state named.

    The run is walked and scored in slices of _SLICE_BLOCKS blocks, so
    only the optional trace grows with it. A block succeeds when its
    relay-destination uniform reaches its cut: the g cdf entry below the
    first gain its forwarded energy delivers through, or for a repeat the
    cut carried for its index. The source-relay uniforms continue
    default_rng(seed); the relay-destination ones come from the same
    seed's stream advanced by `blocks`: the draws that follow all the
    source-relay ones, as when one generator draws both in turn.
    """
    if config.initial_energy > params.battery_capacity:
        raise ValueError(
            f"initial_energy {config.initial_energy} exceeds the battery "
            f"capacity {params.battery_capacity}"
        )
    blocks, count = config.blocks, h_channel.count
    rng = np.random.default_rng(config.seed)
    g_rng = np.random.Generator(np.random.PCG64(config.seed).advance(blocks))
    cut = np.concatenate(([-np.inf], _sampler_tables(g_channel)[0], [np.inf]))
    gains = h_channel.gains.tolist()
    energy = float(config.initial_energy)
    # steady: the indices whose play kept the battery at this energy; their
    # later blocks repeat that play, whose cut is carried[i] once scored
    steady, carried, wins = set(), np.empty(count), 0
    # a batched segment began at block `start` of the slice: its next window
    # scans from `end`; `window` holds scanned blocks to check, last first;
    # known marks the steady indices while it is open
    start, width = None, 16
    trace = np.empty(blocks, dtype=np.uint8) if keep_trace else None
    for offset in range(0, blocks, _SLICE_BLOCKS):
        size = min(_SLICE_BLOCKS, blocks - offset)
        h_idx = sample_channel(h_channel, rng, size)
        g_uniforms = g_rng.random(size)
        block_cut = np.empty(size)  # each block's cut, written once
        # the plays not yet scored: the energy each forwards (0 where the relay
        # did not decode), of blocks fresh, fresh + 1, ... played one by one
        # (steady from block `settled` on), then of the segment's indices `kept`
        spent, kept, fresh, settled, m = [], [], 0, 0, 0
        if start is not None:  # the segment goes on from the slice's start
            start, end, window = 0, 0, []
        h_list = []  # channel indices as ints, converted as far as the walk gets
        while m < size:
            if start is None:
                try:
                    i = h_list[m]
                except IndexError:
                    h_list += h_idx[len(h_list) : m + 4096].tolist()
                    i = h_list[m]
                if i in steady:
                    start, end, width, window = m, m, 16, []
                    known = np.bincount(list(steady), minlength=count) > 0
                    continue
            elif window:
                m, i = window.pop()
                if i in steady:
                    continue
            elif end == size or len(steady) == count:
                break
            else:
                new = end + np.flatnonzero(~known[h_idx[end : end + width]])
                window = list(zip(new.tolist(), h_idx[new].tolist()))[::-1]
                end, width = min(end + width, size), 2 * width
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
            if residual == energy:
                steady.add(i)
                if start is not None:
                    known[i] = True
                    kept.append(i)
            else:
                if start is not None:  # the segment ends on this play
                    cuts = cut[_first_delivering(np.array(spent), g_channel, params)]
                    block_cut[fresh:start] = cuts[: start - fresh]
                    carried[h_idx[settled:start]] = block_cut[settled:start]
                    carried[kept] = cuts[start - fresh :]
                    block_cut[start:m] = carried[h_idx[start:m]]
                    start, fresh, spent, kept = None, m, [], []
                energy, settled = residual, m + 1
                steady.clear()
            spent.append(transmit_energy if decoded else 0.0)
            m += 1
        # the same at the slice's end (inline: a closure slows the walk's locals)
        stop = size if start is None else start
        cuts = cut[_first_delivering(np.array(spent), g_channel, params)]
        block_cut[fresh:stop] = cuts[: stop - fresh]
        carried[h_idx[settled:stop]] = block_cut[settled:stop]
        carried[kept] = cuts[stop - fresh :]
        block_cut[stop:] = carried[h_idx[stop:]]
        success = g_uniforms >= block_cut
        wins += int(np.count_nonzero(success))
        if trace is not None:
            trace[offset : offset + size] = success
    mean, stderr = _mean_stderr(float(wins), float(wins), blocks)
    return SimulationResult(
        mean=mean, stderr=stderr, blocks=blocks, seed=config.seed, trace=trace
    )
