"""Physics and per-block reward of the continuous-energy relay.

A source powers a half-duplex decode-and-forward relay over the first half
of each block; the relay splits the received power between its energy
harvester (ratio lam) and its decoder, then spends a chosen amount of
battery energy to forward the message during the second half. Units are
fixed to milliwatts, milliseconds and microjoules so the energy and SNR
expressions need no conversion factors (mW x ms = uJ).

A block is described by plain numbers: the battery energy and
source-relay gain at its start, and the action, a power-splitting ratio
and a transmit energy. A policy is any callable
(energy, gain) -> (ps_ratio, transmit_energy).
"""

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import FiniteChannel

__all__ = [
    "InfeasibleActionError",
    "SystemParams",
    "apply_action",
    "energy_after_harvest",
    "heuristic_average_success",
    "heuristic_rule",
    "make_heuristic_policy",
    "max_ps_ratio",
]


class InfeasibleActionError(ValueError):
    """Transmit energy exceeds what the battery holds mid-block."""


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of one scenario.

    source_power in mW, noise_power in mW, block_duration in ms,
    conversion_efficiency in (0, 1), rate in bits/s/Hz, battery_capacity
    in uJ.

    threshold_snr is the minimum SNR for successful decoding at the
    configured rate, 4**rate - 1 (each hop only gets half of the block);
    delivery_threshold is the product u * g (uJ x gain) the relay
    transmission needs for the destination SNR to reach it. Both are
    derived once, and a threshold that overflows or vanishes is rejected.
    """

    source_power: float
    noise_power: float
    block_duration: float
    conversion_efficiency: float
    rate: float
    battery_capacity: float
    threshold_snr: float = field(init=False, repr=False)
    delivery_threshold: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in _PHYSICS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not self.conversion_efficiency < 1.0:
            raise ValueError(
                f"conversion_efficiency must lie in (0, 1), "
                f"got {self.conversion_efficiency}"
            )
        try:
            threshold_snr = 4.0**self.rate - 1.0
        except OverflowError:
            threshold_snr = math.inf
        delivery_threshold = self.block_duration * self.noise_power * threshold_snr
        if not math.isfinite(delivery_threshold):
            raise ValueError(
                f"rate {self.rate:g} makes the decoding threshold "
                f"T * noise_power * (4**rate - 1) overflow"
            )
        if delivery_threshold == 0.0:
            raise ValueError(
                f"rate {self.rate:g} makes the decoding threshold "
                f"T * noise_power * (4**rate - 1) vanish"
            )
        object.__setattr__(self, "threshold_snr", threshold_snr)
        object.__setattr__(self, "delivery_threshold", delivery_threshold)


# The six physics inputs in declaration order; the derived thresholds are not
# init fields.
_PHYSICS = tuple(f.name for f in fields(SystemParams) if f.init)


def _received_power(gain: float, params: SystemParams) -> float:
    """gain * source_power, rejected when it overflows, so that every path
    decides an unrepresentable received power the same way."""
    received = gain * params.source_power
    if not math.isfinite(received):
        raise ValueError(
            f"received power gain * source_power overflows "
            f"({gain:g} * {params.source_power:g} mW)"
        )
    return received


def max_ps_ratio(gain: float, params: SystemParams) -> float | None:
    """Largest power-splitting ratio that still lets the relay decode.

    The relay's decoder sees the (1 - lam) share of the source signal
    against antenna plus conversion noise, an SNR of
    (1 - lam) h Ps / ((2 - lam) sigma^2). It reaches the threshold SNR g_t
    for every lam up to (h Ps - 2 sigma^2 g_t) / (h Ps - sigma^2 g_t),
    which is returned and lies in [0, 1); None when no ratio in [0, 1]
    gives the decoder enough SNR (h Ps < 2 sigma^2 g_t). apply_action
    makes the decode decision, ps_ratio <= max_ps_ratio(gain), for every
    scalar code path.
    """
    received = _received_power(gain, params)
    noise_margin = params.noise_power * params.threshold_snr
    if received < 2.0 * noise_margin:
        return None
    return (received - 2.0 * noise_margin) / (received - noise_margin)


def energy_after_harvest(
    energy: float, gain: float, ps_ratio: float, params: SystemParams
) -> float:
    """Battery level mid-block, once harvesting has finished.

    min(eta Ps h lam T/2 + E, B): the harvested share of the source
    signal tops up the battery, clamped at capacity. Rejects an energy
    outside [0, B], a negative gain and a ratio outside [0, 1].
    """
    if not 0.0 <= energy <= params.battery_capacity:
        raise ValueError(
            f"energy must lie in [0, {params.battery_capacity}], got {energy}"
        )
    if not gain >= 0.0:
        raise ValueError(f"gain must be non-negative, got {gain}")
    if not 0.0 <= ps_ratio <= 1.0:
        raise ValueError(f"ps_ratio must lie in [0, 1], got {ps_ratio}")
    harvested = (
        0.5
        * params.conversion_efficiency
        * params.source_power
        * gain
        * ps_ratio
        * params.block_duration
    )
    return min(energy + harvested, params.battery_capacity)


@functools.lru_cache(maxsize=16)
def _delivery_table(g_channel: FiniteChannel, threshold: float) -> np.ndarray:
    """Per relay-destination gain g, largest first, the least energy u with
    u g >= threshold in floating point (inf if none is finite): u g is
    monotone in u, so u delivers through the gains of entries <= u.
    Read-only, built once per channel object and threshold (16 are kept)."""
    gains = g_channel.gains[::-1]
    top = np.array(np.inf).view(np.int64)  # bit patterns order floats >= 0

    def reaches(bits):
        return (bits == top) | (bits.view(float) * gains >= threshold)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        guess = (threshold / gains).view(np.int64)
        # bisect from a few ulps around the quotient, or all energies where
        # products round far from it (subnormal ones)
        low, high = np.maximum(guess - 2, 0), np.minimum(guess + 2, top)
        wide = reaches(low) | ~reaches(high)
        low[wide], high[wide] = 0, top
        for _ in range(int((high - low).max() - 1).bit_length()):  # to 1 ulp
            mid = low + (high - low) // 2
            up = reaches(mid)
            low, high = np.where(up, low, mid), np.where(up, mid, high)
    high.flags.writeable = False
    return high.view(float)


def _first_delivering(
    energies: np.ndarray, g_channel: FiniteChannel, params: SystemParams
) -> np.ndarray:
    """Per transmit energy u, the first gain index it delivers through by
    _delivery_table (count if none): g_channel.tail of it is the delivery
    probability pmf[gains * u >= delivery_threshold].sum(), 0.0 where u
    reaches no gain or is -inf (the relay did not decode)."""
    delivery = _delivery_table(g_channel, params.delivery_threshold)
    return delivery.size - np.searchsorted(delivery, energies, side="right")


def apply_action(
    energy: float,
    gain: float,
    ps_ratio: float,
    transmit_energy: float,
    params: SystemParams,
) -> tuple[bool, float]:
    """Play one block's action: (relay decodes, residual battery energy).

    The one place that validates a block and decides its feasibility and
    the relay's decoding. Rejects a negative transmit energy here, and
    through energy_after_harvest an energy outside [0, B], a negative
    gain and a ratio outside [0, 1]; raises InfeasibleActionError when
    the transmit energy exceeds the mid-block level. The relay decodes
    when ps_ratio <= max_ps_ratio(gain).
    """
    if not transmit_energy >= 0.0:
        raise ValueError(
            f"transmit_energy must be non-negative, got {transmit_energy}"
        )
    half = energy_after_harvest(energy, gain, ps_ratio, params)
    if transmit_energy > half:
        raise InfeasibleActionError(
            f"transmit energy {transmit_energy} uJ exceeds the "
            f"mid-block level {half} uJ"
        )
    cap = max_ps_ratio(gain, params)
    return cap is not None and ps_ratio <= cap, half - transmit_energy


def heuristic_rule(
    energy: float, gain: float, g_channel: FiniteChannel, params: SystemParams
) -> tuple[float, float]:
    """Battery-draining decision rule, as (ps_ratio, transmit_energy).

    Spend the whole mid-block level every block; harvest everything
    (ratio 1) when the block cannot succeed anyway, otherwise split at
    the largest still-decodable ratio. The residual battery energy is
    zero either way, which is what makes the long-run average tractable.
    """
    ratio = max_ps_ratio(gain, params)
    if ratio is not None:  # decodable: can draining deliver through the best g?
        half = energy_after_harvest(energy, gain, ratio, params)
        if half * g_channel.max_gain >= params.delivery_threshold:
            return ratio, half
    return 1.0, energy_after_harvest(energy, gain, 1.0, params)


def _split_table(energies, h_channel, params: SystemParams):
    """Mid-block levels by max_ps_ratio and energy_after_harvest at every
    battery energy (rows) and source-relay gain (columns), as (full,
    decoding): full harvests everything, decoding splits at the largest
    decodable ratio (equal to full where that ratio rounds to 1) and is -inf
    where the relay cannot decode; decoding <= full. Only a decoding block
    delivers, so a reward is the delivery probability of spending from
    decoding down to a target: 0.0 where only full reaches it, -inf where
    nothing does."""
    gains = h_channel.gains
    # the largest gain decides whether any received power overflows
    _received_power(h_channel.max_gain, params)
    received = gains * params.source_power
    noise_margin = params.noise_power * params.threshold_snr
    decodable = received >= 2.0 * noise_margin
    with np.errstate(divide="ignore", invalid="ignore"):
        cap = (received - 2.0 * noise_margin) / (received - noise_margin)
    cap = np.where(decodable, cap, 0.0)
    scale = 0.5 * params.conversion_efficiency * params.source_power

    def mid_block(ratio):
        harvested = scale * gains * ratio * params.block_duration
        return np.minimum(energies[:, None] + harvested, params.battery_capacity)

    # A harvest that overflows to inf clamps at capacity, as the scalar
    # float path does.
    with np.errstate(over="ignore"):
        full, decoding = mid_block(1.0), mid_block(cap)
    return full, np.where(decodable, decoding, -np.inf)


def heuristic_average_success(
    h_channel: FiniteChannel, g_channel: FiniteChannel, params: SystemParams
) -> float:
    """Closed-form long-run average success of the battery-draining rule.

    The rule leaves the battery empty after every block, so from the
    second block on the state is (0, h) with h fresh from the
    source-relay pmf and the average is a single expectation over h,
    computed as arrays over the alphabet and summed in alphabet order.
    A block succeeds with the delivery probability of its whole decoding
    level, 0.0 where the relay cannot decode.
    """
    _, decoding = _split_table(np.zeros(1), h_channel, params)
    probs = g_channel.tail[_first_delivering(decoding[0], g_channel, params)]
    return float(np.cumsum(h_channel.pmf * probs)[-1])


def make_heuristic_policy(g_channel: FiniteChannel, params: SystemParams):
    """Stationary policy (energy, gain) -> (ps_ratio, transmit_energy)
    implementing the battery-draining rule, for the block-level
    simulator."""
    return functools.partial(heuristic_rule, g_channel=g_channel, params=params)
