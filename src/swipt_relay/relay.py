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
from dataclasses import dataclass, field

from .channel import FiniteChannel

__all__ = [
    "InfeasibleActionError",
    "SystemParams",
    "apply_action",
    "can_succeed",
    "delivery_success_prob",
    "energy_after_harvest",
    "heuristic_average_success",
    "heuristic_rule",
    "make_heuristic_policy",
    "max_ps_ratio",
    "success_prob",
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
    derived once, and a rate whose threshold overflows is rejected.
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
        for name in (
            "source_power",
            "noise_power",
            "block_duration",
            "conversion_efficiency",
            "rate",
            "battery_capacity",
        ):
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
        object.__setattr__(self, "threshold_snr", threshold_snr)
        object.__setattr__(self, "delivery_threshold", delivery_threshold)


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


def delivery_success_prob(
    transmit_energy: float, g_channel: FiniteChannel, params: SystemParams
) -> float:
    """Probability that the destination decodes the relay transmission.

    Mass of the relay-destination gains g with g >= T sigma^2 g_t / u,
    evaluated in product form (u g >= T sigma^2 g_t) so the comparison
    stays exact at the threshold; zero when no energy is spent.
    """
    if transmit_energy < 0.0:
        raise ValueError(
            f"transmit_energy must be non-negative, got {transmit_energy}"
        )
    if transmit_energy == 0.0:
        return 0.0
    reaches = g_channel.gains * transmit_energy >= params.delivery_threshold
    return float(g_channel.pmf[reaches].sum())


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


def success_prob(
    energy: float,
    gain: float,
    ps_ratio: float,
    transmit_energy: float,
    g_channel: FiniteChannel,
    params: SystemParams,
) -> float:
    """End-to-end success probability of one block.

    The action must be feasible at the block's battery energy, the relay
    must decode at the chosen split, and the destination must decode the
    forwarded message.
    """
    decodes, _ = apply_action(energy, gain, ps_ratio, transmit_energy, params)
    if not decodes:
        return 0.0
    return delivery_success_prob(transmit_energy, g_channel, params)


def can_succeed(
    energy: float, gain: float, g_channel: FiniteChannel, params: SystemParams
) -> bool:
    """Whether some feasible action has a positive reward in this state.

    False when the relay cannot decode at any split, or when even the
    largest feasible transmit energy (harvest at the maximum decodable
    ratio, then drain) cannot reach the destination threshold through the
    best relay-destination gain. When True, draining at the maximum
    decodable ratio is one witness action.
    """
    cap = max_ps_ratio(gain, params)
    if cap is None:
        return False
    half = energy_after_harvest(energy, gain, cap, params)
    return half * g_channel.max_gain >= params.delivery_threshold


def heuristic_rule(
    energy: float, gain: float, g_channel: FiniteChannel, params: SystemParams
) -> tuple[float, float]:
    """Battery-draining decision rule, as (ps_ratio, transmit_energy).

    Spend the whole mid-block level every block; harvest everything
    (ratio 1) when the block cannot succeed anyway, otherwise split at
    the largest still-decodable ratio. The residual battery energy is
    zero either way, which is what makes the long-run average tractable.
    """
    if can_succeed(energy, gain, g_channel, params):
        ratio = max_ps_ratio(gain, params)
    else:
        ratio = 1.0
    return ratio, energy_after_harvest(energy, gain, ratio, params)


def heuristic_average_success(
    h_channel: FiniteChannel, g_channel: FiniteChannel, params: SystemParams
) -> float:
    """Closed-form long-run average success of the battery-draining rule.

    The rule leaves the battery empty after every block, so from the
    second block on the state is (0, h) with h fresh from the
    source-relay pmf and the average is a single expectation over h.
    """
    total = 0.0
    for gain, prob in zip(h_channel.gains, h_channel.pmf):
        gain = float(gain)
        action = heuristic_rule(0.0, gain, g_channel, params)
        total += float(prob) * success_prob(0.0, gain, *action, g_channel, params)
    return total


def make_heuristic_policy(g_channel: FiniteChannel, params: SystemParams):
    """Stationary policy (energy, gain) -> (ps_ratio, transmit_energy)
    implementing the battery-draining rule, for the block-level
    simulator."""
    return functools.partial(heuristic_rule, g_channel=g_channel, params=params)
