"""Physics and per-block reward of the continuous-energy relay.

A source powers a half-duplex decode-and-forward relay over the first half
of each block; the relay splits the received power between its energy
harvester (ratio lam) and its decoder, then spends a chosen amount of
battery energy to forward the message during the second half. Units are
fixed to milliwatts, milliseconds and microjoules so the energy and SNR
expressions need no conversion factors (mW x ms = uJ).
"""

import enum
import math
from dataclasses import dataclass

from .channel import FiniteChannel

__all__ = [
    "Action",
    "InfeasibleActionError",
    "State",
    "StateClass",
    "SystemParams",
    "classify_state",
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
    """

    source_power: float
    noise_power: float
    block_duration: float
    conversion_efficiency: float
    rate: float
    battery_capacity: float

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

    @property
    def threshold_snr(self) -> float:
        """Minimum SNR for successful decoding at the configured rate,
        4**rate - 1 (each hop only gets half of the block)."""
        return 4.0**self.rate - 1.0

    @property
    def delivery_threshold(self) -> float:
        """Product u * g (uJ x gain) the relay transmission needs for the
        destination SNR to reach threshold_snr."""
        return self.block_duration * self.noise_power * self.threshold_snr


@dataclass(frozen=True)
class State:
    """Battery energy (uJ) and current source-relay power gain at a block
    start."""

    energy: float
    gain: float

    def __post_init__(self) -> None:
        if self.energy < 0.0:
            raise ValueError(f"energy must be non-negative, got {self.energy}")
        if self.gain < 0.0:
            raise ValueError(f"gain must be non-negative, got {self.gain}")


@dataclass(frozen=True)
class Action:
    """Power-splitting ratio and relay transmit energy (uJ) for one block."""

    ps_ratio: float
    transmit_energy: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.ps_ratio <= 1.0:
            raise ValueError(f"ps_ratio must lie in [0, 1], got {self.ps_ratio}")
        if self.transmit_energy < 0.0:
            raise ValueError(
                f"transmit_energy must be non-negative, got {self.transmit_energy}"
            )


class StateClass(enum.Enum):
    """Whether any feasible action can deliver the block end to end."""

    ALWAYS_FAIL = "always_fail"
    CAN_SUCCEED = "can_succeed"


def max_ps_ratio(gain: float, params: SystemParams) -> float | None:
    """Largest power-splitting ratio that still lets the relay decode.

    The relay's decoder sees the (1 - lam) share of the source signal
    against antenna plus conversion noise, an SNR of
    (1 - lam) h Ps / ((2 - lam) sigma^2). It reaches the threshold SNR g_t
    for every lam up to (h Ps - 2 sigma^2 g_t) / (h Ps - sigma^2 g_t),
    which is returned and lies in [0, 1); None when no ratio in [0, 1]
    gives the decoder enough SNR (h Ps < 2 sigma^2 g_t). Every code path
    decides decodability as ps_ratio <= max_ps_ratio(gain).
    """
    received = gain * params.source_power
    noise_margin = params.noise_power * params.threshold_snr
    if received < 2.0 * noise_margin:
        return None
    return (received - 2.0 * noise_margin) / (received - noise_margin)


def energy_after_harvest(
    energy: float, gain: float, ps_ratio: float, params: SystemParams
) -> float:
    """Battery level mid-block, once harvesting has finished.

    min(eta Ps h lam T/2 + E, B): the harvested share of the source
    signal tops up the battery, clamped at capacity.
    """
    if not 0.0 <= energy <= params.battery_capacity:
        raise ValueError(
            f"energy must lie in [0, {params.battery_capacity}], got {energy}"
        )
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


def success_prob(
    state: State, action: Action, g_channel: FiniteChannel, params: SystemParams
) -> float:
    """End-to-end success probability of one block.

    The relay must decode (ps_ratio within the decodable range for the
    current gain) and the destination must decode the forwarded message;
    the action must be feasible for the state's battery level.
    """
    half = energy_after_harvest(state.energy, state.gain, action.ps_ratio, params)
    if action.transmit_energy > half:
        raise InfeasibleActionError(
            f"transmit energy {action.transmit_energy} uJ exceeds the "
            f"mid-block level {half} uJ"
        )
    cap = max_ps_ratio(state.gain, params)
    if cap is None or action.ps_ratio > cap:
        return 0.0
    return delivery_success_prob(action.transmit_energy, g_channel, params)


def classify_state(
    state: State, g_channel: FiniteChannel, params: SystemParams
) -> StateClass:
    """Tell whether the state admits an action with positive reward.

    ALWAYS_FAIL when the relay cannot decode at any split, or when even
    the largest feasible transmit energy (harvest at the maximum
    decodable ratio, then drain) cannot reach the destination threshold
    through the best relay-destination gain. Otherwise CAN_SUCCEED, and
    draining at the maximum decodable ratio is one witness action.
    """
    cap = max_ps_ratio(state.gain, params)
    if cap is None:
        return StateClass.ALWAYS_FAIL
    half = energy_after_harvest(state.energy, state.gain, cap, params)
    if half * g_channel.max_gain < params.delivery_threshold:
        return StateClass.ALWAYS_FAIL
    return StateClass.CAN_SUCCEED


def heuristic_rule(
    state: State, g_channel: FiniteChannel, params: SystemParams
) -> Action:
    """Battery-draining decision rule.

    Spend the whole mid-block level every block; harvest everything
    (ratio 1) when the block cannot succeed anyway, otherwise split at
    the largest still-decodable ratio. The residual battery energy is
    zero either way, which is what makes the long-run average tractable.
    """
    if classify_state(state, g_channel, params) is StateClass.ALWAYS_FAIL:
        ratio = 1.0
    else:
        ratio = max_ps_ratio(state.gain, params)
    return Action(ratio, energy_after_harvest(state.energy, state.gain, ratio, params))


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
        state = State(0.0, float(gain))
        action = heuristic_rule(state, g_channel, params)
        total += float(prob) * success_prob(state, action, g_channel, params)
    return total


def make_heuristic_policy(g_channel: FiniteChannel, params: SystemParams):
    """Stationary policy callable (energy, gain) -> Action implementing
    the battery-draining rule, for the block-level simulator."""

    def policy(energy: float, gain: float) -> Action:
        return heuristic_rule(State(energy, gain), g_channel, params)

    return policy
