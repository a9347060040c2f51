"""Finite-state upper bound on the achievable average success probability.

The continuous battery is replaced by a uniform level grid: after every
block a hypothetical energy source tops the residual energy up to the next
grid level, which can only help any policy. On the modified system the
splitting ratio can be restricted to full harvesting or the largest
decodable ratio, and the transmit energy to the values that land the
residual exactly on a grid level, without lowering the optimum. The
resulting finite average-reward decision problem is solved by policy
iteration; its gain is the bound.

The source-relay channel is redrawn independently every block, so a
transition depends on the action only through the post-top-up battery
level. Evaluation, improvement and the recurrent-class check therefore
work on the chain of the L battery levels rather than on all L x C
(level, channel) states (Puterman, Markov Decision Processes, 1994, ch. 8).
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.csgraph

from .channel import FiniteChannel
from .relay import SystemParams, _received_power

__all__ = [
    "BatteryGrid",
    "MdpModel",
    "MultichainSuspectedError",
    "NonConvergenceError",
    "PolicyIterationResult",
    "build_mdp",
    "default_initial_rule",
    "policy_evaluate",
    "policy_improve",
    "policy_iteration",
    "round_up_level",
    "upper_bound",
]

# Condition-number estimates beyond 1e12 are treated as a singular
# evaluation system, the numerical signature of multiple recurrent classes.
_RCOND_MIN = 1e-12
_RESIDUAL_TOL = 1e-9
# Improvement leaves the incumbent action only for a candidate better by
# more than this, so floating-point near-ties cannot make the rule cycle.
# The converged gain then falls short of the optimum by at most this much.
_IMPROVE_TOL = 1e-13


class MultichainSuspectedError(RuntimeError):
    """The evaluated chain does not look unichain (singular evaluation
    system or more than one recurrent class)."""


class NonConvergenceError(RuntimeError):
    """Policy iteration hit its iteration cap without the rule repeating."""


@dataclass(frozen=True)
class BatteryGrid:
    """Uniformly spaced battery levels from empty to full capacity."""

    n_levels: int
    capacity: float
    levels: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.n_levels < 2:
            raise ValueError(f"n_levels must be at least 2, got {self.n_levels}")
        if not (math.isfinite(self.capacity) and self.capacity > 0.0):
            raise ValueError(
                f"capacity must be finite and positive, got {self.capacity}"
            )
        levels = np.linspace(0.0, self.capacity, self.n_levels)
        levels.flags.writeable = False
        object.__setattr__(self, "levels", levels)

    @property
    def spacing(self) -> float:
        return self.capacity / (self.n_levels - 1)


def _round_up(energy, grid: BatteryGrid, exact_up: bool):
    side = "right" if exact_up else "left"
    index = np.searchsorted(grid.levels, energy, side=side)
    return np.minimum(index, grid.n_levels - 1)


def round_up_level(energy: float, grid: BatteryGrid, exact_up: bool = True) -> int:
    """Level index the hypothetical source tops the battery up to.

    Residual energy inside [level i, level i+1) is driven to level i+1;
    with exact_up (the literal reading, and the default) an energy
    exactly on a grid level is also driven one level higher, except at
    full capacity which stays put. exact_up=False keeps exact grid hits
    in place instead, for sensitivity checks.
    """
    if not 0.0 <= energy <= grid.capacity:
        raise ValueError(
            f"energy must lie in [0, {grid.capacity}], got {energy}"
        )
    return int(_round_up(energy, grid, exact_up))


@dataclass(frozen=True, eq=False)
class MdpModel:
    """Discrete decision problem: one reward column per (splitting
    branch, target level) pair.

    The states are the battery levels of grid crossed with the
    source-relay channel alphabet h_channel; state (level j, channel i)
    sits at flat index j * h_channel.count + i. rewards[s, b * L + k],
    of shape (n_states, 2L) for L battery levels, is the success
    probability of splitting branch b (0 harvests everything, 1 splits
    at the largest decodable ratio) landing the residual on level k in
    flat state s, and -inf where that action does not exist. Every
    action targeting level k leaves the battery at post_of_target[k]
    after the end-of-block top-up; the next state is that level with a
    fresh channel draw, so transitions depend on the action only through
    its target.
    """

    grid: BatteryGrid
    h_channel: FiniteChannel
    g_channel: FiniteChannel
    params: SystemParams
    rewards: np.ndarray
    exact_up: bool = True
    post_of_target: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        rewards = np.array(self.rewards, dtype=float)
        shape = (self.n_states, 2 * self.grid.n_levels)
        if rewards.shape != shape:
            raise ValueError(f"rewards must have shape {shape}, got {rewards.shape}")
        if not np.all(rewards < np.inf):  # NaN compares false as well
            raise ValueError("rewards must be finite or -inf")
        if not np.all(np.any(rewards > -np.inf, axis=1)):
            raise ValueError("every state needs at least one action")
        post_of_target = _round_up(self.grid.levels, self.grid, self.exact_up)
        for name, value in (("rewards", rewards), ("post_of_target", post_of_target)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_states(self) -> int:
        return self.grid.n_levels * self.h_channel.count

    def _check_rule(self, rule: np.ndarray) -> np.ndarray:
        rule = np.asarray(rule, dtype=np.intp)
        if rule.shape != (self.n_states,):
            raise ValueError(
                f"rule must assign one action per state, got shape {rule.shape}"
            )
        in_range = (rule >= 0) & (rule < self.rewards.shape[1])
        exists = self.reward_vector(np.where(in_range, rule, 0)) > -np.inf
        bad = np.flatnonzero(~(in_range & exists))
        if bad.size:
            s = int(bad[0])
            raise ValueError(f"state {s}: column {rule[s]} is not an action")
        return rule

    def reward_vector(self, rule: np.ndarray) -> np.ndarray:
        """Per-state reward of the rule's chosen columns (unchecked: the
        public solvers validate a rule once before using it)."""
        return self.rewards[np.arange(self.n_states), rule]

    def post_levels(self, rule: np.ndarray) -> np.ndarray:
        """Per-state post-top-up level of the rule's chosen columns."""
        return self.post_of_target[rule % self.grid.n_levels]


def _delivery_probs(
    energies: np.ndarray, g_channel: FiniteChannel, params: SystemParams
) -> np.ndarray:
    """relay.delivery_success_prob for an array of positive or zero
    transmit energies, with the same boundary decisions and sums."""
    gains, pmf = g_channel.gains, g_channel.pmf
    count = g_channel.count
    threshold = params.delivery_threshold
    # tail[k] is the mass of gains k, k+1, ..., summed as the scalar
    # function sums that (contiguous) selection.
    tail = np.zeros(count + 1)
    tail[:count] = [pmf[k:].sum() for k in range(count)]
    with np.errstate(divide="ignore"):
        first = np.searchsorted(gains, threshold / energies)
    # The quotient can round across a gain; decide in product form
    # (u g >= threshold), which is monotone in g, until no index moves.
    while True:
        below = gains[np.maximum(first - 1, 0)] * energies >= threshold
        above = gains[np.minimum(first, count - 1)] * energies < threshold
        down = (first > 0) & below
        up = (first < count) & above
        if not (down.any() or up.any()):
            return tail[first]
        first = first - down + up


def build_mdp(
    h_channel: FiniteChannel,
    g_channel: FiniteChannel,
    params: SystemParams,
    n_levels: int,
    exact_up: bool = True,
) -> MdpModel:
    """Assemble the discrete model over (battery level, channel state)
    pairs in one vectorised pass.

    Each state gets one action per splitting branch and reachable grid
    target: harvest everything (ratio 1) always, plus the largest
    decodable ratio when the state can succeed at all (dropped when that
    ratio rounds to 1, where it would repeat the first branch); the
    transmit energy is whatever lands the residual exactly on the target
    level. The full-harvest action targeting the empty level is always
    present. Rewards use the true transmit energy and the arithmetic of
    relay.success_prob; the top-up happens only after the block.
    """
    grid = BatteryGrid(n_levels, params.battery_capacity)
    levels = grid.levels
    gains = h_channel.gains
    shape = (n_levels, h_channel.count)

    # relay.max_ps_ratio per channel state; the largest gain decides
    # whether any received power overflows
    _received_power(h_channel.max_gain, params)
    received = gains * params.source_power
    noise_margin = params.noise_power * params.threshold_snr
    decodable = received >= 2.0 * noise_margin
    with np.errstate(divide="ignore", invalid="ignore"):
        cap = np.where(
            decodable,
            (received - 2.0 * noise_margin) / (received - noise_margin),
            0.0,
        )

    def mid_block(ratio):  # relay.energy_after_harvest at every state
        harvested = (
            0.5
            * params.conversion_efficiency
            * params.source_power
            * gains
            * ratio
            * params.block_duration
        )
        return np.minimum(levels[:, None] + harvested, params.battery_capacity)

    half = np.stack([mid_block(1.0), mid_block(cap)], axis=2)
    # relay.can_succeed decides whether the decodable branch exists
    split = (
        decodable
        & (half[..., 1] * g_channel.max_gain >= params.delivery_threshold)
        & (cap != 1.0)
    )
    # A full-harvest action pays only where the decodable ratio rounds to 1.
    pays = np.stack([np.broadcast_to(decodable & (cap == 1.0), shape), split], axis=2)

    # Fill each action with its transmit energy (0 where the relay cannot
    # decode), then map every energy to its delivery probability at once.
    rewards = np.where(pays[..., None], half[..., None] - levels, 0.0)
    actions = levels <= half[..., None]
    actions[:, :, 1] &= split[..., None]
    rewards[actions] = _delivery_probs(rewards[actions], g_channel, params)
    rewards[~actions] = -np.inf
    return MdpModel(
        grid=grid,
        h_channel=h_channel,
        g_channel=g_channel,
        params=params,
        rewards=rewards.reshape(n_levels * h_channel.count, 2 * n_levels),
        exact_up=exact_up,
    )


def _level_chain(model: MdpModel, rule: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Channel-pmf averaged reward of each battery level under a checked
    rule, and the rule's level-to-level transition matrix."""
    n_levels = model.grid.n_levels
    pmf = model.h_channel.pmf
    post = model.post_levels(rule).reshape(n_levels, -1)
    mean_reward = model.reward_vector(rule).reshape(n_levels, -1) @ pmf
    edges = (np.arange(n_levels)[:, None] * n_levels + post).ravel()
    weights = np.broadcast_to(pmf, post.shape).ravel()
    transitions = np.bincount(edges, weights, minlength=n_levels * n_levels)
    return mean_reward, transitions.reshape(n_levels, n_levels)


def policy_evaluate(model: MdpModel, rule: np.ndarray) -> tuple[float, np.ndarray]:
    """Gain and level values of a stationary rule.

    Solves the unichain average-reward evaluation equations of the
    battery-level chain,

        gain + W = mean_reward + level_transitions @ W,    W[0] = 0,

    where W[j] is the channel-pmf average of the bias over the states of
    level j, relative to level 0; up to a constant, the bias of state
    (j, i) is reward - gain + W[post]. A numerically singular level system
    (condition estimate beyond 1e12) raises MultichainSuspectedError, the
    signature of a chain with more than one recurrent class, as does a
    residual of the level equations above 1e-9.
    """
    rule = model._check_rule(rule)
    mean_reward, transitions = _level_chain(model, rule)
    matrix = np.eye(len(mean_reward)) - transitions
    # W[0] = 0 frees the first column for the gain unknown.
    matrix[:, 0] = 1.0
    norm = np.linalg.norm(matrix, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(matrix)
    gecon = scipy.linalg.get_lapack_funcs(("gecon",), (matrix,))
    rcond, _ = gecon[0](lu, norm)
    if not np.isfinite(rcond) or rcond < _RCOND_MIN:
        raise MultichainSuspectedError(
            f"evaluation system has reciprocal condition {rcond:.3e}; the "
            f"rule's chain is probably not unichain (rule head {rule[:8]})"
        )
    values = scipy.linalg.lu_solve((lu, piv), mean_reward)
    gain = float(values[0])
    values[0] = 0.0
    residual = float(
        np.max(np.abs(mean_reward + transitions @ values - gain - values))
    )
    if residual > _RESIDUAL_TOL:
        raise MultichainSuspectedError(
            f"evaluation equations solved to residual {residual:.3e} "
            f"(tolerance {_RESIDUAL_TOL}); the linear system is unreliable"
        )
    return gain, values


def policy_improve(
    model: MdpModel, values: np.ndarray, incumbent: np.ndarray | None = None
) -> np.ndarray:
    """One improvement sweep over every state's actions.

    Per state, picks the action maximizing immediate reward plus the
    level value W of its post-top-up level (the gain would shift every
    candidate equally, so it is not needed). The incumbent action is
    kept unless the best candidate beats it by more than a fixed
    tolerance of 1e-13, the anti-cycling rule; without an incumbent, ties
    go to the smallest column.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (model.grid.n_levels,):
        raise ValueError(
            f"need one value per battery level ({model.grid.n_levels}), "
            f"got shape {values.shape}"
        )
    candidates = model.rewards + np.tile(values[model.post_of_target], 2)
    rule = np.argmax(candidates, axis=1)  # first maximum = smallest column
    if incumbent is not None:
        incumbent = model._check_rule(incumbent)
        states = np.arange(model.n_states)
        better = (
            candidates[states, rule] > candidates[states, incumbent] + _IMPROVE_TOL
        )
        rule = np.where(better, rule, incumbent)
    return rule


def default_initial_rule(model: MdpModel) -> np.ndarray:
    """Drain-to-empty starting rule: the action that empties the battery
    on the decodable branch (column L) when one exists, else on the
    full-harvest branch (column 0); the discrete analogue of the
    battery-draining heuristic."""
    n_levels = model.grid.n_levels
    return np.where(model.rewards[:, n_levels] > -np.inf, n_levels, 0)


@dataclass(frozen=True)
class PolicyIterationResult:
    """Converged gain, level values (bias, one per battery level, with
    bias[0] = 0), rule and the per-iteration gain trace."""

    gain: float
    bias: np.ndarray
    rule: np.ndarray
    iterations: int
    gain_history: tuple[float, ...]


def policy_iteration(
    model: MdpModel,
    initial_rule: np.ndarray | None = None,
    max_iterations: int = 10_000,
) -> PolicyIterationResult:
    """Average-reward policy iteration: alternate evaluation and
    improvement until the rule repeats."""
    if initial_rule is None:
        initial_rule = default_initial_rule(model)
    rule = model._check_rule(initial_rule)
    gains: list[float] = []
    for iteration in range(1, max_iterations + 1):
        gain, values = policy_evaluate(model, rule)
        gains.append(gain)
        improved = policy_improve(model, values, incumbent=rule)
        if np.array_equal(improved, rule):
            return PolicyIterationResult(
                gain=gain,
                bias=values,
                rule=rule,
                iterations=iteration,
                gain_history=tuple(gains),
            )
        rule = improved
    raise NonConvergenceError(
        f"policy iteration did not converge within {max_iterations} iterations"
    )


def _recurrent_class_count(model: MdpModel, rule: np.ndarray) -> int:
    """Exact number of recurrent classes of the rule's chain.

    Every channel state has positive probability, so the (level, channel)
    chain has one recurrent class per sink component of the
    strongly-connected-component condensation of the level graph.
    """
    _, transitions = _level_chain(model, rule)
    n_comp, labels = scipy.sparse.csgraph.connected_components(
        transitions, directed=True, connection="strong"
    )
    rows, cols = np.nonzero(transitions)
    crossing = labels[rows] != labels[cols]
    return n_comp - np.unique(labels[rows[crossing]]).size


def upper_bound(
    model: MdpModel,
    result: PolicyIterationResult,
    *,
    check: str = "structural",
    check_blocks: int = 20_000,
    check_seed: int = 0,
) -> float:
    """Bound on the original system's best average success probability.

    The bound is the channel-pmf average of the modified system's optimal
    long-run success over the empty-battery start states, which equals
    the policy-iteration gain when the optimal chain has one recurrent
    class. That premise is verified before returning:

    - check="structural" (default): count the recurrent classes of the
      optimal rule's chain exactly and reject more than one;
    - check="simulate": simulate the chain from every empty-battery start
      state and require agreement with the gain within Monte Carlo error;
    - check="none": trust the caller.
    """
    rule = model._check_rule(result.rule)
    if check == "structural":
        classes = _recurrent_class_count(model, rule)
        if classes != 1:
            raise MultichainSuspectedError(
                f"optimal rule's chain has {classes} recurrent classes; the "
                f"gain is not state-independent"
            )
    elif check == "simulate":
        from .simulate import SimulationConfig, simulate_discrete

        for i in range(model.h_channel.count):
            config = SimulationConfig(
                blocks=check_blocks, seed=check_seed + i, initial_energy=0.0
            )
            sim = simulate_discrete(model, rule, config, initial_channel=i)
            slack = 3.0 * sim.stderr + 1e-9
            if abs(sim.mean - result.gain) > slack:
                raise MultichainSuspectedError(
                    f"start state (empty, channel {i}) averages {sim.mean:.6g} "
                    f"vs gain {result.gain:.6g} (allowed deviation {slack:.3g})"
                )
    elif check != "none":
        raise ValueError(f"unknown check mode {check!r}")
    return float(result.gain)
