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

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.csgraph

from .channel import FiniteChannel
from .relay import SystemParams

__all__ = [
    "BatteryGrid",
    "DiscreteStateSpace",
    "MdpModel",
    "MultichainSuspectedError",
    "NonConvergenceError",
    "PolicyIterationResult",
    "build_mdp",
    "default_initial_rule",
    "oracle_gain_bruteforce",
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


@dataclass(frozen=True)
class DiscreteStateSpace:
    """Battery levels crossed with the source-relay channel alphabet.

    Flat indexing groups states by battery level, with the channel index
    varying fastest: state (level j, channel i) sits at j * n_channels + i.
    """

    grid: BatteryGrid
    channel: FiniteChannel

    @property
    def n_states(self) -> int:
        return self.grid.n_levels * self.channel.count

    def flat_index(self, level: int, channel: int) -> int:
        if not 0 <= level < self.grid.n_levels:
            raise ValueError(f"level index {level} out of range")
        if not 0 <= channel < self.channel.count:
            raise ValueError(f"channel index {channel} out of range")
        return level * self.channel.count + channel

    def level_channel(self, flat: int) -> tuple[int, int]:
        if not 0 <= flat < self.n_states:
            raise ValueError(f"flat index {flat} out of range")
        return divmod(flat, self.channel.count)


@dataclass(frozen=True, eq=False)
class MdpModel:
    """Discrete decision problem: states, reduced actions and rewards as
    padded per-state arrays.

    rewards[s, k] is the success probability of action k in flat state s
    and posts[s, k] the battery level after the end-of-block top-up; the
    next state is that level with a fresh channel draw, so transitions
    depend on the action only through its post level. Only the first
    n_actions[s] entries of a row are actions; the padding reads -inf in
    rewards (and 0 in posts). In models from build_mdp the first
    n_full[s] actions harvest everything and target levels 0, 1, ...;
    the rest split at the largest decodable ratio and target levels
    0, 1, ... again.
    """

    space: DiscreteStateSpace
    g_channel: FiniteChannel
    params: SystemParams
    rewards: np.ndarray
    posts: np.ndarray
    n_actions: np.ndarray
    n_full: np.ndarray
    exact_up: bool = True

    def __post_init__(self) -> None:
        rewards = np.array(self.rewards, dtype=float)
        posts = np.array(self.posts, dtype=np.intp)
        n_actions = np.array(self.n_actions, dtype=np.intp)
        n_full = np.array(self.n_full, dtype=np.intp)
        n = self.space.n_states
        if rewards.ndim != 2 or posts.shape != rewards.shape or len(rewards) != n:
            raise ValueError(
                f"rewards and posts must both have shape ({n}, max actions), "
                f"got {rewards.shape} and {posts.shape}"
            )
        if n_actions.shape != (n,) or n_full.shape != (n,):
            raise ValueError(f"need one action count per state ({n} states)")
        if np.any(n_actions < 1) or np.any(n_actions > rewards.shape[1]):
            raise ValueError(
                f"every state needs between 1 and {rewards.shape[1]} actions"
            )
        if np.any(n_full < 0) or np.any(n_full > n_actions):
            raise ValueError("n_full must lie in [0, n_actions]")
        padding = np.arange(rewards.shape[1]) >= n_actions[:, None]
        if np.any(((posts < 0) | (posts >= self.space.grid.n_levels)) & ~padding):
            raise ValueError("post levels must index the battery grid")
        rewards[padding] = -np.inf
        posts[padding] = 0
        for name, value in (
            ("rewards", rewards),
            ("posts", posts),
            ("n_actions", n_actions),
            ("n_full", n_full),
        ):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_states(self) -> int:
        return self.space.n_states

    @property
    def h_pmf(self) -> np.ndarray:
        return self.space.channel.pmf

    def _check_rule(self, rule: np.ndarray) -> np.ndarray:
        rule = np.asarray(rule, dtype=np.intp)
        if rule.shape != (self.n_states,):
            raise ValueError(
                f"rule must assign one action per state, got shape {rule.shape}"
            )
        bad = np.flatnonzero((rule < 0) | (rule >= self.n_actions))
        if bad.size:
            s = int(bad[0])
            raise ValueError(f"state {s}: action index {rule[s]} out of range")
        return rule

    def reward_vector(self, rule: np.ndarray) -> np.ndarray:
        """Per-state reward of the rule's chosen actions."""
        rule = self._check_rule(rule)
        return self.rewards[np.arange(self.n_states), rule]

    def post_levels(self, rule: np.ndarray) -> np.ndarray:
        """Per-state post-top-up level of the rule's chosen actions."""
        rule = self._check_rule(rule)
        return self.posts[np.arange(self.n_states), rule]


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

    # relay.max_ps_ratio per channel state
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

    half_full = mid_block(1.0)
    half_split = mid_block(cap)
    # relay.can_succeed decides whether the decodable branch exists
    split = (
        decodable
        & (half_split * g_channel.max_gain >= params.delivery_threshold)
        & (cap != 1.0)
    )
    n_full = np.searchsorted(levels, half_full, side="right")
    n_split = np.where(split, np.searchsorted(levels, half_split, side="right"), 0)
    n_actions = n_full + n_split
    # A full-harvest action pays only where the decodable ratio rounds to 1.
    full_pays = np.broadcast_to(decodable & (cap == 1.0), shape)

    # Fill each action with its transmit energy (0 where the relay cannot
    # decode), then map every energy to its delivery probability at once.
    rewards = np.full(shape + (int(n_actions.max()),), -np.inf)
    posts = np.zeros(rewards.shape, dtype=np.intp)
    post_of_target = _round_up(levels, grid, exact_up)
    for half, n_targets, offset, pays in (
        (half_full, n_full, np.zeros(shape, dtype=np.intp), full_pays),
        (half_split, n_split, n_full, split),
    ):
        j, i, target = np.nonzero(np.arange(n_levels) < n_targets[..., None])
        column = offset[j, i] + target
        rewards[j, i, column] = np.where(pays[j, i], half[j, i] - levels[target], 0.0)
        posts[j, i, column] = post_of_target[target]
    actions = np.isfinite(rewards)
    rewards[actions] = _delivery_probs(rewards[actions], g_channel, params)
    n_states = n_levels * h_channel.count
    return MdpModel(
        space=DiscreteStateSpace(grid, h_channel),
        g_channel=g_channel,
        params=params,
        rewards=rewards.reshape(n_states, -1),
        posts=posts.reshape(n_states, -1),
        n_actions=n_actions.ravel(),
        n_full=n_full.ravel(),
        exact_up=exact_up,
    )


def _expected_bias_by_level(model: MdpModel, bias: np.ndarray) -> np.ndarray:
    """Channel-pmf average of the bias over each battery-level block."""
    n_channels = model.space.channel.count
    return bias.reshape(model.space.grid.n_levels, n_channels) @ model.h_pmf


def _level_chain(model: MdpModel, rule: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Channel-pmf averaged reward of each battery level under the rule,
    and the rule's level-to-level transition matrix."""
    n_levels = model.space.grid.n_levels
    posts = model.post_levels(rule).reshape(n_levels, -1)
    mean_reward = model.reward_vector(rule).reshape(n_levels, -1) @ model.h_pmf
    edges = (np.arange(n_levels)[:, None] * n_levels + posts).ravel()
    weights = np.broadcast_to(model.h_pmf, posts.shape).ravel()
    transitions = np.bincount(edges, weights, minlength=n_levels * n_levels)
    return mean_reward, transitions.reshape(n_levels, n_levels)


def policy_evaluate(model: MdpModel, rule: np.ndarray) -> tuple[float, np.ndarray]:
    """Gain and bias of a stationary rule.

    Solves the unichain average-reward evaluation equations of the
    battery-level chain,

        gain + W = mean_reward + level_transitions @ W,    W[0] = 0,

    where W[j] is the pmf-weighted bias of level j up to a constant, then
    recovers the per-state bias as reward - gain + W[post], shifted so
    that bias[0] = 0, and checks the residual of the full per-state
    equations. A numerically singular level system (condition estimate
    beyond 1e12) raises MultichainSuspectedError, the signature of a
    chain with more than one recurrent class.
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
    level_bias = scipy.linalg.lu_solve((lu, piv), mean_reward)
    gain = float(level_bias[0])
    level_bias[0] = 0.0
    rewards, posts = model.reward_vector(rule), model.post_levels(rule)
    bias = rewards - gain + level_bias[posts]
    bias -= bias[0]
    successor_bias = _expected_bias_by_level(model, bias)[posts]
    residual = float(np.max(np.abs(rewards + successor_bias - gain - bias)))
    if residual > _RESIDUAL_TOL:
        raise MultichainSuspectedError(
            f"evaluation equations solved to residual {residual:.3e} "
            f"(tolerance {_RESIDUAL_TOL}); the linear system is unreliable"
        )
    return gain, bias


def policy_improve(
    model: MdpModel, bias: np.ndarray, incumbent: np.ndarray | None = None
) -> np.ndarray:
    """One improvement sweep over every state's actions.

    Per state, picks the action maximizing immediate reward plus the
    expected bias of the successor block (the gain would shift every
    candidate equally, so it is not needed). The incumbent action is
    kept unless the best candidate beats it by more than a fixed
    tolerance of 1e-13, the anti-cycling rule; without an incumbent, ties
    go to the smallest action index.
    """
    level_bias = _expected_bias_by_level(model, np.asarray(bias, dtype=float))
    values = model.rewards + level_bias[model.posts]
    rule = np.argmax(values, axis=1)  # first maximum = smallest index
    if incumbent is not None:
        incumbent = model._check_rule(incumbent)
        states = np.arange(model.n_states)
        better = values[states, rule] > values[states, incumbent] + _IMPROVE_TOL
        rule = np.where(better, rule, incumbent)
    return rule


def default_initial_rule(model: MdpModel) -> np.ndarray:
    """Drain-to-empty starting rule: the action that empties the battery
    on the decodable branch when one exists, else on the full-harvest
    branch (the discrete analogue of the battery-draining heuristic)."""
    return np.where(model.n_full < model.n_actions, model.n_full, 0).astype(np.intp)


@dataclass(frozen=True)
class PolicyIterationResult:
    """Converged gain, bias, rule and the per-iteration gain trace."""

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
        rule = default_initial_rule(model)
    else:
        rule = model._check_rule(initial_rule)
    gains: list[float] = []
    for iteration in range(1, max_iterations + 1):
        gain, bias = policy_evaluate(model, rule)
        gains.append(gain)
        improved = policy_improve(model, bias, incumbent=rule)
        if np.array_equal(improved, rule):
            return PolicyIterationResult(
                gain=gain,
                bias=bias,
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

        for i in range(model.space.channel.count):
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


def oracle_gain_bruteforce(
    model: MdpModel,
    max_rules: int = 1_000_000,
    tol: float = 1e-12,
    max_doublings: int = 100,
) -> float:
    """Exhaustive maximum long-run average reward over every stationary
    deterministic rule, for cross-checking policy iteration on tiny
    models.

    Each rule's battery-level chain is driven to its limiting occupancy
    from the empty level (the channel is drawn from its pmf every block,
    so the level chain carries the whole law) by repeatedly squaring the
    half-lazy operator (I + transitions) / 2, which has the same limit as
    the plain chain's time averages but converges geometrically even
    through periodic structure; iteration stops once one more squaring
    moves no entry by more than tol.
    """
    counts = [int(c) for c in model.n_actions]
    n_rules = math.prod(counts)
    if n_rules > max_rules:
        raise ValueError(
            f"{n_rules} stationary deterministic rules exceed the "
            f"enumeration budget of {max_rules}"
        )
    identity = np.eye(model.space.grid.n_levels)
    best = -np.inf
    for combo in itertools.product(*(range(c) for c in counts)):
        mean_reward, transitions = _level_chain(model, np.array(combo, dtype=np.intp))
        lazy = 0.5 * (identity + transitions)
        for _ in range(max_doublings):
            squared = lazy @ lazy
            done = np.max(np.abs(squared - lazy)) < tol
            lazy = squared
            if done:
                break
        else:
            raise NonConvergenceError(
                f"chain limit not reached within {max_doublings} doublings"
            )
        best = max(best, float(lazy[0] @ mean_reward))
    return best
