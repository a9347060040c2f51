"""Test-only references for the array-built model and the level-chain solver.

The package builds every state's actions in vectorised blocks and solves
policy evaluation on the L-state battery-level chain. These references do
the same work the direct way: the scalar block physics (success_prob,
delivery_success_prob and can_succeed) and top-up (round_up_level) that
the package computes as arrays, the per-state action loop through them,
each state's mid-block level and decode-and-deliver test per splitting
branch, the rewards with one column per (splitting branch, target level)
pair that build_mdp folds to one column per target, the whole model in one
pass with the delivery index fixed up by stepping, improvement as one
argmax over every state, a rule's level chain accrued state by state
with each target's top-up level from round_up_level, the bound's one
Bellman update through the greedy rule's level chain, the dense
evaluation on the full L*C-state (battery level, channel) chain, the
exact recurrent-class count of a rule's chain from its strongly
connected components, the best gain over every stationary deterministic
rule by enumeration, the draining rule
through can_succeed, the heuristic's closed form as a running total over
scalar blocks, the channel sampler as one binary search per uniform and
its guide table as two searches over the bucket edges, the
continuous-energy simulator that asks the policy and plays its action
afresh every block and scores its delivery probability, and the
discretized simulator, which estimates a rule's gain by accruing each
block's success probability, as
simulate_discrete over Python lists and as oracle_simulate_discrete
indexing the numpy tables block by block, both after check_rule's state
by state check of the rule.
"""

import functools
import itertools
import math
import warnings
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from swipt_relay import (
    FiniteChannel,
    MdpModel,
    MultichainSuspectedError,
    NonConvergenceError,
    SimulationConfig,
    SimulationResult,
    SystemParams,
    apply_action,
    energy_after_harvest,
    max_ps_ratio,
    sample_channel,
)
from swipt_relay.mdp import _IMPROVE_TOL
from swipt_relay.relay import _received_power


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


def round_up_level(energy: float, levels: np.ndarray, exact_up: bool = True) -> int:
    """Level index the hypothetical source tops the battery up to.

    Residual energy inside [level i, level i+1) is driven to level i+1;
    with exact_up (the literal reading, and the default) an energy
    exactly on a grid level is also driven one level higher, except at
    full capacity which stays put. exact_up=False keeps exact grid hits
    in place instead, for sensitivity checks. The capacity is levels[-1].
    """
    capacity = levels[-1]
    if not 0.0 <= energy <= capacity:
        raise ValueError(f"energy must lie in [0, {capacity}], got {energy}")
    index = np.searchsorted(levels, energy, side="right" if exact_up else "left")
    return int(min(index, len(levels) - 1))


def oracle_post_levels(model):
    """Per target level, the level round_up_level tops an exact landing on
    it up to."""
    levels = model.levels
    return [round_up_level(float(level), levels, model.exact_up) for level in levels]


def check_rule(model, rule):
    """The rule as intp, once it holds one integer level per state and
    each state's level is one of its actions, checked state by state."""
    rule = np.asarray(rule)
    if rule.dtype.kind not in "iu":
        raise ValueError(f"rule must hold integer levels, got dtype {rule.dtype}")
    if rule.shape != (model.n_states,):
        raise ValueError(f"rule needs one level per state, got shape {rule.shape}")
    for s, column in enumerate(rule.tolist()):
        if not (0 <= column < model.levels.size and model.rewards[s, column] > -np.inf):
            raise ValueError(f"state {s}: column {column} is not an action")
    return rule.astype(np.intp)


def rule_rewards(model, rule):
    """Per flat state, the reward of the rule's target level."""
    return model.rewards[np.arange(model.n_states), rule]


def oracle_level_chain(model, rule, posts):
    """Channel-pmf averaged reward of each battery level under a rule, and
    the rule's level-to-level transition matrix, accrued state by state:
    state (level j, channel i) adds pmf[i] times its reward to level j's
    and pmf[i] to the transition from j to posts[target], its target's
    post-top-up level."""
    n_levels = model.levels.size
    pmf = model.h_channel.pmf
    mean_reward = np.zeros(n_levels)
    transitions = np.zeros((n_levels, n_levels))
    for s, target in enumerate(rule):
        level, channel = divmod(s, pmf.size)
        mean_reward[level] += pmf[channel] * model.rewards[s, target]
        transitions[level, posts[target]] += pmf[channel]
    return mean_reward, transitions


class ReducedAction(NamedTuple):
    """One reduced action: the splitting branch, the transmit energy the
    relay really radiates, the grid level the residual lands on exactly,
    the level after the end-of-block top-up and the success probability."""

    ps_ratio: float
    transmit_energy: float
    target_level: int
    post_level: int
    reward: float


def reference_actions(energy, gain, g_channel, params, levels, exact_up=True):
    """Reduced action list of one state, enumerated by a loop over the
    splitting branches and grid targets with the scalar relay functions."""
    branches = [1.0]
    if can_succeed(energy, gain, g_channel, params):
        branches.append(max_ps_ratio(gain, params))
    actions = []
    seen = set()
    for ratio in branches:
        half = energy_after_harvest(energy, gain, ratio, params)
        last_target = int(np.searchsorted(levels, half, side="right")) - 1
        for target in range(last_target + 1):
            if (ratio, target) in seen:
                continue
            seen.add((ratio, target))
            spend = float(half - levels[target])
            post = round_up_level(float(levels[target]), levels, exact_up)
            reward = success_prob(energy, gain, ratio, spend, g_channel, params)
            actions.append(ReducedAction(ratio, spend, target, post, reward))
    return actions


def fold_actions(actions):
    """One action per target level from an action list: the split at the
    largest decodable ratio where it scores more than full harvesting,
    full harvesting otherwise (ties included), in target order."""
    best = {}
    for action in actions:
        held = best.get(action.target_level)
        if held is None or (action.ps_ratio < 1.0 and action.reward > held.reward):
            best[action.target_level] = action
    return [best[target] for target in sorted(best)]


def oracle_split_table(energies, h_channel, g_channel, params: SystemParams):
    """max_ps_ratio, energy_after_harvest and heuristic_rule's success test
    at every battery energy (rows) and source-relay gain (columns), as (half,
    pays) over the splitting branches (0 harvests everything, 1 splits at the
    largest decodable ratio): the mid-block level, and whether the relay
    decodes there and branch 1 exists (not where its ratio rounds to 1)."""
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

    # A product that overflows to inf decides as the scalar float path does:
    # the harvest clamps at capacity, and an inf u * g reaches any threshold.
    with np.errstate(over="ignore"):
        half = np.stack([mid_block(1.0), mid_block(cap)], axis=2)
        reaches = half[..., 1] * g_channel.max_gain >= params.delivery_threshold
    split = decodable & (cap != 1.0) & reaches
    # A full-harvest block decodes only where the decodable ratio rounds to 1.
    full = np.broadcast_to(decodable & (cap == 1.0), split.shape)
    return half, np.stack([full, split], axis=2)


def two_branch_rewards(h_channel, g_channel, params, n_levels, exact_up=True):
    """Rewards of the two-branch model, of shape (L x C, 2L): column
    b * L + k is splitting branch b (0 harvests everything, 1 splits at
    the largest decodable ratio) landing the residual on level k, and -inf
    where that action does not exist. exact_up does not change them."""
    levels = np.linspace(0.0, params.battery_capacity, n_levels)
    half, pays = oracle_split_table(levels, h_channel, g_channel, params)
    half, pays = half.reshape(-1, 2, 1), pays.reshape(-1, 2, 1)
    # An action exists where its target fits under the mid-block level (on
    # the decodable branch only where that pays); paying ones score delivery.
    spend = half - levels  # [state, branch, target]
    fits = spend >= 0.0
    delivers = fits & pays
    fits[:, 1] = delivers[:, 1]
    rewards = np.where(fits, 0.0, -np.inf)
    first = oracle_first_delivering(spend[delivers], g_channel, params)
    rewards[delivers] = g_channel.tail[first]
    rewards.flags.writeable = False
    return rewards.reshape(len(half), 2 * n_levels)


def fold_branches(rewards):
    """Per state and target level, the larger reward of the two branches of
    a (states, 2L) two-branch reward array."""
    return rewards.reshape(len(rewards), 2, -1).max(axis=1)


@functools.lru_cache(maxsize=8)
def _model_branch_rewards(model):
    return two_branch_rewards(
        model.h_channel,
        model.g_channel,
        model.params,
        model.levels.size,
        model.exact_up,
    ).reshape(model.n_states, 2, -1)


def action_columns(model):
    """Per flat state, the columns of the actions that exist (finite
    rewards), in ascending order."""
    return [np.flatnonzero(row > -np.inf) for row in model.rewards]


def kth_action_rule(model, k):
    """Rule taking each state's k-th action, or its last one when the
    state has fewer."""
    return np.array([cols[min(k, cols.size - 1)] for cols in action_columns(model)])


def model_actions(model, state):
    """The actions the model stores for one flat state of a built model,
    decoded from its columns: column k targets level k, by the split at
    the largest decodable ratio where the two-branch rewards score it
    above full harvesting, and by full harvesting otherwise (ties
    included)."""
    level, channel = divmod(state, model.h_channel.count)
    energy = float(model.levels[level])
    gain = float(model.h_channel.gains[channel])
    full, split = _model_branch_rewards(model)[state]
    actions = []
    for target in action_columns(model)[state]:
        target = int(target)
        if split[target] > full[target]:
            ratio = max_ps_ratio(gain, model.params)
        else:
            ratio = 1.0
        half = energy_after_harvest(energy, gain, ratio, model.params)
        actions.append(
            ReducedAction(
                ratio,
                float(half - model.levels[target]),
                target,
                int(model.post_of_target[target]),
                float(model.rewards[state, target]),
            )
        )
    return actions


def oracle_first_delivering(energies, g_channel, params):
    """Per finite non-negative transmit energy u, the index of the first
    relay-destination gain g with u g >= the delivery threshold (count
    when none does): g_channel.tail of it is delivery_success_prob(u)."""
    gains, count = g_channel.gains, g_channel.count
    threshold = params.delivery_threshold
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
            return first
        first = first - down + up


def oracle_build_mdp(h_channel, g_channel, params, n_levels, exact_up=True):
    """build_mdp in one vectorised pass over both branches' model-sized
    arrays, with the delivery index of oracle_first_delivering, folded to
    the larger reward per target level at the end."""
    levels = np.linspace(0.0, params.battery_capacity, n_levels)
    half, pays = oracle_split_table(levels, h_channel, g_channel, params)

    # Fill each action with its transmit energy (0 where the relay cannot
    # decode), then map every energy to its delivery probability at once.
    rewards = np.where(pays[..., None], half[..., None] - levels, 0.0)
    actions = levels <= half[..., None]
    actions[:, :, 1] &= pays[..., 1, None]
    rewards[actions] = g_channel.tail[
        oracle_first_delivering(rewards[actions], g_channel, params)
    ]
    rewards[~actions] = -np.inf
    return MdpModel(
        levels=levels,
        h_channel=h_channel,
        g_channel=g_channel,
        params=params,
        rewards=rewards.max(axis=2).reshape(n_levels * h_channel.count, n_levels),
        exact_up=exact_up,
    )


def oracle_improve(model, values, incumbent=None):
    """The improvement sweep's rule as one argmax over the candidates of
    every state."""
    candidates = model.rewards + values[oracle_post_levels(model)]
    rule = np.argmax(candidates, axis=1)  # first maximum = lowest target
    if incumbent is not None:
        states = np.arange(model.n_states)
        better = (
            candidates[states, rule] > candidates[states, incumbent] + _IMPROVE_TOL
        )
        rule = np.where(better, rule, incumbent)
    return rule


def oracle_bellman_update(model, values):
    """One Bellman update of the level values minus the values, TW - W,
    through the greedy rule's level chain: its channel-averaged rewards
    plus its level transitions applied to W."""
    mean_reward, transitions = oracle_level_chain(
        model, oracle_improve(model, values), oracle_post_levels(model)
    )
    return mean_reward + transitions @ values - values


def state_transition_matrix(model, rule):
    """Dense L*C transition matrix of a rule: row s carries the channel pmf
    in the block of columns of its post-top-up level."""
    pmf = model.h_channel.pmf
    matrix = np.zeros((model.n_states, model.n_states))
    for s, post in enumerate(model.post_of_target[rule]):
        matrix[s, post * pmf.size : (post + 1) * pmf.size] = pmf
    return matrix


def dense_evaluate(model, rule):
    """Gain and bias from the L*C evaluation equations

        gain + bias = rewards + transitions @ bias,    bias[0] = 0,

    by a dense LU solve, rejecting a reciprocal condition below 1e-12 as
    a chain with more than one recurrent class."""
    matrix = -state_transition_matrix(model, rule)
    matrix[np.diag_indices(model.n_states)] += 1.0
    matrix[:, 0] = 1.0
    norm = np.linalg.norm(matrix, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(matrix)
    gecon = scipy.linalg.get_lapack_funcs(("gecon",), (matrix,))
    rcond, _ = gecon[0](lu, norm)
    if not np.isfinite(rcond) or rcond < 1e-12:
        raise MultichainSuspectedError(f"reciprocal condition {rcond:.3e}")
    solution = scipy.linalg.lu_solve((lu, piv), rule_rewards(model, rule))
    bias = solution.copy()
    bias[0] = 0.0
    return float(solution[0]), bias


def recurrent_class_count(model, rule):
    """Recurrent classes of the rule's L*C chain: the sink components of
    its strongly-connected-component condensation."""
    n = model.n_states
    n_channels = model.h_channel.count
    posts = model.post_of_target[rule]
    rows = np.repeat(np.arange(n), n_channels)
    cols = (posts[:, None] * n_channels + np.arange(n_channels)).ravel()
    graph = scipy.sparse.coo_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(n, n)
    ).tocsr()
    n_comp, labels = scipy.sparse.csgraph.connected_components(
        graph, directed=True, connection="strong"
    )
    has_exit = np.zeros(n_comp, dtype=bool)
    crossing = labels[rows] != labels[cols]
    has_exit[labels[rows[crossing]]] = True
    return int(n_comp - has_exit.sum())


def oracle_gain_bruteforce(
    model,
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
    columns = action_columns(model)
    n_rules = math.prod(cols.size for cols in columns)
    if n_rules > max_rules:
        raise ValueError(
            f"{n_rules} stationary deterministic rules exceed the "
            f"enumeration budget of {max_rules}"
        )
    identity = np.eye(model.levels.size)
    posts = oracle_post_levels(model)
    best = -np.inf
    for combo in itertools.product(*columns):
        mean_reward, transitions = oracle_level_chain(model, combo, posts)
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


def oracle_heuristic_rule(energy, gain, g_channel, params):
    """heuristic_rule deciding through can_succeed, then asking
    max_ps_ratio and energy_after_harvest again for the chosen ratio."""
    if can_succeed(energy, gain, g_channel, params):
        ratio = max_ps_ratio(gain, params)
    else:
        ratio = 1.0
    return ratio, energy_after_harvest(energy, gain, ratio, params)


def oracle_heuristic_average_success(h_channel, g_channel, params):
    """heuristic_average_success as a running total over the source-relay
    alphabet, each gain's block at the empty battery decided by
    oracle_heuristic_rule and scored by success_prob."""
    total = 0.0
    for gain, prob in zip(h_channel.gains, h_channel.pmf):
        gain = float(gain)
        action = oracle_heuristic_rule(0.0, gain, g_channel, params)
        total += float(prob) * success_prob(0.0, gain, *action, g_channel, params)
    return total


def oracle_sample_channel(channel, rng, size):
    """size i.i.d. channel-state indices, drawn by inverse-cdf lookup on
    uniforms."""
    idx = np.searchsorted(np.cumsum(channel.pmf), rng.random(size), side="right")
    return np.minimum(idx, channel.count - 1)


def oracle_guide_table(inner, buckets):
    """sample_channel's guide table: per bucket, the count of cdf entries
    below it and whether two or more lie in it, with a 1e-12 margin, by
    searching the cdf for every bucket edge."""
    edges = np.arange(buckets + 1) / buckets
    edges[-1] = np.inf
    guide = np.searchsorted(inner, edges[:-1] - 1e-12, side="right")
    crowded = np.searchsorted(inner, edges[1:] + 1e-12, side="right") - guide > 1
    return guide, crowded


def mean_stderr(total, total_sq, blocks):
    """Sample mean of a run's per-block values from their sum and sum of
    squares, and its i.i.d. standard error (0.0 for one block)."""
    mean = total / blocks
    if blocks < 2:
        return mean, 0.0
    variance = max(total_sq - blocks * mean * mean, 0.0) / (blocks - 1)
    return mean, math.sqrt(variance / blocks)


def oracle_simulate_original(
    policy, h_channel, g_channel, params, config, *, keep_trace=False
):
    """simulate_original with one policy call and one apply_action per
    block: the same draws in the same order, the block decided with scalar
    arithmetic and scored by delivery_success_prob (0.0 when the relay does
    not decode), the run's sums taken from oracle_first_delivering."""
    if config.initial_energy > params.battery_capacity:
        raise ValueError(
            f"initial_energy {config.initial_energy} exceeds the battery "
            f"capacity {params.battery_capacity}"
        )
    rng = np.random.default_rng(config.seed)
    blocks = config.blocks
    h_gains = h_channel.gains[oracle_sample_channel(h_channel, rng, blocks)]
    energy = float(config.initial_energy)
    scores, forwarded = np.zeros(blocks), np.zeros(blocks)
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
        if decodes:
            scores[m] = delivery_success_prob(transmit_energy, g_channel, params)
            forwarded[m] = transmit_energy
        energy = residual
    # summed as simulate_original sums the scores: blocks tallied per first
    # delivering gain, then fsum of tally * tail and of tally * tail * tail
    first = oracle_first_delivering(forwarded, g_channel, params)
    pmf = g_channel.pmf
    tail = np.array([pmf[k:].sum() for k in range(pmf.size)] + [0.0])
    sums = np.bincount(first, minlength=tail.size) * tail
    mean, stderr = mean_stderr(math.fsum(sums), math.fsum(sums * tail), blocks)
    return SimulationResult(
        mean=mean,
        stderr=stderr,
        blocks=blocks,
        seed=config.seed,
        trace=scores if keep_trace else None,
    )


def oracle_simulate_discrete(model, rule, config, *, keep_trace=False):
    """simulate_discrete indexing the numpy reward and post-level tables
    block by block, on channel draws from oracle_sample_channel."""
    rule = check_rule(model, rule)
    n_levels = model.levels.size
    n_channels = model.h_channel.count
    reward_table = rule_rewards(model, rule).reshape(n_levels, n_channels)
    post_table = model.post_of_target[rule].reshape(n_levels, n_channels)
    rng = np.random.default_rng(config.seed)
    blocks = config.blocks
    h_idx = oracle_sample_channel(model.h_channel, rng, blocks)
    level = int(np.searchsorted(model.levels, config.initial_energy, side="right")) - 1
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
    mean, stderr = mean_stderr(total, total_sq, blocks)
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
    capacity = model.levels[-1]
    if config.initial_energy > capacity:
        raise ValueError(
            f"initial_energy {config.initial_energy} exceeds the battery "
            f"capacity {capacity}"
        )
    rule = check_rule(model, rule)
    n_levels = model.levels.size
    n_channels = model.h_channel.count
    rewards = rule_rewards(model, rule).reshape(n_levels, n_channels).tolist()
    posts = model.post_of_target[rule].reshape(n_levels, n_channels).tolist()
    rng = np.random.default_rng(config.seed)
    blocks = config.blocks
    h_idx = sample_channel(model.h_channel, rng, blocks)
    level = int(np.searchsorted(model.levels, config.initial_energy, side="right")) - 1
    trace = np.zeros(blocks) if keep_trace else None
    total = total_sq = 0.0
    for m, i in enumerate(h_idx.tolist()):
        value = rewards[level][i]
        total += value
        total_sq += value * value
        if trace is not None:
            trace[m] = value
        level = posts[level][i]
    mean, stderr = mean_stderr(total, total_sq, blocks)
    return SimulationResult(
        mean=mean, stderr=stderr, blocks=blocks, seed=config.seed, trace=trace
    )
