"""Finite-state upper bound on the achievable average success probability.

The continuous battery is replaced by a uniform level grid: after every
block a hypothetical energy source tops the residual energy up to the next
grid level, which can only help any policy. On the modified system the
splitting ratio can be restricted to full harvesting or the largest
decodable ratio, and the transmit energy to the values that land the
residual exactly on a grid level, without lowering the optimum. The
resulting finite average-reward decision problem is solved by policy
iteration; its gain, certified by one Bellman update, is the bound.

The source-relay channel is redrawn independently every block, so a
transition depends on the action only through the post-top-up battery
level. Evaluation therefore solves the chain of the L battery levels, not
all L x C (level, channel) states, and improvement and the certificate
need one value per level (Puterman, Markov Decision Processes, 1994, ch. 8).
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .channel import FiniteChannel
from .relay import SystemParams, _first_delivering, _split_table

__all__ = [
    "MdpModel",
    "MultichainSuspectedError",
    "NonConvergenceError",
    "PolicyIterationResult",
    "build_mdp",
    "default_initial_rule",
    "policy_iteration",
    "upper_bound",
]

_RESIDUAL_TOL = 1e-9
# Improvement leaves the incumbent action only for a candidate better by
# more than this, so floating-point near-ties cannot make the rule cycle.
# The converged gain then falls short of the optimum by at most this much.
_IMPROVE_TOL = 1e-13
# upper_bound accepts a gain only when one Bellman update of the level
# values stays within this of it at every level.
_CERTIFICATE_TOL = 1e-12
# Reward entries per block in which the model is built and improved.
_BLOCK_ENTRIES = 1 << 15


class MultichainSuspectedError(RuntimeError):
    """The evaluated chain does not look unichain (singular or inaccurate
    evaluation system), policy iteration returned to an earlier rule, or a
    reported gain fails upper_bound's Bellman update certificate."""


class NonConvergenceError(RuntimeError):
    """Policy iteration hit its iteration cap without the rule settling."""


@dataclass(frozen=True, eq=False)
class MdpModel:
    """Discrete decision problem: one reward column per target level.

    The states are the L battery levels crossed with the source-relay
    channel alphabet h_channel; state (level j, channel i) sits at flat
    index j * h_channel.count + i. rewards[s, k], of shape (n_states, L),
    is the delivery probability of spending from state s's decoding level
    down to level k: 0.0 where only full harvesting reaches k, and -inf
    where nothing does. levels holds the L battery energies, ascending. A
    writeable rewards or levels array is copied; a read-only one is kept
    uncopied, so its owner must not change it. A rule is one target level
    per state. Every action spends exactly down to its target level k, so
    the top-up leaves the battery at post_of_target[k] = min(k + 1, L - 1),
    or at k without exact_up: the next state is that level with a fresh
    channel draw.
    """

    levels: np.ndarray
    h_channel: FiniteChannel
    g_channel: FiniteChannel
    params: SystemParams
    rewards: np.ndarray
    exact_up: bool = True
    post_of_target: np.ndarray = field(init=False)
    # Per state: flat offsets of its reward row and level-chain row, and its pmf.
    _row_starts: np.ndarray = field(init=False, repr=False)
    _edge_starts: np.ndarray = field(init=False, repr=False)
    _state_pmf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rewards, levels = (
            value.copy() if value.flags.writeable else value
            for value in (
                np.asarray(self.rewards, dtype=float),
                np.asarray(self.levels, dtype=float),
            )
        )
        if levels.ndim != 1:
            raise ValueError(f"levels must be 1-D, got shape {levels.shape}")
        n_levels, count = levels.size, self.h_channel.count
        shape = (n_levels * count, n_levels)
        if rewards.shape != shape:
            raise ValueError(f"rewards must have shape {shape}, got {rewards.shape}")
        best = rewards.max(axis=1)  # NaN where a row holds one
        if not np.all(best < np.inf):  # NaN compares false as well
            raise ValueError("rewards must be finite or -inf")
        if not np.all(best > -np.inf):
            raise ValueError("every state needs at least one action")
        posts = np.minimum(np.arange(n_levels) + bool(self.exact_up), n_levels - 1)
        for name, value in (
            ("rewards", rewards),
            ("levels", levels),
            ("post_of_target", posts),
            ("_row_starts", np.arange(n_levels * count) * n_levels),
            ("_edge_starts", np.repeat(np.arange(n_levels) * n_levels, count)),
            ("_state_pmf", np.tile(self.h_channel.pmf, n_levels)),
        ):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_states(self) -> int:
        return self.levels.size * self.h_channel.count


def build_mdp(
    h_channel: FiniteChannel,
    g_channel: FiniteChannel,
    params: SystemParams,
    n_levels: int,
    exact_up: bool = True,
) -> MdpModel:
    """Assemble the discrete model over (battery level, channel state)
    pairs, a block of states at a time into one preallocated array.

    An action harvests everything (ratio 1) or splits at the largest
    decodable ratio, spending what lands the residual exactly on a grid
    target. Full harvesting decodes only where that ratio rounds to 1, and
    success never falls as the spend grows, so target k's reward is the
    delivery probability of spending from the decoding level (the split's
    mid-block level) down to k: 0.0 where only full harvesting reaches k,
    and -inf where nothing does. Rewards use the true transmit energy, the
    arithmetic of relay.apply_action and the delivery mass
    pmf[gains * u >= delivery_threshold].sum(). After the block the residual,
    inside [level i, level i+1), is topped up to level i+1; with exact_up
    (the literal reading, and the default) one exactly on a grid level is
    also driven one level higher, except at full capacity, which stays put.
    Every action lands exactly on its target k, so its post-top-up level is
    min(k + 1, L - 1). exact_up=False keeps exact grid hits in place, at k,
    for sensitivity checks.
    """
    _check_n_levels(n_levels)
    levels = np.linspace(0.0, params.battery_capacity, n_levels)
    levels.flags.writeable = False
    full, decoding = _split_table(levels, h_channel, params)
    full, decoding = full.reshape(-1, 1), decoding.reshape(-1, 1)
    tail = g_channel.tail
    rewards = np.empty((len(full), n_levels))  # [state, target]
    for rows in _row_blocks(len(full), n_levels):
        spend = decoding[rows] - levels  # -inf where the relay cannot decode
        paid = tail[_first_delivering(spend, g_channel, params)]  # 0.0 if spend < 0
        rewards[rows] = np.where(full[rows] >= levels, paid, -np.inf)
    rewards.flags.writeable = False
    return MdpModel(
        levels=levels,
        h_channel=h_channel,
        g_channel=g_channel,
        params=params,
        rewards=rewards,
        exact_up=exact_up,
    )


def _check_n_levels(n_levels: int) -> None:
    """Reject a battery level count that is not an integer of at least 2."""
    if not isinstance(n_levels, numbers.Integral):
        raise ValueError(f"n_levels must be an integer, got {n_levels!r}")
    if n_levels < 2:
        raise ValueError(f"n_levels must be at least 2, got {n_levels}")


def _row_blocks(n_rows: int, row_size: int) -> list[slice]:
    """Consecutive row slices of about _BLOCK_ENTRIES entries each."""
    step = max(1, _BLOCK_ENTRIES // row_size)
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def _level_chain(model: MdpModel, rule: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Channel-pmf averaged reward of each battery level under a valid
    rule, and the rule's level-to-level transition matrix."""
    n_levels = model.levels.size
    rewards = model.rewards.take(model._row_starts + rule)
    mean_reward = rewards.reshape(n_levels, -1) @ model.h_channel.pmf
    edges = model._edge_starts + model.post_of_target[rule]
    transitions = np.bincount(edges, model._state_pmf, minlength=n_levels * n_levels)
    return mean_reward, transitions.reshape(n_levels, n_levels)


def _evaluate(model: MdpModel, rule: np.ndarray) -> tuple[float, np.ndarray]:
    """Gain and level values of a valid stationary rule.

    Solves the unichain average-reward evaluation equations of the
    battery-level chain,

        gain + W = mean_reward + level_transitions @ W,    W[0] = 0,

    where W[j] is the channel-pmf average of the bias over the states of
    level j, relative to level 0; up to a constant, the bias of state
    (j, i) is reward - gain + W[post]. A level system that LAPACK finds
    singular, the signature of a chain with more than one recurrent class,
    raises MultichainSuspectedError, as does a residual of the level
    equations above 1e-9.
    """
    mean_reward, transitions = _level_chain(model, rule)
    matrix = np.eye(len(mean_reward)) - transitions
    # W[0] = 0 frees the first column for the gain unknown.
    matrix[:, 0] = 1.0
    try:
        values = np.linalg.solve(matrix, mean_reward)
    except np.linalg.LinAlgError as error:
        raise MultichainSuspectedError(
            "evaluation system is singular; the rule's chain is probably not unichain"
        ) from error
    gain = float(values[0])
    values[0] = 0.0
    residual = float(
        np.max(np.abs(mean_reward + transitions @ values - gain - values))
    )
    if not residual <= _RESIDUAL_TOL:  # NaN fails too
        raise MultichainSuspectedError(
            f"evaluation equations solved to residual {residual:.3e} "
            f"(tolerance {_RESIDUAL_TOL}); the linear system is unreliable"
        )
    return gain, values


def _improve(
    model: MdpModel, values: np.ndarray, incumbent: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """One improvement sweep over every state's target levels.

    Per state, picks the target maximizing its reward column plus the
    level value W of its post-top-up level (the gain would shift every
    candidate equally, so it is not needed), and returns that rule with
    each state's largest candidate. A valid incumbent target is kept
    unless the best candidate beats it by more than a fixed tolerance of
    1e-13, the anti-cycling rule; without an incumbent, ties go to the
    lowest target.
    """
    bonus = values[model.post_of_target]
    rule = np.empty(model.n_states, dtype=np.intp)
    top = np.empty(model.n_states)
    for rows in _row_blocks(model.n_states, bonus.size):
        candidates = model.rewards[rows] + bonus
        best = np.argmax(candidates, axis=1)  # first maximum = lowest target
        at = model._row_starts[: best.size]
        top[rows] = candidates.take(at + best)
        if incumbent is not None:
            kept = incumbent[rows]
            held = candidates.take(at + kept)
            best = np.where(top[rows] > held + _IMPROVE_TOL, best, kept)
        rule[rows] = best
    return rule, top


def default_initial_rule(model: MdpModel) -> np.ndarray:
    """Drain-to-empty starting rule: target level 0 in every state."""
    return np.zeros(model.n_states, dtype=np.intp)


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
    model: MdpModel, max_iterations: int = 10_000
) -> PolicyIterationResult:
    """Average-reward policy iteration from default_initial_rule:
    alternate evaluation and improvement until improvement keeps the rule.
    An improved rule equal to an earlier one, a cycle that exact arithmetic
    on a unichain model rules out, raises MultichainSuspectedError.

    Only the start rule's column 0 is checked. Every later rule is valid by
    construction: each entry is either an argmax over a row that holds a
    finite candidate, or the kept incumbent.
    """
    if not isinstance(max_iterations, numbers.Integral) or max_iterations < 1:
        raise ValueError(f"max_iterations must be an integer >= 1: {max_iterations!r}")
    missing = np.flatnonzero(np.isneginf(model.rewards[:, 0]))
    if missing.size:
        raise ValueError(f"state {missing[0]}: column 0 is not an action")
    rule = default_initial_rule(model)
    gains: list[float] = []
    seen: dict[int, int] = {}  # rule hash -> iteration; a collision only fails a cell
    for iteration in range(1, max_iterations + 1):
        key = hash(rule.tobytes())
        if key in seen:
            raise MultichainSuspectedError(
                f"the rule of iteration {iteration} repeats iteration "
                f"{seen[key]}'s; the chain is probably not unichain"
            )
        seen[key] = iteration
        gain, values = _evaluate(model, rule)
        gains.append(gain)
        improved, _ = _improve(model, values, rule)
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


def upper_bound(model: MdpModel, result: PolicyIterationResult) -> float:
    """Bound on the original system's best average success probability:
    the optimal gain of the modified system, certified before returning.

    One Bellman update of the level values W bounds the optimal gain g*
    from both sides, min_j (TW - W)[j] <= g* <= max_j (TW - W)[j], for any
    W and without a unichain premise (Odoni 1969; Puterman 1994, sec. 8.5).
    TW[j] is the channel-pmf average over level j's states of their largest
    candidate reward + W[post], read off one improvement sweep. The gain is
    returned only when that whole span lies within 1e-12 of it; otherwise
    MultichainSuspectedError is raised. It is a probability, so a gain that
    rounds above 1 returns 1. The bound holds for any W, so result.rule is
    not read: a result passes or fails on its gain and bias alone.
    """
    n_levels = model.levels.size
    values = np.asarray(result.bias, dtype=float)
    if values.shape != (n_levels,):
        raise ValueError(
            f"need one value per battery level ({n_levels}), got shape {values.shape}"
        )
    _, top = _improve(model, values)
    update = top.reshape(n_levels, -1) @ model.h_channel.pmf - values
    low, high = float(np.min(update)), float(np.max(update))
    if not high - _CERTIFICATE_TOL <= result.gain <= low + _CERTIFICATE_TOL:
        raise MultichainSuspectedError(
            f"Bellman update span [{low!r}, {high!r}] does not pin the gain "
            f"{result.gain!r} to within {_CERTIFICATE_TOL}"
        )
    return min(float(result.gain), 1.0)
