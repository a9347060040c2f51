"""Test-only references for the array-built model and the level-chain solver.

The package builds every state's actions in one vectorised pass and solves
policy evaluation and the recurrent-class check on the L-state battery-level
chain. These references do the same work the direct way: the per-state
action loop through the scalar relay functions, and the dense evaluation and
strongly-connected-component count on the full L*C-state
(battery level, channel) chain.
"""

import warnings
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from swipt_relay import (
    MultichainSuspectedError,
    can_succeed,
    energy_after_harvest,
    max_ps_ratio,
    round_up_level,
    success_prob,
)


class ReducedAction(NamedTuple):
    """One reduced action: the splitting branch, the transmit energy the
    relay really radiates, the grid level the residual lands on exactly,
    the level after the end-of-block top-up and the success probability."""

    ps_ratio: float
    transmit_energy: float
    target_level: int
    post_level: int
    reward: float


def reference_actions(energy, gain, g_channel, params, grid, exact_up=True):
    """Reduced action list of one state, enumerated by a loop over the
    splitting branches and grid targets with the scalar relay functions."""
    branches = [1.0]
    if can_succeed(energy, gain, g_channel, params):
        branches.append(max_ps_ratio(gain, params))
    actions = []
    seen = set()
    for ratio in branches:
        half = energy_after_harvest(energy, gain, ratio, params)
        last_target = int(np.searchsorted(grid.levels, half, side="right")) - 1
        for target in range(last_target + 1):
            if (ratio, target) in seen:
                continue
            seen.add((ratio, target))
            spend = float(half - grid.levels[target])
            post = round_up_level(float(grid.levels[target]), grid, exact_up)
            reward = success_prob(energy, gain, ratio, spend, g_channel, params)
            actions.append(ReducedAction(ratio, spend, target, post, reward))
    return actions


def model_actions(model, state):
    """The actions the model stores for one flat state, decoded from its
    arrays: the first n_full harvest everything, the rest split at the
    largest decodable ratio, each branch targeting levels 0, 1, ..."""
    grid = model.space.grid
    level, channel = model.space.level_channel(state)
    energy = float(grid.levels[level])
    gain = float(model.space.channel.gains[channel])
    n_full = int(model.n_full[state])
    actions = []
    for k in range(int(model.n_actions[state])):
        if k < n_full:
            ratio, target = 1.0, k
        else:
            ratio, target = max_ps_ratio(gain, model.params), k - n_full
        half = energy_after_harvest(energy, gain, ratio, model.params)
        actions.append(
            ReducedAction(
                ratio,
                float(half - grid.levels[target]),
                target,
                int(model.posts[state, k]),
                float(model.rewards[state, k]),
            )
        )
    return actions


def state_transition_matrix(model, rule):
    """Dense L*C transition matrix of a rule: row s carries the channel pmf
    in the block of columns of its post-top-up level."""
    n_channels = model.space.channel.count
    matrix = np.zeros((model.n_states, model.n_states))
    for s, post in enumerate(model.post_levels(rule)):
        matrix[s, post * n_channels : (post + 1) * n_channels] = model.h_pmf
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
    solution = scipy.linalg.lu_solve((lu, piv), model.reward_vector(rule))
    bias = solution.copy()
    bias[0] = 0.0
    return float(solution[0]), bias


def recurrent_class_count(model, rule):
    """Recurrent classes of the rule's L*C chain: the sink components of
    its strongly-connected-component condensation."""
    n = model.n_states
    n_channels = model.space.channel.count
    posts = model.post_levels(rule)
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
