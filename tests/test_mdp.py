import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swipt_relay import (
    BatteryGrid,
    MultichainSuspectedError,
    NonConvergenceError,
    PolicyIterationResult,
    SimulationConfig,
    SystemParams,
    build_mdp,
    can_succeed,
    channel_from_table,
    default_initial_rule,
    delivery_success_prob,
    energy_after_harvest,
    heuristic_average_success,
    max_ps_ratio,
    policy_evaluate,
    policy_improve,
    policy_iteration,
    quantize_equiprobable_exponential,
    round_up_level,
    simulate_discrete,
    success_prob,
    upper_bound,
)
import swipt_relay.mdp as mdp_module
from oracles import (
    action_columns,
    dense_evaluate,
    kth_action_rule,
    model_actions,
    oracle_gain_bruteforce,
    recurrent_class_count,
    reference_actions,
    state_transition_matrix,
)


class TestBatteryGrid:
    def test_levels_span_zero_to_capacity(self):
        grid = BatteryGrid(5, 8.0)
        assert grid.levels[0] == 0.0
        assert grid.levels[-1] == 8.0
        assert np.allclose(np.diff(grid.levels), grid.spacing)
        assert grid.spacing == 2.0

    def test_rejects_single_level(self):
        with pytest.raises(ValueError):
            BatteryGrid(1, 8.0)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            BatteryGrid(3, 0.0)


class TestRoundUpLevel:
    def test_empty_battery_bumps_to_second_level(self):
        grid = BatteryGrid(3, 2.0)
        assert round_up_level(0.0, grid) == 1  # energy 1.0

    def test_full_battery_stays(self):
        grid = BatteryGrid(3, 2.0)
        assert round_up_level(2.0, grid) == 2

    def test_interior_value_goes_up(self):
        grid = BatteryGrid(3, 2.0)
        assert round_up_level(1.5, grid) == 2  # energy 2.0

    def test_exact_grid_hit_goes_up_by_default(self):
        grid = BatteryGrid(3, 2.0)
        assert round_up_level(1.0, grid) == 2

    def test_exact_grid_hit_stays_without_exact_up(self):
        grid = BatteryGrid(3, 2.0)
        assert round_up_level(1.0, grid, exact_up=False) == 1
        assert round_up_level(0.0, grid, exact_up=False) == 0
        assert round_up_level(1.5, grid, exact_up=False) == 2

    def test_domain_errors(self):
        grid = BatteryGrid(3, 2.0)
        with pytest.raises(ValueError):
            round_up_level(-0.1, grid)
        with pytest.raises(ValueError):
            round_up_level(2.1, grid)

    @given(
        energy=st.floats(min_value=0.0, max_value=6.0, allow_subnormal=False),
        n_levels=st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_interval_containment(self, energy, n_levels):
        grid = BatteryGrid(n_levels, 6.0)
        level = round_up_level(energy, grid)
        assert grid.levels[level] >= energy
        if energy < grid.capacity:
            # the chosen level is the nearest one strictly above
            assert grid.levels[level] > energy
            assert grid.levels[level] - energy <= grid.spacing


class TestEnumerateActions:
    """The per-state actions build_mdp stores, decoded from its arrays."""

    def test_hopeless_state_only_full_harvest_zero_reward(self, default_params, channel2):
        hopeless_gain = 0.001
        h_channel = channel_from_table([hopeless_gain, 1.0], [0.5, 0.5])
        assert not can_succeed(0.0, hopeless_gain, channel2, default_params)
        model = build_mdp(h_channel, channel2, default_params, 3)
        actions = model_actions(model, 0)
        assert all(a.ps_ratio == 1.0 for a in actions)
        assert all(a.reward == 0.0 for a in actions)

    def test_saturated_harvest_reaches_every_level(self, default_params, channel2):
        # from a full battery both branches saturate at capacity
        h_channel = channel_from_table([1.0, 2.0], [0.5, 0.5])
        model = build_mdp(h_channel, channel2, default_params, 4)
        actions = model_actions(model, 3 * h_channel.count)
        per_branch = {}
        for a in actions:
            per_branch.setdefault(a.ps_ratio, []).append(a.target_level)
        assert len(per_branch) == 2
        for targets in per_branch.values():
            assert sorted(targets) == list(range(4))

    def test_partial_harvest_targets_and_energies(self):
        # full-harvest mid-block level of 1.2 uJ on a {0, 1, 2} grid
        params = SystemParams(4.8, 0.001, 1.0, 0.5, 1.5, 2.0)
        gain = 1.0
        assert energy_after_harvest(0.0, gain, 1.0, params) == pytest.approx(1.2)
        g_channel = channel_from_table([0.5, 1.5], [0.5, 0.5])
        h_channel = channel_from_table([gain], [1.0])
        model = build_mdp(h_channel, g_channel, params, 3)
        actions = model_actions(model, 0)
        # full harvest reaches levels 0 and 1 (columns 0 and 1), not 2
        assert np.isfinite(model.rewards[0, :3]).tolist() == [True, True, False]
        full_branch = [a for a in actions if a.ps_ratio == 1.0]
        assert [a.target_level for a in full_branch] == [0, 1]
        assert [a.transmit_energy for a in full_branch] == pytest.approx([1.2, 0.2])
        assert [a.post_level for a in full_branch] == [1, 2]

    def test_structure_invariants(self, default_params, channel2):
        model = build_mdp(channel2, channel2, default_params, 4)
        grid = model.grid
        for s in range(model.n_states):
            level, channel = divmod(s, channel2.count)
            level_energy = float(grid.levels[level])
            gain = float(channel2.gains[channel])
            actions = model_actions(model, s)
            assert actions, "action list must never be empty"
            # per branch, the reachable targets are levels 0, 1, ..., m
            exists = (model.rewards[s] > -np.inf).reshape(2, -1)
            assert np.all(exists[:, :-1] >= exists[:, 1:])
            cap = max_ps_ratio(gain, default_params)
            allowed = {1.0} if cap is None else {1.0, cap}
            seen = set()
            for a in actions:
                assert a.ps_ratio in allowed
                assert (a.ps_ratio, a.target_level) not in seen
                seen.add((a.ps_ratio, a.target_level))
                half = energy_after_harvest(
                    level_energy, gain, a.ps_ratio, default_params
                )
                assert a.transmit_energy == pytest.approx(
                    half - grid.levels[a.target_level]
                )
                assert a.transmit_energy >= 0.0
                assert a.post_level == round_up_level(
                    float(grid.levels[a.target_level]), grid
                )
                assert a.reward == success_prob(
                    level_energy,
                    gain,
                    a.ps_ratio,
                    a.transmit_energy,
                    channel2,
                    default_params,
                )
            if not can_succeed(level_energy, gain, channel2, default_params):
                assert all(a.reward == 0.0 for a in actions)

    @pytest.mark.parametrize(
        "power, noise, battery, n_states, n_levels, exact_up",
        [
            (0.5, 0.02, 0.5, 2, 3, True),
            (0.35, 0.02, 0.5, 2, 6, True),
            (0.5, 0.02, 0.5, 5, 7, False),
            (1.0, 0.001, 10.0, 25, 5, True),
            (1.0, 0.001, 2.0, 25, 9, False),
            (2.0, 0.001, 16.0, 40, 9, True),
            # the largest decodable ratio rounds to 1 in every state
            (1.0, 1e-20, 10.0, 7, 4, True),
        ],
    )
    def test_arrays_match_loop_enumeration(
        self, power, noise, battery, n_states, n_levels, exact_up
    ):
        params = SystemParams(power, noise, 1.0, 0.5, 1.5, battery)
        channel = quantize_equiprobable_exponential(n_states)
        model = build_mdp(channel, channel, params, n_levels, exact_up=exact_up)
        grid = model.grid
        for s in range(model.n_states):
            level, i = divmod(s, channel.count)
            expected = reference_actions(
                float(grid.levels[level]),
                float(channel.gains[i]),
                channel,
                params,
                grid,
                exact_up=exact_up,
            )
            assert model_actions(model, s) == expected


    def test_delivery_boundary_matches_scalar(self, default_params, channel200):
        threshold = default_params.delivery_threshold
        on_boundary = threshold / channel200.gains
        energies = np.concatenate(
            [
                [0.0, 1e-300, 1e300],
                on_boundary,
                np.nextafter(on_boundary, 0.0),
                np.nextafter(on_boundary, np.inf),
                np.random.default_rng(5).uniform(0.0, 0.1, 500),
            ]
        )
        probs = mdp_module._delivery_probs(energies, channel200, default_params)
        expected = [
            delivery_success_prob(float(u), channel200, default_params)
            for u in energies
        ]
        assert probs.tolist() == expected


class TestBuildMdp:
    def test_four_state_transition_matrix(self, default_params, channel2):
        model = build_mdp(channel2, channel2, default_params, 2)
        assert model.n_states == 4
        # on a two-level grid every target tops up to the full level, so
        # every row is the channel pmf in the upper block
        f1, f2 = channel2.pmf
        expected = np.array(
            [
                [0.0, 0.0, f1, f2],
                [0.0, 0.0, f1, f2],
                [0.0, 0.0, f1, f2],
                [0.0, 0.0, f1, f2],
            ]
        )
        rule = default_initial_rule(model)
        assert np.array_equal(state_transition_matrix(model, rule), expected)
        _, levels = mdp_module._level_chain(model, rule)
        assert np.array_equal(levels, [[0.0, 1.0], [0.0, 1.0]])

    def test_three_level_rows_follow_post_level(self, default_params, channel2):
        model = build_mdp(channel2, channel2, default_params, 3)
        f = channel2.pmf
        for k in range(model.rewards.shape[1]):
            rule = kth_action_rule(model, k)
            posts = model.post_levels(rule)
            matrix = state_transition_matrix(model, rule)
            for s, post in enumerate(posts):
                row = matrix[s]
                assert np.array_equal(row[post * 2 : post * 2 + 2], f)
                assert np.count_nonzero(row) == 2
                assert abs(row.sum() - 1.0) <= 1e-12
            # level chain: row j is the pmf-weighted mix of its states' rows
            _, levels = mdp_module._level_chain(model, rule)
            to_levels = matrix.reshape(3, 2, 3, 2).sum(axis=3)
            lumped = np.einsum("i,jil->jl", f, to_levels)
            assert np.max(np.abs(levels - lumped)) <= 1e-15

    def test_rows_sum_to_one(self, default_params, channel200):
        model = build_mdp(channel200, channel200, default_params, 3)
        rule = default_initial_rule(model)
        matrix = state_transition_matrix(model, rule)
        assert np.max(np.abs(matrix.sum(axis=1) - 1.0)) <= 1e-12
        assert np.all((matrix != 0).sum(axis=1) == channel200.count)
        _, levels = mdp_module._level_chain(model, rule)
        assert np.max(np.abs(levels.sum(axis=1) - 1.0)) <= 1e-12

    def test_flat_index_convention(self, default_params, channel2):
        # state (level j, channel i) sits at flat index j * C + i; only the
        # second channel state can decode
        h_channel = channel_from_table([0.001, 1.0], [0.5, 0.5])
        model = build_mdp(h_channel, channel2, default_params, 3)
        levels = model.grid.levels
        assert model.n_states == 6
        for s in range(model.n_states):
            level, channel = divmod(s, h_channel.count)
            energy = float(levels[level])
            gain = float(h_channel.gains[channel])
            half = energy_after_harvest(energy, gain, 1.0, default_params)
            n_full = np.count_nonzero(model.rewards[s, :3] > -np.inf)
            assert n_full == np.searchsorted(levels, half, side="right")
            has_split = bool(np.any(model.rewards[s, 3:] > -np.inf))
            assert has_split == can_succeed(energy, gain, channel2, default_params)
            assert has_split == (channel == 1)

    def test_rejects_single_level(self, default_params, channel2):
        with pytest.raises(ValueError):
            build_mdp(channel2, channel2, default_params, 1)

    def test_overflowing_received_power_matches_scalar_path(self, channel2):
        # 1.5e308 times the largest gain (1.69) overflows; the vectorised
        # physics once turned that into a NaN ratio and dropped the
        # decodable branch
        params = SystemParams(1.5e308, 0.001, 1.0, 0.5, 1.5, 10.0)
        with pytest.raises(ValueError) as scalar:
            max_ps_ratio(channel2.max_gain, params)
        with pytest.raises(ValueError) as vectorised:
            build_mdp(channel2, channel2, params, 3)
        assert str(vectorised.value) == str(scalar.value)
        assert "received power" in str(scalar.value)


class TestMdpModel:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r[:, :3], "shape"),
            (lambda r: np.where(r == 0.5, np.nan, r), "finite or -inf"),
            (lambda r: np.where(r == 0.5, np.inf, r), "finite or -inf"),
            (lambda r: np.where(r == 0.5, -np.inf, r), "at least one action"),
        ],
        ids=["shape", "nan", "inf", "no_action"],
    )
    def test_rejects_malformed_rewards(self, hand_model, edit, message):
        layout = [[(0.5, 1)], [(0.2, 0), (0.3, 1)], [(0.1, 0)], [(0.4, 1)]]
        model = hand_model([0.5, 0.5], 2, layout)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(model, rewards=edit(model.rewards))


class TestPolicyEvaluate:
    def test_constant_reward_chain(self, hand_model):
        layout = [[(0.37, 1)], [(0.37, 1)], [(0.37, 0)], [(0.37, 1)]]
        model = hand_model([0.3, 0.7], 2, layout)
        gain, values = policy_evaluate(model, np.array([1, 1, 0, 1]))
        assert gain == pytest.approx(0.37, abs=1e-12)
        assert np.max(np.abs(values)) <= 1e-12

    def test_iid_chain_closed_form(self, hand_model):
        # every action tops up to level 1: states are i.i.d. with the
        # channel pmf on that block, so the gain is the pmf-weighted reward
        pmf = [0.25, 0.75]
        rewards = [0.1, 0.2, 0.55, 0.8]
        layout = [[(r, 1)] for r in rewards]
        model = hand_model(pmf, 2, layout)
        gain, _ = policy_evaluate(model, np.ones(4, dtype=int))
        expected = pmf[0] * rewards[2] + pmf[1] * rewards[3]
        assert gain == pytest.approx(expected, abs=1e-12)

    def test_gain_matches_simulated_chain(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        result = policy_iteration(model)
        sim = simulate_discrete(
            model, result.rule, SimulationConfig(blocks=100_000, seed=99)
        )
        assert abs(sim.mean - result.gain) <= 3.0 * sim.stderr

    def test_residual_is_small(self, default_params, channel200):
        model = build_mdp(channel200, channel200, default_params, 5)
        rule = default_initial_rule(model)
        gain, values = policy_evaluate(model, rule)
        assert values.shape == (5,)
        assert values[0] == 0.0
        # level equations gain + W = mean reward + expected successor W,
        # with both averages taken over the channel pmf directly
        pmf = channel200.pmf
        rewards = model.reward_vector(rule).reshape(5, -1) @ pmf
        successor = values[model.post_levels(rule)].reshape(5, -1) @ pmf
        residual = np.max(np.abs(rewards + successor - gain - values))
        assert residual <= 1e-9

    def test_multichain_rule_is_detected(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        with pytest.raises(MultichainSuspectedError):
            policy_evaluate(model, _two_loop_rule(model))

    @pytest.mark.parametrize(
        "n_states, power, battery, n_levels, exact_up",
        [
            (2, 0.5, 0.5, 3, True),
            (2, 0.35, 0.5, 6, True),
            (5, 0.5, 0.5, 7, False),
            (25, None, 10.0, 5, True),
            (25, None, 2.0, 9, False),
            (200, None, 10.0, 5, True),
        ],
    )
    def test_level_solver_agrees_with_dense_oracle(
        self, n_states, power, battery, n_levels, exact_up
    ):
        if power is None:
            params = SystemParams(1.0, 0.001, 1.0, 0.5, 1.5, battery)
        else:
            params = SystemParams(power, 0.02, 1.0, 0.5, 1.5, battery)
        channel = quantize_equiprobable_exponential(n_states)
        model = build_mdp(channel, channel, params, n_levels, exact_up=exact_up)
        rng = np.random.default_rng(n_states * 100 + n_levels)
        rules = [default_initial_rule(model), policy_iteration(model).rule]
        columns = action_columns(model)
        for _ in range(12):
            picks = rng.integers([cols.size for cols in columns])
            rules.append(np.array([cols[k] for cols, k in zip(columns, picks)]))
        if n_states == 2 and n_levels == 3 and exact_up:
            rules.append(_two_loop_rule(model))
        for rule in rules:
            classes = recurrent_class_count(model, rule)
            assert mdp_module._recurrent_class_count(model, rule) == classes
            if classes == 1:
                gain, values = policy_evaluate(model, rule)
                oracle_gain, oracle_bias = dense_evaluate(model, rule)
                level_bias = oracle_bias.reshape(n_levels, -1) @ channel.pmf
                level_bias -= level_bias[0]
                assert abs(gain - oracle_gain) <= 1e-12
                assert np.max(np.abs(values - level_bias)) <= 1e-10
            else:
                with pytest.raises(MultichainSuspectedError):
                    policy_evaluate(model, rule)
                with pytest.raises(MultichainSuspectedError):
                    dense_evaluate(model, rule)


def _two_loop_rule(model):
    """Full-harvest rule of the three-level tiny model whose chain has a
    level-1 loop and a level-2 loop: levels 0 and 1 target level 0, level
    2 targets level 1 (a full-harvest column is its target level)."""
    level = np.arange(model.n_states) // model.h_channel.count
    return np.where(level <= 1, 0, 1)


class TestPolicyImprove:
    def test_zero_bias_is_myopic(self, hand_model):
        layout = [
            [(0.2, 0), (0.9, 1)],
            [(0.5, 1), (0.1, 0)],
            [(0.0, 0), (0.3, 1)],
            [(0.7, 1)],
        ]
        model = hand_model([0.5, 0.5], 2, layout)
        rule = policy_improve(model, np.zeros(2))
        assert rule.tolist() == [1, 1, 1, 1]  # the best action's post level

    def test_tie_prefers_smallest_index(self, hand_model):
        layout = [[(0.4, 1), (0.4, 1)]] * 4
        model = hand_model([0.5, 0.5], 2, layout)
        rule = policy_improve(model, np.zeros(2))
        assert rule.tolist() == [1, 1, 1, 1]  # column 1, not column 3

    def test_tie_keeps_incumbent(self, hand_model):
        layout = [[(0.4, 1), (0.4, 1)]] * 4
        model = hand_model([0.5, 0.5], 2, layout)
        incumbent = np.array([3, 1, 3, 1])
        rule = policy_improve(model, np.zeros(2), incumbent=incumbent)
        assert rule.tolist() == incumbent.tolist()

    def test_optimal_rule_is_fixed_point(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        result = policy_iteration(model)
        assert result.bias.shape == (3,)
        again = policy_improve(model, result.bias, incumbent=result.rule)
        assert np.array_equal(again, result.rule)

    def test_rejects_per_state_values(self, hand_model):
        layout = [[(0.4, 1), (0.2, 0)]] * 4
        model = hand_model([0.5, 0.5], 2, layout)
        with pytest.raises(ValueError, match="one value per battery level"):
            policy_improve(model, np.zeros(4))


# Every public entry point that takes a rule, called with one.
_RULE_USERS = {
    "policy_evaluate": lambda model, rule: policy_evaluate(model, rule),
    "policy_improve": lambda model, rule: policy_improve(
        model, np.zeros(model.grid.n_levels), incumbent=rule
    ),
    "simulate_discrete": lambda model, rule: simulate_discrete(
        model, rule, SimulationConfig(blocks=10, seed=1)
    ),
}


class TestRuleValidation:
    @pytest.mark.parametrize("caller", sorted(_RULE_USERS))
    @pytest.mark.parametrize("kind", ["out_of_range", "missing_action"])
    def test_rejects_a_column_that_is_not_an_action(
        self, channel2, hard_tiny_params, caller, kind
    ):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        rule = default_initial_rule(model)
        missing = np.argwhere(np.isneginf(model.rewards))
        state, column = (int(v) for v in missing[-1])
        if kind == "out_of_range":
            column = model.rewards.shape[1]
        rule[state] = column
        with pytest.raises(ValueError, match=f"state {state}: column {column} "):
            _RULE_USERS[caller](model, rule)


class TestPolicyIteration:
    def test_all_zero_rewards_terminate_quickly(self, channel2):
        deaf = SystemParams(1.0, 10.0, 1.0, 0.5, 1.5, 10.0)
        model = build_mdp(channel2, channel2, deaf, 3)
        result = policy_iteration(model)
        assert result.gain == 0.0
        assert result.iterations <= 2

    def test_matches_bruteforce_on_default_tiny_model(self, channel2, default_params):
        model = build_mdp(channel2, channel2, default_params, 3)
        result = policy_iteration(model)
        oracle = oracle_gain_bruteforce(model)
        assert abs(result.gain - oracle) <= 1e-9

    def test_matches_bruteforce_on_lookahead_model(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        result = policy_iteration(model)
        assert result.iterations >= 2  # the myopic start is not optimal
        oracle = oracle_gain_bruteforce(model)
        assert abs(result.gain - oracle) <= 1e-9
        assert 0.0 < result.gain < 1.0

    def test_gain_history_non_decreasing(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        result = policy_iteration(model)
        history = np.array(result.gain_history)
        assert np.all(np.diff(history) >= -1e-12)
        assert 0.0 <= result.gain <= 1.0
        n_rules = int(np.prod([cols.size for cols in action_columns(model)]))
        assert result.iterations <= n_rules

    def test_iteration_cap_raises(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        with pytest.raises(NonConvergenceError):
            policy_iteration(model, max_iterations=1)

    def test_default_initial_rule_drains(self, channel2, default_params):
        model = build_mdp(channel2, channel2, default_params, 3)
        rule = default_initial_rule(model)
        for s, column in enumerate(rule):
            position = action_columns(model)[s].tolist().index(column)
            action = model_actions(model, s)[position]
            assert action.target_level == 0
            level, channel = divmod(s, channel2.count)
            energy = float(model.grid.levels[level])
            gain = float(channel2.gains[channel])
            if can_succeed(energy, gain, channel2, default_params):
                assert action.ps_ratio < 1.0
            else:
                assert action.ps_ratio == 1.0

    def test_near_tie_cannot_cycle(self):
        # Two rules whose evaluations differ only by rounding kept
        # swapping actions here; the improvement tolerance stops that.
        # Relative value iteration on the full chain puts the optimal gain
        # in [0.34999999999997, 0.35000000000006].
        params = SystemParams(0.35, 0.02, 1.0, 0.5, 1.5, 0.5)
        channel = quantize_equiprobable_exponential(2)
        model = build_mdp(channel, channel, params, 6)
        result = policy_iteration(model, max_iterations=100)
        assert result.gain == pytest.approx(0.35, abs=1e-12)
        assert upper_bound(model, result) == result.gain


class TestUpperBound:
    def test_all_fail_bound_is_zero(self, channel2):
        deaf = SystemParams(1.0, 10.0, 1.0, 0.5, 1.5, 10.0)
        model = build_mdp(channel2, channel2, deaf, 3)
        result = policy_iteration(model)
        assert upper_bound(model, result) == 0.0

    def test_bound_dominates_heuristic(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        result = policy_iteration(model)
        bound = upper_bound(model, result)
        heuristic = heuristic_average_success(channel2, channel2, hard_tiny_params)
        assert heuristic - 1e-9 <= bound <= 1.0

    def test_bound_equals_oracle_on_tiny_model(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        result = policy_iteration(model)
        bound = upper_bound(model, result)
        assert abs(bound - oracle_gain_bruteforce(model)) <= 1e-9

    def test_simulate_check_passes_on_unichain(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        result = policy_iteration(model)
        bound = upper_bound(model, result, check="simulate", check_blocks=4000)
        assert bound == pytest.approx(result.gain)

    def test_structural_check_rejects_multichain(self, hand_model):
        # two absorbing level loops: recurrent classes {level 0} and {level 1}
        layout = [[(0.1, 0)], [(0.1, 0)], [(0.9, 1)], [(0.9, 1)]]
        model = hand_model([0.5, 0.5], 2, layout)
        rule = np.array([0, 0, 1, 1])
        fake = PolicyIterationResult(
            gain=0.5, bias=np.zeros(2), rule=rule, iterations=1, gain_history=(0.5,)
        )
        with pytest.raises(MultichainSuspectedError):
            upper_bound(model, fake)

    def test_unknown_check_mode_rejected(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        result = policy_iteration(model)
        with pytest.raises(ValueError):
            upper_bound(model, result, check="vibes")

    def test_mismatched_channel_rejected(self, channel2, hard_tiny_params):
        # a result solved over another source-relay alphabet does not fit
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        other = quantize_equiprobable_exponential(3)
        other_model = build_mdp(other, channel2, hard_tiny_params, 3)
        with pytest.raises(ValueError):
            upper_bound(model, policy_iteration(other_model))

    def test_nested_grids_tighten_the_bound(self, channel2, hard_tiny_params):
        coarse = build_mdp(channel2, channel2, hard_tiny_params, 3)
        fine = build_mdp(channel2, channel2, hard_tiny_params, 5)
        bound_coarse = upper_bound(coarse, policy_iteration(coarse))
        bound_fine = upper_bound(fine, policy_iteration(fine))
        assert bound_fine <= bound_coarse + 1e-9

    def test_large_nested_grids_tighten_the_bound(self, default_params, channel200):
        bounds = []
        for n_levels in (5, 9, 17, 33, 129):
            model = build_mdp(channel200, channel200, default_params, n_levels)
            bounds.append(upper_bound(model, policy_iteration(model)))
        assert np.all(np.diff(bounds) <= 1e-12)
        assert bounds == pytest.approx(
            [
                0.9816749884054488,
                0.980274999406979,
                0.9768500000000004,
                0.9728992138156171,
                0.9643998395002594,
            ],
            abs=1e-12,
        )

    def test_fine_channel_alphabet_solves(self, default_params):
        channel = quantize_equiprobable_exponential(5000)
        model = build_mdp(channel, channel, default_params, 9)
        bound = upper_bound(model, policy_iteration(model))
        heuristic = heuristic_average_success(channel, channel, default_params)
        assert heuristic - 1e-9 <= bound <= 1.0

    def test_bound_dominates_arbitrary_original_policy(
        self, channel2, hard_tiny_params
    ):
        # the bound must dominate any stationary policy simulated on the
        # original continuous-energy system, not just the draining rule
        from swipt_relay import SimulationConfig, simulate_original

        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        bound = upper_bound(model, policy_iteration(model))

        def half_drain(energy, gain):
            cap = max_ps_ratio(gain, hard_tiny_params)
            ratio = 0.5 if cap is None else cap
            half = energy_after_harvest(energy, gain, ratio, hard_tiny_params)
            return ratio, 0.5 * half

        sim = simulate_original(
            half_drain,
            channel2,
            channel2,
            hard_tiny_params,
            SimulationConfig(blocks=50_000, seed=606),
        )
        assert bound >= sim.mean - 3.0 * sim.stderr


class TestBruteForceOracle:
    def test_budget_guard(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        with pytest.raises(ValueError, match="budget"):
            oracle_gain_bruteforce(model, max_rules=3)

    def test_single_action_model_matches_evaluation(self, hand_model):
        layout = [[(0.2, 1)], [(0.8, 1)], [(0.3, 1)], [(0.6, 0)]]
        model = hand_model([0.4, 0.6], 2, layout)
        rule = np.array([1, 1, 1, 0])
        gain, _ = policy_evaluate(model, rule)
        assert oracle_gain_bruteforce(model) == pytest.approx(gain, abs=1e-9)

    def test_single_recurrent_state_takes_max_reward(self, hand_model):
        # level 1 with one channel state can stay put on either branch;
        # its best staying action wins over both the other one and leaving
        layout = [[(0.0, 1)], [(0.25, 1), (0.7, 1), (0.4, 0)]]
        model = hand_model([1.0], 2, layout)
        assert oracle_gain_bruteforce(model) == pytest.approx(0.7, abs=1e-12)

    def test_handles_periodic_rules(self, hand_model):
        # deterministic two-level cycle: lazy squaring must still converge
        layout = [[(1.0, 1)], [(0.0, 0)]]
        model = hand_model([1.0], 2, layout)
        assert oracle_gain_bruteforce(model) == pytest.approx(0.5, abs=1e-9)

    def test_exact_up_false_variant_solves(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3, exact_up=False)
        result = policy_iteration(model)
        oracle = oracle_gain_bruteforce(model)
        assert abs(result.gain - oracle) <= 1e-9
