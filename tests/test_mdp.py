import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swipt_relay import (
    FiniteChannel,
    MdpModel,
    MultichainSuspectedError,
    NonConvergenceError,
    PolicyIterationResult,
    SimulationConfig,
    SystemParams,
    build_mdp,
    energy_after_harvest,
    heuristic_average_success,
    max_ps_ratio,
    policy_iteration,
    quantize_equiprobable_exponential,
    upper_bound,
)
import swipt_relay.mdp as mdp_module
import swipt_relay.relay as relay_module
from oracles import (
    action_columns,
    can_succeed,
    delivery_success_prob,
    dense_evaluate,
    fold_actions,
    fold_branches,
    kth_action_rule,
    model_actions,
    oracle_build_mdp,
    oracle_first_delivering,
    oracle_gain_bruteforce,
    oracle_improve,
    recurrent_class_count,
    reference_actions,
    round_up_level,
    simulate_discrete,
    state_transition_matrix,
    success_prob,
    two_branch_rewards,
)

# (source power, noise power, battery, channel states, levels, exact_up)
_ENUMERATION_CELLS = [
    (0.5, 0.02, 0.5, 2, 3, True),
    (0.35, 0.02, 0.5, 2, 6, True),
    (0.5, 0.02, 0.5, 5, 7, False),
    (1.0, 0.001, 10.0, 25, 5, True),
    (1.0, 0.001, 2.0, 25, 9, False),
    (2.0, 0.001, 16.0, 40, 9, True),
    # the largest decodable ratio rounds to 1 in every state
    (1.0, 1e-20, 10.0, 7, 4, True),
    # it rounds to 1 in the strongest channel state only: full harvesting
    # decodes there, the split everywhere else
    (4.0, 1e-16, 2e-15, 50, 9, True),
]


class TestLevels:
    """The battery levels build_mdp builds."""

    def test_levels_span_zero_to_capacity(self, channel2, default_params):
        params = dataclasses.replace(default_params, battery_capacity=8.0)
        levels = build_mdp(channel2, channel2, params, 5).levels
        assert levels[0] == 0.0
        assert levels[-1] == 8.0
        assert np.array_equal(np.diff(levels), [2.0, 2.0, 2.0, 2.0])

    @pytest.mark.parametrize("n_levels", [2, 9, 129])
    def test_levels_are_the_read_only_linspace(self, channel2, default_params, n_levels):
        levels = build_mdp(channel2, channel2, default_params, n_levels).levels
        assert not levels.flags.writeable
        expected = np.linspace(0.0, default_params.battery_capacity, n_levels)
        assert levels.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "n_levels, message",
        [
            (1, "n_levels must be at least 2, got 1"),
            (4.5, "n_levels must be an integer, got 4.5"),
        ],
    )
    def test_rejects_bad_level_counts(self, channel2, default_params, n_levels, message):
        # a bad capacity is SystemParams' to reject:
        # test_relay.py::TestSystemParams::test_rejects_bad_fields
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_mdp(channel2, channel2, default_params, n_levels)


class TestRoundUpLevel:
    LEVELS = np.linspace(0.0, 2.0, 3)

    def test_empty_battery_bumps_to_second_level(self):
        assert round_up_level(0.0, self.LEVELS) == 1  # energy 1.0

    def test_full_battery_stays(self):
        assert round_up_level(2.0, self.LEVELS) == 2

    def test_interior_value_goes_up(self):
        assert round_up_level(1.5, self.LEVELS) == 2  # energy 2.0

    def test_exact_grid_hit_goes_up_by_default(self):
        assert round_up_level(1.0, self.LEVELS) == 2

    def test_exact_grid_hit_stays_without_exact_up(self):
        assert round_up_level(1.0, self.LEVELS, exact_up=False) == 1
        assert round_up_level(0.0, self.LEVELS, exact_up=False) == 0
        assert round_up_level(1.5, self.LEVELS, exact_up=False) == 2

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            round_up_level(-0.1, self.LEVELS)
        with pytest.raises(ValueError):
            round_up_level(2.1, self.LEVELS)

    @given(
        energy=st.floats(min_value=0.0, max_value=6.0, allow_subnormal=False),
        n_levels=st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_interval_containment(self, energy, n_levels):
        levels = np.linspace(0.0, 6.0, n_levels)
        level = round_up_level(energy, levels)
        assert levels[level] >= energy
        if energy < 6.0:
            # the chosen level is the nearest one strictly above
            assert levels[level] > energy
            assert levels[level] - energy <= 6.0 / (n_levels - 1)

    @pytest.mark.parametrize("exact_up", [True, False])
    @pytest.mark.parametrize("capacity", [2e-15, 1.0, 10.0, 1e308])
    @pytest.mark.parametrize("n_levels", [2, 3, 5, 9, 33, 129])
    def test_model_posts_are_the_top_up_of_each_target(
        self, channel2, default_params, n_levels, capacity, exact_up
    ):
        levels = np.linspace(0.0, capacity, n_levels)
        model = MdpModel(
            levels=levels,
            h_channel=channel2,
            g_channel=channel2,
            params=default_params,
            rewards=np.zeros((n_levels * channel2.count, n_levels)),
            exact_up=exact_up,
        )
        posts = model.post_of_target
        assert posts.dtype == np.intp
        assert not posts.flags.writeable
        for k, level in enumerate(levels):
            assert posts[k] == round_up_level(float(level), levels, exact_up)


class TestEnumerateActions:
    """The per-state actions build_mdp stores, decoded from its arrays."""

    def test_hopeless_state_only_full_harvest_zero_reward(self, default_params, channel2):
        hopeless_gain = 0.001
        h_channel = FiniteChannel([hopeless_gain, 1.0], [0.5, 0.5])
        assert not can_succeed(0.0, hopeless_gain, channel2, default_params)
        model = build_mdp(h_channel, channel2, default_params, 3)
        actions = model_actions(model, 0)
        assert all(a.ps_ratio == 1.0 for a in actions)
        assert all(a.reward == 0.0 for a in actions)

    def test_saturated_harvest_reaches_every_level(self, default_params, channel2):
        # from a full battery both branches saturate at capacity
        h_channel = FiniteChannel([1.0, 2.0], [0.5, 0.5])
        args = (h_channel, channel2, default_params, 4)
        model = build_mdp(*args)
        state = 3 * h_channel.count
        actions = model_actions(model, state)
        assert [a.target_level for a in actions] == list(range(4))
        # each of the two branches reaches every level on its own
        per_branch = two_branch_rewards(*args)[state].reshape(2, -1) > -np.inf
        assert per_branch.all()

    def test_partial_harvest_targets_and_energies(self):
        # full-harvest mid-block level of 1.2 uJ on a {0, 1, 2} grid
        params = SystemParams(4.8, 0.001, 1.0, 0.5, 1.5, 2.0)
        gain = 1.0
        assert energy_after_harvest(0.0, gain, 1.0, params) == pytest.approx(1.2)
        g_channel = FiniteChannel([0.5, 1.5], [0.5, 0.5])
        h_channel = FiniteChannel([gain], [1.0])
        model = build_mdp(h_channel, g_channel, params, 3)
        actions = model_actions(model, 0)
        # full harvest reaches levels 0 and 1 (columns 0 and 1), not 2
        assert np.isfinite(model.rewards[0]).tolist() == [True, True, False]
        full_branch = two_branch_rewards(h_channel, g_channel, params, 3)[0, :3]
        assert np.isfinite(full_branch).tolist() == [True, True, False]
        # the split decodes and outscores full harvesting at both targets
        cap = max_ps_ratio(gain, params)
        split_half = energy_after_harvest(0.0, gain, cap, params)
        assert [a.ps_ratio for a in actions] == [cap, cap]
        assert [a.target_level for a in actions] == [0, 1]
        assert [a.transmit_energy for a in actions] == pytest.approx(
            [split_half, split_half - 1.0]
        )
        assert [a.post_level for a in actions] == [1, 2]

    def test_structure_invariants(self, default_params, channel2):
        model = build_mdp(channel2, channel2, default_params, 4)
        levels = model.levels
        for s in range(model.n_states):
            level, channel = divmod(s, channel2.count)
            level_energy = float(levels[level])
            gain = float(channel2.gains[channel])
            actions = model_actions(model, s)
            assert actions, "action list must never be empty"
            # the reachable targets are levels 0, 1, ..., m
            exists = model.rewards[s] > -np.inf
            assert np.all(exists[:-1] >= exists[1:])
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
                    half - levels[a.target_level]
                )
                assert a.transmit_energy >= 0.0
                assert a.post_level == round_up_level(
                    float(levels[a.target_level]), levels
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
        "power, noise, battery, n_states, n_levels, exact_up", _ENUMERATION_CELLS
    )
    def test_arrays_match_loop_enumeration(
        self, power, noise, battery, n_states, n_levels, exact_up
    ):
        params = SystemParams(power, noise, 1.0, 0.5, 1.5, battery)
        channel = quantize_equiprobable_exponential(n_states)
        model = build_mdp(channel, channel, params, n_levels, exact_up=exact_up)
        levels = np.linspace(0.0, battery, n_levels)
        for s in range(model.n_states):
            level, i = divmod(s, channel.count)
            expected = reference_actions(
                float(levels[level]),
                float(channel.gains[i]),
                channel,
                params,
                levels,
                exact_up=exact_up,
            )
            assert model_actions(model, s) == fold_actions(expected)

    @pytest.mark.parametrize(
        "power, noise, battery, n_states, n_levels, exact_up", _ENUMERATION_CELLS
    )
    def test_rewards_fold_the_two_branch_reference(
        self, power, noise, battery, n_states, n_levels, exact_up
    ):
        params = SystemParams(power, noise, 1.0, 0.5, 1.5, battery)
        channel = quantize_equiprobable_exponential(n_states)
        args = (channel, channel, params, n_levels, exact_up)
        reference = two_branch_rewards(*args)
        assert np.array_equal(build_mdp(*args).rewards, fold_branches(reference))

    def test_mixed_cell_decodes_on_both_branches(self):
        # full harvesting and the split each decode in some of its states
        params = SystemParams(4.0, 1e-16, 1.0, 0.5, 1.5, 2e-15)
        channel = quantize_equiprobable_exponential(50)
        model = build_mdp(channel, channel, params, 9)
        ratios = {
            a.ps_ratio < 1.0
            for s in range(model.n_states)
            for a in model_actions(model, s)
            if a.reward > 0.0
        }
        assert ratios == {False, True}


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
        first = relay_module._first_delivering(energies, channel200, default_params)
        probs = channel200.tail[first]
        expected = [
            delivery_success_prob(float(u), channel200, default_params)
            for u in energies
        ]
        assert probs.tolist() == expected

    def test_delivery_table_is_built_once_and_read_only(self, default_params):
        channel = quantize_equiprobable_exponential(20)
        threshold = default_params.delivery_threshold
        delivery = relay_module._delivery_table(channel, threshold)
        assert relay_module._delivery_table(channel, threshold) is delivery
        with pytest.raises(ValueError):
            delivery[0] = 0.0
        # an equal alphabet in another object gets its own, equal table
        twin = quantize_equiprobable_exponential(20)
        other = relay_module._delivery_table(twin, threshold)
        assert other is not delivery and other.tolist() == delivery.tolist()

    @given(
        weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
        scale=st.floats(1e-3, 1e3),
        # a zero gain delivers nothing; over the subnormal ones the quotient
        # threshold / g overflows
        low=st.sampled_from([(), (0.0,), (0.0, 1e-312), (1e-315, 1e-312, 1e-310)]),
        # subnormal thresholds round the products far from the quotient
        noise_power=st.floats(1e-6, 1.0) | st.floats(1e-320, 1e-300),
        rate=st.floats(0.1, 3.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_delivery_table_is_exact(self, weights, scale, low, noise_power, rate):
        gains = np.concatenate([low, scale * np.cumsum(weights)])
        channel = FiniteChannel(gains, np.full(gains.size, 1.0 / gains.size))
        params = SystemParams(1.0, noise_power, 1.0, 0.5, rate, 10.0)
        delivery = relay_module._delivery_table(channel, params.delivery_threshold)
        assert np.all(delivery[1:] >= delivery[:-1])
        assert gains[0] > 0.0 or delivery[-1] == np.inf
        least = delivery[np.isfinite(delivery)]
        largest = np.finfo(float).max
        energies = np.concatenate([least, np.nextafter(least, 0.0), [0.0, largest]])
        first = relay_module._first_delivering(energies, channel, params)
        with np.errstate(over="ignore"):  # products with the largest gains
            assert np.array_equal(
                first, oracle_first_delivering(energies, channel, params)
            )
            expected = [delivery_success_prob(u, channel, params) for u in energies]
        assert channel.tail[first].tolist() == expected
        # each least energy reaches its own gain and the one below it does not
        steps = np.arange(least.size)
        assert np.all(first[steps] <= gains.size - 1 - steps)
        assert np.all(first[least.size + steps] > gains.size - 1 - steps)


def _random_channel(weights, scale):
    """Ascending gains from the running sum of the weights, pmf from them."""
    weights = np.asarray(weights)
    return FiniteChannel(scale * np.cumsum(weights), weights / weights.sum())


class TestBuildMdp:
    @given(
        h_weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
        h_scale=st.floats(0.01, 20.0),
        g_weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
        g_scale=st.floats(0.01, 20.0),
        source_power=st.floats(0.05, 5.0),
        noise_power=st.floats(1e-4, 0.5),
        efficiency=st.floats(0.05, 0.95),
        rate=st.floats(0.1, 3.0),
        capacity=st.floats(0.01, 20.0),
        n_levels=st.integers(2, 12),
        exact_up=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_one_pass_build(
        self,
        h_weights,
        h_scale,
        g_weights,
        g_scale,
        source_power,
        noise_power,
        efficiency,
        rate,
        capacity,
        n_levels,
        exact_up,
    ):
        args = (
            _random_channel(h_weights, h_scale),
            _random_channel(g_weights, g_scale),
            SystemParams(source_power, noise_power, 1.0, efficiency, rate, capacity),
            n_levels,
            exact_up,
        )
        assert np.array_equal(build_mdp(*args).rewards, oracle_build_mdp(*args).rewards)

    @given(
        block=st.integers(1, 400),
        n_levels=st.integers(2, 9),
        count=st.integers(1, 30),
        exact_up=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_blocks_straddle_boundaries(
        self, default_params, block, n_levels, count, exact_up
    ):
        # blocks from one entry (under a row) to several rows, rarely a
        # divisor of the state count
        channel = quantize_equiprobable_exponential(count)
        args = (channel, channel, default_params, n_levels, exact_up)
        with mock.patch.object(mdp_module, "_BLOCK_ENTRIES", block):
            model = build_mdp(*args)
            values = np.sin(np.arange(n_levels))
            rule = mdp_module._improve(model, values)[0]
        assert np.array_equal(model.rewards, oracle_build_mdp(*args).rewards)
        assert np.array_equal(rule, oracle_improve(model, values))

    def test_default_blocks_straddle_boundaries(self, default_params, channel200):
        # 496 states a block, 13 full blocks and one of 152 states
        assert 33 * 200 % (mdp_module._BLOCK_ENTRIES // 66) != 0
        args = (channel200, channel200, default_params, 33)
        assert np.array_equal(build_mdp(*args).rewards, oracle_build_mdp(*args).rewards)

    def test_memory_is_about_the_rewards_array(self, default_params, channel200):
        assert channel200.tail.size == 201  # cached before tracing starts
        tracemalloc.start()
        try:
            model = build_mdp(channel200, channel200, default_params, 65)
            upper_bound(model, policy_iteration(model))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * model.rewards.nbytes

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
        rule = np.zeros(model.n_states, np.intp)
        assert np.array_equal(state_transition_matrix(model, rule), expected)
        _, levels = mdp_module._level_chain(model, rule)
        assert np.array_equal(levels, [[0.0, 1.0], [0.0, 1.0]])

    def test_three_level_rows_follow_post_level(self, default_params, channel2):
        model = build_mdp(channel2, channel2, default_params, 3)
        f = channel2.pmf
        for k in range(model.rewards.shape[1]):
            rule = kth_action_rule(model, k)
            posts = model.post_of_target[rule]
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
        rule = np.zeros(model.n_states, np.intp)
        matrix = state_transition_matrix(model, rule)
        assert np.max(np.abs(matrix.sum(axis=1) - 1.0)) <= 1e-12
        assert np.all((matrix != 0).sum(axis=1) == channel200.count)
        _, levels = mdp_module._level_chain(model, rule)
        assert np.max(np.abs(levels.sum(axis=1) - 1.0)) <= 1e-12

    def test_flat_index_convention(self, default_params, channel2):
        # state (level j, channel i) sits at flat index j * C + i; only the
        # second channel state can decode
        h_channel = FiniteChannel([0.001, 1.0], [0.5, 0.5])
        model = build_mdp(h_channel, channel2, default_params, 3)
        branches = two_branch_rewards(h_channel, channel2, default_params, 3)
        levels = model.levels
        assert model.n_states == 6
        for s in range(model.n_states):
            level, channel = divmod(s, h_channel.count)
            energy = float(levels[level])
            gain = float(h_channel.gains[channel])
            half = energy_after_harvest(energy, gain, 1.0, default_params)
            n_full = np.count_nonzero(model.rewards[s] > -np.inf)
            assert n_full == np.searchsorted(levels, half, side="right")
            has_split = bool(np.any(branches[s, 3:] > -np.inf))
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
            (lambda r: r[:, :1], "shape"),
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

    def test_keeps_read_only_rewards_and_copies_writeable_ones(self, hand_model):
        layout = [[(0.5, 1)], [(0.2, 0), (0.3, 1)], [(0.1, 0)], [(0.4, 1)]]
        model = hand_model([0.5, 0.5], 2, layout)
        shared = model.rewards.copy()
        shared.flags.writeable = False
        assert dataclasses.replace(model, rewards=shared).rewards is shared
        writeable = model.rewards.copy()
        kept = dataclasses.replace(model, rewards=writeable).rewards
        assert kept is not writeable and not kept.flags.writeable
        assert writeable.flags.writeable
        assert np.array_equal(kept, writeable)

    def test_keeps_read_only_levels_and_copies_writeable_ones(self, hand_model):
        layout = [[(0.5, 1)], [(0.2, 0), (0.3, 1)], [(0.1, 0)], [(0.4, 1)]]
        model = hand_model([0.5, 0.5], 2, layout)
        shared = np.linspace(0.0, 3.0, 2)
        shared.flags.writeable = False
        assert dataclasses.replace(model, levels=shared).levels is shared
        writeable = np.linspace(0.0, 3.0, 2)
        kept = dataclasses.replace(model, levels=writeable).levels
        writeable[1] = 5.0  # the caller's later change does not reach the model
        assert kept.tolist() == [0.0, 3.0] and not kept.flags.writeable

    def test_rejects_levels_that_are_not_one_dimensional(self, hand_model):
        layout = [[(0.5, 1)], [(0.2, 0), (0.3, 1)], [(0.1, 0)], [(0.4, 1)]]
        model = hand_model([0.5, 0.5], 2, layout)
        with pytest.raises(ValueError, match="levels must be 1-D"):
            dataclasses.replace(model, levels=model.levels.reshape(1, 2))


class TestPolicyEvaluate:
    def test_constant_reward_chain(self, hand_model):
        layout = [[(0.37, 1)], [(0.37, 1)], [(0.37, 0)], [(0.37, 1)]]
        model = hand_model([0.3, 0.7], 2, layout)
        gain, values = mdp_module._evaluate(model, np.array([1, 1, 0, 1]))
        assert gain == pytest.approx(0.37, abs=1e-12)
        assert np.max(np.abs(values)) <= 1e-12

    def test_iid_chain_closed_form(self, hand_model):
        # every action tops up to level 1: states are i.i.d. with the
        # channel pmf on that block, so the gain is the pmf-weighted reward
        pmf = [0.25, 0.75]
        rewards = [0.1, 0.2, 0.55, 0.8]
        layout = [[(r, 1)] for r in rewards]
        model = hand_model(pmf, 2, layout)
        gain, _ = mdp_module._evaluate(model, np.ones(4, dtype=int))
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
        rule = np.zeros(model.n_states, np.intp)
        gain, values = mdp_module._evaluate(model, rule)
        assert values.shape == (5,)
        assert values[0] == 0.0
        # level equations gain + W = mean reward + expected successor W,
        # with both averages taken over the channel pmf directly
        pmf = channel200.pmf
        rewards = model.rewards[np.arange(model.n_states), rule].reshape(5, -1) @ pmf
        successor = values[model.post_of_target[rule]].reshape(5, -1) @ pmf
        residual = np.max(np.abs(rewards + successor - gain - values))
        assert residual <= 1e-9

    def test_multichain_rule_is_detected(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        with pytest.raises(MultichainSuspectedError):
            mdp_module._evaluate(model, _two_loop_rule(model))

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
        rules = [np.zeros(model.n_states, np.intp), policy_iteration(model).rule]
        columns = action_columns(model)
        for _ in range(12):
            picks = rng.integers([cols.size for cols in columns])
            rules.append(np.array([cols[k] for cols, k in zip(columns, picks)]))
        if n_states == 2 and n_levels == 3 and exact_up:
            rules.append(_two_loop_rule(model))
        for rule in rules:
            if recurrent_class_count(model, rule) == 1:
                gain, values = mdp_module._evaluate(model, rule)
                oracle_gain, oracle_bias = dense_evaluate(model, rule)
                level_bias = oracle_bias.reshape(n_levels, -1) @ channel.pmf
                level_bias -= level_bias[0]
                assert abs(gain - oracle_gain) <= 1e-12
                assert np.max(np.abs(values - level_bias)) <= 1e-10
            else:
                with pytest.raises(MultichainSuspectedError):
                    mdp_module._evaluate(model, rule)
                with pytest.raises(MultichainSuspectedError):
                    dense_evaluate(model, rule)


def _two_loop_rule(model):
    """Rule of the three-level tiny model whose chain has a level-1 loop
    and a level-2 loop: levels 0 and 1 target level 0, level 2 targets
    level 1."""
    level = np.arange(model.n_states) // model.h_channel.count
    return np.where(level <= 1, 0, 1)


class TestPolicyImprove:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_levels=st.integers(2, 6),
        count=st.integers(1, 5),
        block=st.integers(1, 100),
        with_incumbent=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_blocks_match_one_argmax(
        self, default_params, seed, n_levels, count, block, with_incumbent
    ):
        # few distinct rewards and values, so most states hold exact ties
        # and near-ties at the 1e-13 incumbent tolerance
        rng = np.random.default_rng(seed)
        channel = quantize_equiprobable_exponential(count)
        rewards = rng.choice([-np.inf, 0.0, 0.5, 1.0], (n_levels * count, n_levels))
        rewards[:, 0] = rng.choice([0.0, 0.5], n_levels * count)
        model = MdpModel(
            np.linspace(0.0, 1.0, n_levels), channel, channel, default_params, rewards
        )
        values = rng.choice([0.0, 5e-14, 1e-13, 2e-13, 0.5], n_levels)
        incumbent = None
        if with_incumbent:
            incumbent = np.array([rng.choice(c) for c in action_columns(model)])
        with mock.patch.object(mdp_module, "_BLOCK_ENTRIES", block):
            rule, top = mdp_module._improve(model, values, incumbent)
        assert np.array_equal(rule, oracle_improve(model, values, incumbent))
        # the largest candidate, whichever target the rule keeps
        candidates = model.rewards + values[model.post_of_target]
        assert np.array_equal(top, candidates.max(axis=1))

    def test_zero_bias_is_myopic(self, hand_model):
        # the largest reward wins on either branch of its target
        layout = [
            [(0.2, 0), (0.9, 1)],
            [(0.5, 0), (0.1, 1)],
            [(0.3, 1), (0.8, 1), (0.0, 0)],
            [(0.1, 1), (0.2, 0), (0.6, 0)],
        ]
        model = hand_model([0.5, 0.5], 2, layout)
        rule = mdp_module._improve(model, np.zeros(2))[0]
        assert rule.tolist() == [1, 0, 1, 0]  # the largest reward's target

    def test_tie_prefers_smallest_index(self, hand_model):
        layout = [[(0.4, 0), (0.4, 1)]] * 4
        model = hand_model([0.5, 0.5], 2, layout)
        rule = mdp_module._improve(model, np.zeros(2))[0]
        assert rule.tolist() == [0, 0, 0, 0]  # target 0, not target 1

    def test_tie_keeps_incumbent(self, hand_model):
        layout = [[(0.4, 0), (0.4, 1)]] * 4
        model = hand_model([0.5, 0.5], 2, layout)
        incumbent = np.array([1, 0, 1, 0])
        rule = mdp_module._improve(model, np.zeros(2), incumbent)[0]
        assert rule.tolist() == incumbent.tolist()

    def test_optimal_rule_is_fixed_point(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        result = policy_iteration(model)
        assert result.bias.shape == (3,)
        again = mdp_module._improve(model, result.bias, result.rule)[0]
        assert np.array_equal(again, result.rule)

    def test_rejects_per_state_values(self, hand_model):
        layout = [[(0.4, 1), (0.2, 0)]] * 4
        model = hand_model([0.5, 0.5], 2, layout)
        result = PolicyIterationResult(
            gain=0.4,
            bias=np.zeros(4),
            rule=np.ones(4, dtype=int),
            iterations=1,
            gain_history=(0.4,),
        )
        with pytest.raises(ValueError, match="one value per battery level"):
            upper_bound(model, result)


def _simulate(model, rule):
    return simulate_discrete(model, rule, SimulationConfig(blocks=10, seed=1))


class TestRuleValidation:
    """The discrete simulator's oracle checks the rule it is handed; the
    package's solvers make every rule they use, so they check none."""

    @pytest.mark.parametrize("kind", ["out_of_range", "missing_action"])
    def test_rejects_a_column_that_is_not_an_action(
        self, channel2, hard_tiny_params, kind
    ):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        rule = np.zeros(model.n_states, np.intp)
        missing = np.argwhere(np.isneginf(model.rewards))
        state, column = (int(v) for v in missing[-1])
        if kind == "out_of_range":
            column = model.rewards.shape[1]
        rule[state] = column
        with pytest.raises(ValueError, match=f"state {state}: column {column} "):
            _simulate(model, rule)

    @pytest.mark.parametrize("dtype", [float, bool, object])
    def test_rejects_a_rule_that_is_not_integer(self, default_params, dtype):
        # 0.7 past the drain rule's target 0 was once truncated back to it
        channel = quantize_equiprobable_exponential(20)
        model = build_mdp(channel, channel, default_params, 5)
        rule = (np.zeros(model.n_states, np.intp) + 0.7).astype(dtype)
        with pytest.raises(ValueError, match=f"dtype {np.dtype(dtype)}"):
            _simulate(model, rule)

    def test_rejects_a_rule_of_the_wrong_shape(self, channel2, default_params):
        model = build_mdp(channel2, channel2, default_params, 3)
        rule = np.zeros(model.n_states, np.intp)[:-1]
        with pytest.raises(ValueError, match=r"one level per state, got shape \(5,\)"):
            _simulate(model, rule)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64])
    def test_accepts_any_integer_dtype(self, default_params, dtype):
        channel = quantize_equiprobable_exponential(20)
        model = build_mdp(channel, channel, default_params, 5)
        rule = policy_iteration(model).rule
        assert _simulate(model, rule.astype(dtype)) == _simulate(model, rule)


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

    def test_start_rule_needs_column_zero(self, monkeypatch, hand_model):
        # states 1 and 3 cannot drain to level 0; no rule is evaluated
        layout = [[(0.5, 1), (0.1, 0)], [(0.3, 1)], [(0.1, 0)], [(0.4, 1)]]
        model = hand_model([0.5, 0.5], 2, layout)
        evaluated = []
        real = mdp_module._evaluate

        def counting(model, rule):
            evaluated.append(rule)
            return real(model, rule)

        monkeypatch.setattr(mdp_module, "_evaluate", counting)
        with pytest.raises(ValueError, match=r"^state 1: column 0 is not an action$"):
            policy_iteration(model)
        assert evaluated == []

    def test_iteration_cap_raises(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        with pytest.raises(NonConvergenceError):
            policy_iteration(model, max_iterations=1)

    @pytest.mark.parametrize("cap", [0, -1, 2.5, "3", None])
    def test_iteration_cap_must_be_a_positive_integer(
        self, channel2, default_params, cap
    ):
        model = build_mdp(channel2, channel2, default_params, 3)
        with pytest.raises(ValueError, match="max_iterations"):
            policy_iteration(model, max_iterations=cap)

    def test_repeated_rule_is_detected(self):
        # a round-down cell whose rules cycle without LAPACK finding a
        # singular system or the residual check firing
        params = SystemParams(0.5, 0.001, 1.0, 0.5, 1.5, 10.0)
        channel = quantize_equiprobable_exponential(50)
        model = build_mdp(channel, channel, params, 9, exact_up=False)
        with pytest.raises(
            MultichainSuspectedError, match="iteration 13 repeats iteration 7's"
        ):
            policy_iteration(model, max_iterations=100)

    def test_ill_conditioned_round_down_cell_is_certified(self):
        # an evaluation system on the way has a 1-norm condition number
        # of about 3e12, and one Bellman update certifies the final gain
        params = SystemParams(1.0, 0.001, 1.0, 0.5, 1.5, 14.0)
        channel = quantize_equiprobable_exponential(5)
        model = build_mdp(channel, channel, params, 65, exact_up=False)
        assert upper_bound(model, policy_iteration(model)) == 0.9999999999999999

    def test_default_initial_rule_drains(self, channel2, default_params):
        model = build_mdp(channel2, channel2, default_params, 3)
        rule = np.zeros(model.n_states, np.intp)
        first_gain = mdp_module._evaluate(model, rule)[0]
        assert policy_iteration(model).gain_history[0] == first_gain
        for s, column in enumerate(rule):
            position = action_columns(model)[s].tolist().index(column)
            action = model_actions(model, s)[position]
            assert action.target_level == 0
            level, channel = divmod(s, channel2.count)
            energy = float(model.levels[level])
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

    def test_gain_rounding_above_one_is_returned_as_one(self):
        # the level solve's gain here is one ulp above the largest reward, 1
        params = SystemParams(1.0, 0.001, 1.0, 0.5, 1.5, 10.0)
        channel = quantize_equiprobable_exponential(20)
        model = build_mdp(channel, channel, params, 5)
        result = policy_iteration(model)
        assert result.gain > 1.0
        assert repr(upper_bound(model, result)) == "1.0"

    def test_bound_equals_oracle_on_tiny_model(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        result = policy_iteration(model)
        bound = upper_bound(model, result)
        assert abs(bound - oracle_gain_bruteforce(model)) <= 1e-9

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

    @pytest.mark.parametrize(
        "bias",
        [np.zeros(1), np.zeros(3), np.zeros((2, 1)), np.float64(0.0)],
        ids=["short", "long", "column", "scalar"],
    )
    def test_rejects_a_bias_that_is_not_one_value_per_level(self, hand_model, bias):
        # the bias is outside data here; _improve no longer checks it
        layout = [[(0.4, 1), (0.2, 0)]] * 4
        model = hand_model([0.5, 0.5], 2, layout)
        result = PolicyIterationResult(
            gain=0.4,
            bias=bias,
            rule=np.ones(4, dtype=int),
            iterations=1,
            gain_history=(0.4,),
        )
        with pytest.raises(ValueError, match=r"one value per battery level \(2\)"):
            upper_bound(model, result)

    def test_solver_steps_are_not_exported(self):
        # _evaluate and _improve are the only evaluation and improvement
        # steps; policy_iteration and upper_bound are the checked entry points
        import swipt_relay

        for name in ("policy_evaluate", "policy_improve"):
            assert name not in mdp_module.__all__
            assert not hasattr(mdp_module, name)
            assert not hasattr(swipt_relay, name)

    def test_model_has_no_grid_class_or_public_reward_vector(self, hand_model):
        # the model holds its levels as an array and checks no rule; a
        # rule's rewards are gathered only inside the solvers
        import swipt_relay

        for module in (mdp_module, swipt_relay):
            assert "BatteryGrid" not in getattr(module, "__all__", ())
            assert not hasattr(module, "BatteryGrid")
        model = hand_model([1.0], 2, [[(0.5, 1)], [(0.5, 0)]])
        for name in ("reward_vector", "check_rule"):
            assert not hasattr(model, name)
            assert not hasattr(MdpModel, "_" + name)
        assert not hasattr(model, "grid")

    def test_no_second_channel_constructor_or_start_rule_export(self):
        # FiniteChannel is the one channel constructor, and policy
        # iteration starts from np.zeros itself
        import importlib

        submodules = ("channel", "cli", "experiment", "mdp", "relay", "simulate")
        modules = [importlib.import_module("swipt_relay")] + [
            importlib.import_module(f"swipt_relay.{name}") for name in submodules
        ]
        for name in ("channel_from_table", "default_initial_rule"):
            for module in modules:
                assert name not in getattr(module, "__all__", ())
                assert not hasattr(module, name)

    @pytest.mark.parametrize(
        "swap",
        [
            lambda rule: rule + 0.7,
            lambda rule: np.full_like(rule, 3),
            lambda rule: np.full_like(rule, 2),
            lambda rule: rule[:-1],
        ],
        ids=["float", "out_of_range", "missing_action", "wrong_shape"],
    )
    def test_certificate_does_not_read_the_rule(
        self, channel2, hard_tiny_params, swap
    ):
        # the bound holds for any level values, so no rule is needed
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        result = policy_iteration(model)
        assert np.isneginf(model.rewards[:, 2]).any()
        swapped = dataclasses.replace(result, rule=swap(result.rule))
        assert upper_bound(model, swapped).hex() == upper_bound(model, result).hex()

    @pytest.mark.parametrize(
        "perturb",
        [
            lambda gain, values: (gain + 1e-9, values),
            lambda gain, values: (gain - 1e-9, values),
            lambda gain, values: (gain, values + 1e-6 * (np.arange(9) == 3)),
            lambda gain, values: (gain, np.full(9, np.nan)),
        ],
        ids=["gain+1e-9", "gain-1e-9", "W[3]+1e-6", "W-all-nan"],
    )
    def test_certificate_rejects_a_perturbed_result(
        self, default_params, channel200, perturb
    ):
        model = build_mdp(channel200, channel200, default_params, 9)
        result = policy_iteration(model)
        assert upper_bound(model, result) == result.gain
        gain, values = perturb(result.gain, result.bias)
        wrong = dataclasses.replace(result, gain=gain, bias=values)
        with pytest.raises(MultichainSuspectedError, match="span"):
            upper_bound(model, wrong)

    def test_mismatched_channel_rejected(self, channel2, hard_tiny_params):
        # a result solved over another source-relay alphabet fails the
        # certificate on its gain and level values
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        other = quantize_equiprobable_exponential(3)
        other_model = build_mdp(other, channel2, hard_tiny_params, 3)
        with pytest.raises(MultichainSuspectedError, match="span"):
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
        gain, _ = mdp_module._evaluate(model, rule)
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
