import numpy as np
import pytest

from swipt_relay import (
    InfeasibleActionError,
    SimulationConfig,
    SimulationResult,
    build_mdp,
    channel_from_table,
    default_initial_rule,
    heuristic_average_success,
    make_heuristic_policy,
    policy_evaluate,
    policy_iteration,
    sample_channel,
    simulate_discrete,
    simulate_original,
    SystemParams,
)
from swipt_relay.simulate import RESULT_CSV_HEADER


class TestSampleChannel:
    def test_single_state_always_zero(self):
        channel = channel_from_table([1.0], [1.0])
        rng = np.random.default_rng(0)
        assert not sample_channel(channel, rng, 100).any()

    def test_two_state_frequency_band(self):
        channel = channel_from_table([0.5, 1.5], [0.5, 0.5])
        rng = np.random.default_rng(314159)
        draws = 1_000_000
        ones = int(sample_channel(channel, rng, draws).sum())
        assert abs(ones / draws - 0.5) <= 0.002  # binomial 3-sigma band

    def test_cumulative_table_reaches_one(self, channel200):
        assert abs(float(np.cumsum(channel200.pmf)[-1]) - 1.0) <= 1e-12

    def test_respects_skewed_pmf(self):
        channel = channel_from_table([0.5, 1.5], [0.9, 0.1])
        rng = np.random.default_rng(7)
        draws = 200_000
        ones = int(sample_channel(channel, rng, draws).sum())
        sigma = np.sqrt(0.1 * 0.9 / draws)
        assert abs(ones / draws - 0.1) <= 3.0 * sigma


class TestSimulationConfig:
    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            SimulationConfig(blocks=0, seed=1)

    def test_rejects_negative_energy(self):
        with pytest.raises(ValueError):
            SimulationConfig(blocks=10, seed=1, initial_energy=-1.0)

    @pytest.mark.parametrize("energy", [float("nan"), float("inf")])
    def test_rejects_non_finite_energy(self, energy):
        # a NaN start would otherwise sort past every grid level
        with pytest.raises(ValueError, match="initial_energy must be finite"):
            SimulationConfig(blocks=10, seed=1, initial_energy=energy)

    def test_rejects_negative_seed(self):
        # numpy's PCG64 takes only non-negative seeds
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SimulationConfig(blocks=10, seed=-1)


class TestSimulateOriginal:
    def test_silent_policy_never_succeeds(self, channel2, default_params):
        policy = lambda energy, gain: (1.0, 0.0)  # noqa: E731
        result = simulate_original(
            policy, channel2, channel2, default_params,
            SimulationConfig(blocks=2000, seed=5),
        )
        assert result.mean == 0.0

    def test_heuristic_matches_closed_form(self, channel200, default_params):
        closed = heuristic_average_success(channel200, channel200, default_params)
        result = simulate_original(
            make_heuristic_policy(channel200, default_params),
            channel200,
            channel200,
            default_params,
            SimulationConfig(blocks=100_000, seed=4242),
        )
        assert abs(result.mean - closed) <= 3.0 * result.stderr

    def test_same_seed_is_bit_identical(self, channel2, default_params):
        config = SimulationConfig(blocks=5000, seed=77)
        policy = make_heuristic_policy(channel2, default_params)
        a = simulate_original(
            policy, channel2, channel2, default_params, config, keep_trace=True
        )
        b = simulate_original(
            policy, channel2, channel2, default_params, config, keep_trace=True
        )
        assert a.mean == b.mean and a.stderr == b.stderr
        assert np.array_equal(a.trace, b.trace)
        assert a.generator == "pcg64"

    def test_heuristic_start_state_invariance(self, channel2, default_params):
        # the draining rule resets the battery every block, so only the
        # first block can differ between start levels
        policy = make_heuristic_policy(channel2, default_params)
        blocks = 4000
        runs = [
            simulate_original(
                policy,
                channel2,
                channel2,
                default_params,
                SimulationConfig(blocks=blocks, seed=11, initial_energy=start),
                keep_trace=True,
            )
            for start in (0.0, default_params.battery_capacity)
        ]
        assert abs(runs[0].mean - runs[1].mean) <= 1.0 / blocks
        assert np.array_equal(runs[0].trace[1:], runs[1].trace[1:])

    def test_battery_trajectory_stays_in_bounds(self, channel2, default_params):
        energies = []

        def greedy_saver(energy, gain):
            energies.append(energy)
            return 1.0, 0.0  # harvest everything, never transmit

        simulate_original(
            greedy_saver, channel2, channel2, default_params,
            SimulationConfig(blocks=3000, seed=13),
        )
        trajectory = np.array(energies)
        assert np.all(trajectory >= 0.0)
        assert np.all(trajectory <= default_params.battery_capacity)
        assert trajectory[-1] == default_params.battery_capacity  # saturated

    def test_policy_violation_names_block_and_state(self, channel2, default_params):
        policy = lambda energy, gain: (0.5, 1e9)  # noqa: E731
        with pytest.raises(InfeasibleActionError, match="block 0") as info:
            simulate_original(
                policy, channel2, channel2, default_params,
                SimulationConfig(blocks=10, seed=1),
            )
        assert "state (energy=0.0, gain=" in str(info.value)

    @pytest.mark.parametrize(
        "action, message",
        [
            ((-0.1, 0.0), "ps_ratio must lie in"),
            ((1.5, 0.0), "ps_ratio must lie in"),
            ((float("nan"), 0.0), "ps_ratio must lie in"),
            ((1.0, -1.0), "transmit_energy must be non-negative"),
            ((1.0, float("nan")), "transmit_energy must be non-negative"),
        ],
    )
    def test_bad_action_names_block_and_state(
        self, channel2, default_params, action, message
    ):
        with pytest.raises(ValueError, match=message) as info:
            simulate_original(
                lambda energy, gain: action, channel2, channel2, default_params,
                SimulationConfig(blocks=10, seed=1),
            )
        assert str(info.value).startswith("block 0: ")
        assert "state (energy=0.0, gain=" in str(info.value)

    def test_rejects_overfull_start(self, channel2, default_params):
        config = SimulationConfig(blocks=10, seed=1, initial_energy=11.0)
        with pytest.raises(ValueError):
            simulate_original(
                make_heuristic_policy(channel2, default_params),
                channel2, channel2, default_params, config,
            )

    def test_stderr_shrinks_with_block_count(self, channel2, hard_tiny_params):
        # interior success probability, so the Bernoulli variance is real
        policy = make_heuristic_policy(channel2, hard_tiny_params)
        ratios = []
        for seed in (1, 2, 3, 4, 5):
            small = simulate_original(
                policy, channel2, channel2, hard_tiny_params,
                SimulationConfig(blocks=20_000, seed=seed),
            )
            large = simulate_original(
                policy, channel2, channel2, hard_tiny_params,
                SimulationConfig(blocks=40_000, seed=seed + 100),
            )
            ratios.append(large.stderr / small.stderr)
        assert 0.6 <= np.mean(ratios) <= 0.9  # ~1/sqrt(2)


class TestSimulateDiscrete:
    def test_matches_gain_under_optimal_rule(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        result = policy_iteration(model)
        sim = simulate_discrete(
            model, result.rule, SimulationConfig(blocks=100_000, seed=2024)
        )
        assert abs(sim.mean - result.gain) <= 3.0 * max(sim.stderr, 1e-12)

    def test_all_zero_rewards_average_exactly_zero(self, channel2):
        deaf = SystemParams(1.0, 10.0, 1.0, 0.5, 1.5, 10.0)
        model = build_mdp(channel2, channel2, deaf, 3)
        rule = default_initial_rule(model)
        sim = simulate_discrete(model, rule, SimulationConfig(blocks=5000, seed=8))
        assert sim.mean == 0.0

    def test_single_state_chain_exact_reward(self, hand_model):
        # one channel state, equal rewards: the average IS the reward
        # (0.375 is dyadic, so the accumulation is exact)
        layout = [[(0.375, 1)], [(0.375, 1)]]
        model = hand_model([1.0], 2, layout)
        rule = np.zeros(2, dtype=int)
        sim = simulate_discrete(model, rule, SimulationConfig(blocks=1000, seed=3))
        assert sim.mean == 0.375

    def test_single_state_alphabet_matches_gain(self, default_params):
        single = channel_from_table([1.0], [1.0])
        model = build_mdp(single, single, default_params, 2)
        rule = default_initial_rule(model)
        gain, _ = policy_evaluate(model, rule)
        sim = simulate_discrete(model, rule, SimulationConfig(blocks=1000, seed=3))
        # one channel state: after the first block the chain is constant
        assert abs(sim.mean - gain) <= 1.0 / 1000 + 1e-12

    def test_initial_channel_pins_first_block(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        rule = default_initial_rule(model)
        rewards = model.reward_vector(rule)
        for i in range(2):
            sim = simulate_discrete(
                model,
                rule,
                SimulationConfig(blocks=1, seed=55),
                initial_channel=i,
                keep_trace=True,
            )
            assert sim.trace[0] == rewards[model.space.flat_index(0, i)]

    def test_same_seed_is_bit_identical(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        rule = default_initial_rule(model)
        config = SimulationConfig(blocks=3000, seed=21)
        a = simulate_discrete(model, rule, config, keep_trace=True)
        b = simulate_discrete(model, rule, config, keep_trace=True)
        assert a.mean == b.mean and np.array_equal(a.trace, b.trace)

    def test_rejects_bad_initial_channel(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        rule = default_initial_rule(model)
        with pytest.raises(ValueError):
            simulate_discrete(
                model, rule, SimulationConfig(blocks=10, seed=1), initial_channel=5
            )


class TestResultSerialization:
    def test_csv_row_schema(self):
        result = SimulationResult(mean=0.25, stderr=0.001, blocks=100, seed=7)
        assert RESULT_CSV_HEADER == "seed,M,mean,stderr"
        assert result.csv_row() == "7,100,0.25,0.001"
