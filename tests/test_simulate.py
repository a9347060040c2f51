import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_guide_table,
    oracle_sample_channel,
    oracle_simulate_discrete,
    oracle_simulate_original,
    simulate_discrete,
)
from swipt_relay import (
    FiniteChannel,
    InfeasibleActionError,
    SimulationConfig,
    SimulationResult,
    apply_action,
    build_mdp,
    energy_after_harvest,
    heuristic_average_success,
    make_heuristic_policy,
    max_ps_ratio,
    policy_iteration,
    quantize_equiprobable_exponential,
    sample_channel,
    simulate_original,
    SystemParams,
)
import swipt_relay.simulate as simulate_module
from swipt_relay.mdp import _evaluate
from swipt_relay.relay import _delivery_table
from swipt_relay.simulate import RESULT_CSV_HEADER


def _half_drain(g_channel, params):
    """Split at the largest decodable ratio (1 when none decodes) and
    spend half the mid-block level, so the battery never empties."""

    def policy(energy, gain):
        cap = max_ps_ratio(gain, params)
        ratio = 1.0 if cap is None else cap
        return ratio, energy_after_harvest(energy, gain, ratio, params) / 2

    return policy


def _drain_when_half_full(g_channel, params):
    """Harvest everything until the battery holds half its capacity, then
    drain at the largest decodable ratio: the action depends on the
    energy, not only on the gain."""

    def policy(energy, gain):
        cap = max_ps_ratio(gain, params)
        if cap is None or energy < params.battery_capacity / 2:
            return 1.0, 0.0
        return cap, energy_after_harvest(energy, gain, cap, params)

    return policy


def _grid_like(g_channel, params):
    """Split at the largest decodable ratio (1 when none decodes) and land
    the residual on the highest of 41 evenly spaced levels under the
    mid-block level, or drain on a gain of 3 or more: the battery stays on
    a level while the gains are weak and moves when one is strong."""
    levels = np.linspace(0.0, params.battery_capacity, 41).tolist()

    def policy(energy, gain):
        cap = max_ps_ratio(gain, params)
        ratio = 1.0 if cap is None else cap
        half = energy_after_harvest(energy, gain, ratio, params)
        if gain >= 3.0:
            return ratio, half
        return ratio, half - max(level for level in levels if level <= half)

    return policy


def _changes_energy_after_a_repeat(states):
    """Whether, in a run's (energy, gain) per block, the battery leaves an
    energy after a block there repeated a gain that had kept it there."""
    steady, repeated = set(), False
    for (energy, gain), (next_energy, _) in zip(states, states[1:]):
        if gain in steady:
            repeated = True
        elif next_energy == energy:
            steady.add(gain)
        elif repeated:
            return True
        else:
            steady.clear()
    return False


def _stay_crosses(states, edge):
    """Whether, in a run's (energy, gain) per block, the battery's stay at
    block `edge` repeated a gain before it and ends in a move after it: a
    stay with skipped blocks that crosses a slice edge and ends on a
    battery move."""
    energy = states[edge][0]
    first = last = edge
    while first > 0 and states[first - 1][0] == energy:
        first -= 1
    while last + 1 < len(states) and states[last + 1][0] == energy:
        last += 1
    gains = [gain for _, gain in states[first:edge]]
    return len(set(gains)) < len(gains) and last + 1 < len(states)


def _transmit_the_threshold(g_channel, params):
    """Transmit exactly the delivery threshold, which over a unit gain
    reaches it exactly and over a gain of 0.5 falls short."""
    needed = params.delivery_threshold
    return lambda energy, gain: (max_ps_ratio(gain, params), needed)


def _transmit_delivery_entries(g_channel, params):
    """Split at the largest decodable ratio (1 when none decodes) and
    transmit a delivery-table entry, the least energy that delivers through
    its gain, or the double just below or above it, picked by the channel
    index; transmit nothing where that exceeds the mid-block level."""
    entries = _delivery_table(g_channel, params.delivery_threshold)
    choices = [
        entries.tolist(),
        np.nextafter(entries, 0.0).tolist(),
        np.nextafter(entries, np.inf).tolist(),
    ]
    index = {gain: i for i, gain in enumerate(g_channel.gains.tolist())}

    def policy(energy, gain):
        i = index[gain]
        transmit_energy = choices[i % 3][7 * i % len(entries)]
        cap = max_ps_ratio(gain, params)
        ratio = 1.0 if cap is None else cap
        if transmit_energy > energy_after_harvest(energy, gain, ratio, params):
            return ratio, 0.0
        return ratio, transmit_energy

    return policy


POLICIES = {
    "heuristic": make_heuristic_policy,
    "half_drain": _half_drain,
    "save_everything": lambda g_channel, params: lambda energy, gain: (1.0, 0.0),
    "drain_when_half_full": _drain_when_half_full,
    "grid_like": _grid_like,
}

START_ENERGIES = ["empty", "third", "full"]

# simulate_original walks and scores a run in slices of SLICE blocks
SLICE = simulate_module._SLICE_BLOCKS
SLICE_EDGES = [SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 7]


def _start_energy(start, params):
    capacity = params.battery_capacity
    return {"empty": 0.0, "third": capacity / 3, "full": capacity}[start]


def _table(weights):
    """Channel with gains 1..C and a pmf proportional to weights."""
    weights = np.asarray(weights, dtype=float)
    gains = np.arange(1.0, weights.size + 1.0)
    return FiniteChannel(gains, weights / weights.sum())


def _rare_first_state():
    """The 200 equiprobable exponential gains, with index 0 drawn with
    probability 1e-7 times that of each other state."""
    weights = np.ones(200)
    weights[0] = 1e-7
    gains = quantize_equiprobable_exponential(200).gains
    return FiniteChannel(gains, weights / weights.sum())


def _crowded(count, heavy):
    """count states, heavy of the mass on the middle one."""
    weights = np.full(count, (1.0 - heavy) / (count - 1))
    weights[count // 2] = heavy
    return _table(weights)


SAMPLER_TABLES = {
    **{
        f"equiprobable{c}": functools.partial(quantize_equiprobable_exponential, c)
        for c in (1, 2, 7, 200, 1000)
    },
    "ramp200": lambda: _table(np.linspace(1.0, 3.0, 200)),
    "geometric200": lambda: _table(0.99 ** np.arange(200)),
    "two_state_skew": lambda: _table([0.9, 0.1]),
    "crowded1000": lambda: _crowded(1000, 0.9),
    "crowded1000_extreme": lambda: _crowded(1000, 0.999),
}


class _FixedUniforms:
    """Generator stub whose random(size) returns the given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        assert size == self.values.size
        return self.values.copy()


class TestSampleChannel:
    @pytest.mark.parametrize("seed", [0, 9])
    @pytest.mark.parametrize("table", sorted(SAMPLER_TABLES))
    def test_matches_binary_search_oracle(self, table, seed):
        channel = SAMPLER_TABLES[table]()
        got = sample_channel(channel, np.random.default_rng(seed), 100_000)
        want = oracle_sample_channel(channel, np.random.default_rng(seed), 100_000)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @given(
        count=st.sampled_from([1, 2, 3, 17, 200, 1000]),
        seed=st.integers(0, 2**32 - 1),
        crowd=st.floats(0.0, 0.999),
        near=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_guide_table_matches_edge_searches(self, count, seed, crowd, near):
        # a share `crowd` of the states carries almost no mass, so their cdf
        # entries crowd into shared buckets; a share `near` of the entries
        # is moved to within 2e-12 of a bucket edge, where the margins decide
        rng = np.random.default_rng(seed)
        weights = rng.random(count) + 1e-3
        weights[rng.random(count) < crowd] *= 1e-9
        inner, buckets = np.cumsum(_table(weights).pmf)[:-1], 8 * count
        offsets = [-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12]
        edges = rng.integers(0, buckets + 1, inner.size) / buckets
        edges += rng.choice(offsets, inner.size)
        inner = np.sort(np.where(rng.random(inner.size) < near, edges, inner))
        got = simulate_module._guide_table(inner, buckets)
        want = oracle_guide_table(inner, buckets)
        for got_part, want_part in zip(got, want):
            assert got_part.dtype == want_part.dtype
            assert np.array_equal(got_part, want_part)

    @pytest.mark.parametrize("table", sorted(SAMPLER_TABLES))
    def test_boundary_uniforms_match_binary_search_oracle(self, table):
        # every cdf value exactly, the double just below it, 0.0 and
        # values at or past the last cdf entry
        channel = SAMPLER_TABLES[table]()
        cdf = np.cumsum(channel.pmf)
        past_end = np.array([cdf[-1], np.nextafter(cdf[-1], np.inf), 1.0, 1.5])
        values = np.concatenate(
            ([0.0], cdf, np.nextafter(cdf, -np.inf), past_end, [np.nextafter(1.0, 0.0)])
        )
        got = sample_channel(channel, _FixedUniforms(values), values.size)
        want = oracle_sample_channel(channel, _FixedUniforms(values), values.size)
        assert np.array_equal(got, want)
        assert got[0] == 0
        ends = got[1 + 2 * cdf.size : 1 + 2 * cdf.size + past_end.size]
        assert np.all(ends == channel.count - 1)

    def test_one_crowded_bucket_matches_binary_search_oracle(self):
        # two cdf entries, 0.2 and 0.201, share one of the 32 buckets and
        # every other bucket holds at most one
        channel = _table([0.2, 0.001, 0.299, 0.5])
        inner = np.cumsum(channel.pmf)[:-1]
        _, crowded = simulate_module._guide_table(inner, 8 * channel.count)
        assert np.count_nonzero(crowded) == 1
        for seed in (0, 9):
            got = sample_channel(channel, np.random.default_rng(seed), 100_000)
            want = oracle_sample_channel(channel, np.random.default_rng(seed), 100_000)
            assert np.array_equal(got, want)
        values = np.linspace(6 / 32, 7 / 32, 1001)  # across the crowded bucket
        got = sample_channel(channel, _FixedUniforms(values), values.size)
        want = oracle_sample_channel(channel, _FixedUniforms(values), values.size)
        assert np.array_equal(got, want)
        assert set(got.tolist()) == {0, 1, 2}

    def test_tables_are_built_once_and_read_only(self):
        channel = _crowded(1000, 0.9)
        tables = simulate_module._sampler_tables(channel)
        sample_channel(channel, np.random.default_rng(0), 10)
        assert simulate_module._sampler_tables(channel) is tables
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = table[-1]
        inner, buckets = np.cumsum(channel.pmf)[:-1], 8 * channel.count
        guide, crowded = simulate_module._guide_table(inner, buckets)
        assert np.array_equal(tables[0], inner)
        assert np.array_equal(tables[1], guide)
        assert np.array_equal(tables[3], crowded)

    def test_single_state_always_zero(self):
        channel = FiniteChannel([1.0], [1.0])
        rng = np.random.default_rng(0)
        assert not sample_channel(channel, rng, 100).any()

    def test_two_state_frequency_band(self):
        channel = FiniteChannel([0.5, 1.5], [0.5, 0.5])
        rng = np.random.default_rng(314159)
        draws = 1_000_000
        ones = int(sample_channel(channel, rng, draws).sum())
        assert abs(ones / draws - 0.5) <= 0.002  # binomial 3-sigma band

    def test_cumulative_table_reaches_one(self, channel200):
        assert abs(float(np.cumsum(channel200.pmf)[-1]) - 1.0) <= 1e-12

    def test_respects_skewed_pmf(self):
        channel = FiniteChannel([0.5, 1.5], [0.9, 0.1])
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

    @pytest.mark.parametrize(
        "blocks, seed, name", [(2.5, 1, "blocks"), (10.0, 1, "blocks"), (10, 1.5, "seed")]
    )
    def test_rejects_non_integer_counts(self, blocks, seed, name):
        # numpy would fail on them only once the run draws
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SimulationConfig(blocks=blocks, seed=seed)


class TestSimulateOriginal:
    # Whole runs pinned across commits. The first two move the battery:
    # half_drain on every block, grid_like through repeats between moves.
    # The third drains on a table whose index 0 is drawn with probability
    # 5e-10, so its stay at the empty battery never plays every index.
    @pytest.mark.parametrize(
        "policy, rare, start, seed, row",
        [
            ("half_drain", False, "empty", 7, "7,100000,0.94804035,0.000375825847527"),
            ("grid_like", False, "full", 7, "7,100000,0.8474229,0.000687009436162"),
            ("heuristic", True, "empty", 5, "5,100000,0.903499899043,0.000550745834548"),
        ],
        ids=["half_drain_from_empty", "grid_like_from_full", "rare_first_state"],
    )
    def test_pinned_rows(
        self, channel200, default_params, policy, rare, start, seed, row
    ):
        channel = _rare_first_state() if rare else channel200
        config = SimulationConfig(
            blocks=100_000,
            seed=seed,
            initial_energy=_start_energy(start, default_params),
        )
        play = POLICIES[policy](channel, default_params)
        result = simulate_original(play, channel, channel, default_params, config)
        assert result.csv_row() == row

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
        # a battery too large to fill in a slice first holds `level` at a
        # block in the third slice, which the message numbers from the start
        params = dataclasses.replace(default_params, battery_capacity=1e6)
        level = 0.25 * (2 * SLICE + 100)  # a block harvests 0.25 uJ on average
        config = SimulationConfig(blocks=3 * SLICE, seed=1)
        drawn = sample_channel(channel2, np.random.default_rng(1), config.blocks)
        energy, m = 0.0, 0
        while energy < level:
            gain = float(channel2.gains[drawn[m]])
            energy, m = energy_after_harvest(energy, gain, 1.0, params), m + 1
        assert 2 * SLICE < m < 3 * SLICE

        def policy(energy, gain):
            return (1.0, 0.0) if energy < level else (0.5, 1e9)

        with pytest.raises(InfeasibleActionError) as info:
            simulate_original(policy, channel2, channel2, params, config)
        gain = float(channel2.gains[drawn[m]])
        assert str(info.value).startswith(
            f"block {m}: action (ps_ratio=0.5, u=1000000000.0) "
            f"in state (energy={energy}, gain={gain}): "
        )

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

    @pytest.mark.parametrize(
        "policy_name, blocks", [("heuristic", 1_000_000), ("half_drain", 100_000)]
    )
    def test_memory_does_not_grow_with_the_run(
        self, channel200, default_params, policy_name, blocks
    ):
        # the heuristic repeats played blocks from early on; half_drain plays
        # every block, each with a policy call and a score. A run that kept a
        # value per block would need 9-33 MB here.
        policy = POLICIES[policy_name](channel200, default_params)
        short = SimulationConfig(blocks=10, seed=2)  # builds the cached tables
        simulate_original(policy, channel200, channel200, default_params, short)
        tracemalloc.start()
        try:
            simulate_original(
                policy, channel200, channel200, default_params,
                SimulationConfig(blocks=blocks, seed=2),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000

    def test_stderr_shrinks_with_block_count(self, channel2, hard_tiny_params):
        # interior success probability, so the per-block scores vary
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


class TestSimulateOriginalMatchesOracle:
    """simulate_original plays each (energy, channel index) once and
    reuses it while the battery stays at that energy; the oracle asks the
    policy and plays its action afresh every block. On channel1 every
    block after the first that keeps the energy is a jump."""

    @pytest.mark.parametrize("seed", [3, 29])
    @pytest.mark.parametrize("channel_name", ["channel1", "channel2", "channel200"])
    @pytest.mark.parametrize("start", START_ENERGIES)
    @pytest.mark.parametrize("params_name", ["default_params", "hard_tiny_params"])
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_bit_identical_to_per_block_oracle(
        self, request, policy_name, params_name, start, channel_name, seed
    ):
        channel = request.getfixturevalue(channel_name)
        params = request.getfixturevalue(params_name)
        policy = POLICIES[policy_name](channel, params)
        config = SimulationConfig(
            blocks=3000, seed=seed, initial_energy=_start_energy(start, params)
        )
        got = simulate_original(
            policy, channel, channel, params, config, keep_trace=True
        )
        want = oracle_simulate_original(
            policy, channel, channel, params, config, keep_trace=True
        )
        assert (repr(got.mean), repr(got.stderr)) == (
            repr(want.mean), repr(want.stderr)
        )
        assert got.trace.dtype == want.trace.dtype
        assert got.trace.tobytes() == want.trace.tobytes()

    @pytest.mark.parametrize("blocks", SLICE_EDGES)
    @pytest.mark.parametrize("params_name", ["default_params", "hard_tiny_params"])
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_slice_edges_are_bit_identical_to_per_block_oracle(
        self, request, channel200, policy_name, params_name, blocks
    ):
        params = request.getfixturevalue(params_name)
        chosen = POLICIES[policy_name](channel200, params)
        states = []  # per block, as the oracle asks the policy every block

        def policy(energy, gain):
            states.append((energy, gain))
            return chosen(energy, gain)

        config = SimulationConfig(
            blocks=blocks, seed=3, initial_energy=_start_energy("third", params)
        )
        want = oracle_simulate_original(
            policy, channel200, channel200, params, config, keep_trace=True
        )
        got = simulate_original(
            chosen, channel200, channel200, params, config, keep_trace=True
        )
        assert (repr(got.mean), repr(got.stderr)) == (
            repr(want.mean), repr(want.stderr)
        )
        assert got.trace.tobytes() == want.trace.tobytes()
        # the edge cases cross the slices' edge at block SLICE: half_drain
        # moves the battery on the first block of a slice, the heuristic's
        # steady stay at the empty battery spans the edge, and on the hard
        # cell a grid_like stay with skipped blocks spans it and ends on a move
        edge = [energy for energy, _ in states[SLICE - 1 : SLICE + 2]]
        if policy_name == "half_drain" and blocks > SLICE + 1:
            assert edge[0] != edge[1] != edge[2]
        if policy_name == "heuristic" and blocks > SLICE:
            assert set(edge) == {0.0}
        hard_grid = (policy_name, params_name) == ("grid_like", "hard_tiny_params")
        if hard_grid and blocks > SLICE + 1:
            assert _stay_crosses(states, SLICE)

    @pytest.mark.parametrize("blocks", [3000, SLICE - 1, SLICE + 1, 2 * SLICE + 7])
    @pytest.mark.parametrize("start", START_ENERGIES)
    @pytest.mark.parametrize("params_name", ["default_params", "hard_tiny_params"])
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_policy_is_asked_once_per_gain_while_the_energy_stays(
        self, request, channel200, policy_name, params_name, start, blocks
    ):
        params = request.getfixturevalue(params_name)
        chosen = POLICIES[policy_name](channel200, params)
        asked = {"oracle": [], "simulator": []}

        def recorded(name):
            def policy(energy, gain):
                asked[name].append((energy, gain))
                return chosen(energy, gain)

            return policy

        config = SimulationConfig(
            blocks=blocks, seed=3, initial_energy=_start_energy(start, params)
        )
        oracle_simulate_original(
            recorded("oracle"), channel200, channel200, params, config
        )
        simulate_original(
            recorded("simulator"), channel200, channel200, params, config
        )
        # the oracle asks every block; within each stay at one energy only
        # the first block of each gain is asked for
        firsts, stay = [], set()
        for energy, gain in asked["oracle"]:
            if firsts and energy != firsts[-1][0]:
                stay.clear()
            if gain not in stay:
                stay.add(gain)
                firsts.append((energy, gain))
        assert asked["simulator"] == firsts

    def test_heuristic_long_run_from_full_is_bit_identical(
        self, channel200, default_params
    ):
        # the battery sits at 0.0 from block 1 on, so once every index has
        # been played there the walk stops and the stay lasts to the end
        policy = make_heuristic_policy(channel200, default_params)
        config = SimulationConfig(
            blocks=100_000, seed=5, initial_energy=default_params.battery_capacity
        )
        got = simulate_original(
            policy, channel200, channel200, default_params, config, keep_trace=True
        )
        want = oracle_simulate_original(
            policy, channel200, channel200, default_params, config, keep_trace=True
        )
        assert (repr(got.mean), repr(got.stderr)) == (
            repr(want.mean), repr(want.stderr)
        )
        assert got.trace.tobytes() == want.trace.tobytes()

    def test_walk_through_many_blocks_is_bit_identical(
        self, channel200, default_params
    ):
        # the battery never empties, so the walk plays and scores every
        # block, past the slices' edge at block SLICE
        policy = _half_drain(channel200, default_params)
        config = SimulationConfig(blocks=9000, seed=21)
        got = simulate_original(
            policy, channel200, channel200, default_params, config, keep_trace=True
        )
        want = oracle_simulate_original(
            policy, channel200, channel200, default_params, config, keep_trace=True
        )
        assert (repr(got.mean), repr(got.stderr)) == (
            repr(want.mean), repr(want.stderr)
        )
        assert got.trace.tobytes() == want.trace.tobytes()

    def test_steady_blocks_stay_with_their_energy(self, channel200, default_params):
        # a channel at or above the median fills this battery in one
        # block and saves (steady at the capacity), a weaker one drains it
        # (steady at 0.0): the battery switches between two energies, each
        # with its own steady channel indices
        median = float(np.median(channel200.gains))
        params = dataclasses.replace(
            default_params,
            battery_capacity=energy_after_harvest(0.0, median, 1.0, default_params),
        )
        drain = make_heuristic_policy(channel200, params)
        energies = set()

        def policy(energy, gain):
            energies.add(energy)
            return drain(energy, gain) if gain < median else (1.0, 0.0)

        config = SimulationConfig(blocks=20_000, seed=12)
        got = simulate_original(
            policy, channel200, channel200, params, config, keep_trace=True
        )
        assert energies == {0.0, params.battery_capacity}
        want = oracle_simulate_original(
            policy, channel200, channel200, params, config, keep_trace=True
        )
        assert 0.0 < got.mean < 1.0
        assert (repr(got.mean), repr(got.stderr)) == (
            repr(want.mean), repr(want.stderr)
        )
        assert got.trace.tobytes() == want.trace.tobytes()

    def test_energy_changes_after_repeats_in_a_stay(self, channel200, default_params):
        # the battery leaves a level after repeats there, so the stay's
        # skipped blocks take their carried scores before the move's own
        grid_like = _grid_like(channel200, default_params)
        states = []

        def policy(energy, gain):
            states.append((energy, gain))
            return grid_like(energy, gain)

        config = SimulationConfig(blocks=20_000, seed=4)
        want = oracle_simulate_original(
            policy, channel200, channel200, default_params, config, keep_trace=True
        )
        assert _changes_energy_after_a_repeat(states)
        assert len({energy for energy, _ in states}) > 5
        got = simulate_original(
            grid_like, channel200, channel200, default_params, config, keep_trace=True
        )
        assert 0.0 < got.mean < 1.0
        assert (repr(got.mean), repr(got.stderr)) == (
            repr(want.mean), repr(want.stderr)
        )
        assert got.trace.tobytes() == want.trace.tobytes()

    @pytest.mark.parametrize(
        "alphabet, blocks",
        [
            (lambda: quantize_equiprobable_exponential(1000), 3000),
            (_rare_first_state, 2 * SLICE + 7),
        ],
        ids=["equiprobable1000", "rare_first200"],
    )
    def test_run_ending_before_every_index_is_seen(
        self, default_params, alphabet, blocks
    ):
        # the run draws only part of the alphabet (3000 blocks of 1000
        # states, or never the 1e-7 state), so the steady stay at the empty
        # battery lasts to the end before every index is played there
        channel = alphabet()
        heuristic = make_heuristic_policy(channel, default_params)
        asked = []

        def policy(energy, gain):
            asked.append(gain)
            return heuristic(energy, gain)

        config = SimulationConfig(blocks=blocks, seed=3)
        drawn = sample_channel(channel, np.random.default_rng(config.seed), blocks)
        seen = np.unique(drawn)
        assert seen.size < channel.count
        if channel.pmf[0] < 1e-6:  # every state but the rare one is drawn
            assert seen.tolist() == list(range(1, channel.count))
        got = simulate_original(
            policy, channel, channel, default_params, config, keep_trace=True
        )
        assert len(asked) == seen.size
        want = oracle_simulate_original(
            heuristic, channel, channel, default_params, config, keep_trace=True
        )
        assert (repr(got.mean), repr(got.stderr)) == (
            repr(want.mean), repr(want.stderr)
        )
        assert got.trace.tobytes() == want.trace.tobytes()

    def test_slice_plays_new_indices_among_earlier_repeats(self, default_params):
        # a 2000-state alphabet shows some indices at the empty battery only
        # after the first slice, so a later slice plays them among repeats
        # of blocks played in the first
        channel = quantize_equiprobable_exponential(2000)
        policy = make_heuristic_policy(channel, default_params)
        config = SimulationConfig(blocks=2 * SLICE + 7, seed=3)
        drawn = sample_channel(channel, np.random.default_rng(3), config.blocks)
        _, first_block = np.unique(drawn, return_index=True)
        assert np.count_nonzero(first_block >= SLICE) > 10
        got = simulate_original(
            policy, channel, channel, default_params, config, keep_trace=True
        )
        want = oracle_simulate_original(
            policy, channel, channel, default_params, config, keep_trace=True
        )
        assert (repr(got.mean), repr(got.stderr)) == (
            repr(want.mean), repr(want.stderr)
        )
        assert got.trace.tobytes() == want.trace.tobytes()

    @pytest.mark.parametrize("blocks", [1, 2, 17, *SLICE_EDGES])
    @pytest.mark.parametrize("channel_name", ["channel1", "channel2", "channel200"])
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_short_runs_are_bit_identical(
        self, request, default_params, policy_name, channel_name, blocks
    ):
        channel = request.getfixturevalue(channel_name)
        policy = POLICIES[policy_name](channel, default_params)
        config = SimulationConfig(
            blocks=blocks, seed=6, initial_energy=default_params.battery_capacity
        )
        got = simulate_original(
            policy, channel, channel, default_params, config, keep_trace=True
        )
        want = oracle_simulate_original(
            policy, channel, channel, default_params, config, keep_trace=True
        )
        assert (repr(got.mean), repr(got.stderr)) == (
            repr(want.mean), repr(want.stderr)
        )
        assert got.trace.tobytes() == want.trace.tobytes()

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_untraced_run_agrees_with_the_trace(
        self, channel200, default_params, policy_name
    ):
        policy = POLICIES[policy_name](channel200, default_params)
        config = SimulationConfig(blocks=5000, seed=10)
        traced = simulate_original(
            policy, channel200, channel200, default_params, config, keep_trace=True
        )
        got = simulate_original(policy, channel200, channel200, default_params, config)
        want = oracle_simulate_original(
            policy, channel200, channel200, default_params, config
        )
        assert got.trace is None
        # the trace's values tallied and summed as the run sums them
        values, tally = np.unique(traced.trace, return_counts=True)
        assert got.mean == math.fsum(tally * values) / config.blocks
        assert (repr(got.mean), repr(got.stderr)) == (
            repr(want.mean), repr(want.stderr)
        )
        assert (repr(got.mean), repr(got.stderr)) == (
            repr(traced.mean), repr(traced.stderr)
        )

    @pytest.mark.parametrize(
        "make_channel, make_policy, blocks, kinds_played",
        [
            (
                lambda: FiniteChannel([0.5, 1.0], [0.5, 0.5]),
                _transmit_the_threshold,
                2000,
                {"exact"},
            ),
            (
                functools.partial(quantize_equiprobable_exponential, 200),
                _transmit_delivery_entries,
                20_000,
                {"exact", "below", "above"},
            ),
        ],
        ids=["two_gains", "channel200_delivery_table"],
    )
    def test_delivery_exactly_at_the_threshold_succeeds(
        self, default_params, make_channel, make_policy, blocks, kinds_played
    ):
        channel = make_channel()
        chosen = make_policy(channel, default_params)
        entries = _delivery_table(channel, default_params.delivery_threshold)
        near = {
            "exact": entries,
            "below": np.nextafter(entries, 0.0),
            "above": np.nextafter(entries, np.inf),
        }
        kinds = set()

        def policy(energy, gain):
            ps_ratio, transmit_energy = chosen(energy, gain)
            kinds.update(
                kind for kind, values in near.items() if transmit_energy in values
            )
            return ps_ratio, transmit_energy

        config = SimulationConfig(blocks=blocks, seed=8)
        got = simulate_original(
            policy, channel, channel, default_params, config, keep_trace=True
        )
        want = oracle_simulate_original(
            policy, channel, channel, default_params, config, keep_trace=True
        )
        assert kinds_played <= kinds
        assert 0.0 < got.mean < 1.0
        assert (repr(got.mean), repr(got.stderr)) == (
            repr(want.mean), repr(want.stderr)
        )
        assert got.trace.tobytes() == want.trace.tobytes()

    def test_rejection_names_the_first_block_of_its_channel_index(
        self, channel200, default_params
    ):
        config = SimulationConfig(blocks=2000, seed=17)
        drawn = sample_channel(
            channel200, np.random.default_rng(config.seed), config.blocks
        )
        _, first_block = np.unique(drawn, return_index=True)
        m = int(first_block.max())  # the last channel index to show up
        assert m > 0
        rejected = float(channel200.gains[drawn[m]])
        heuristic = make_heuristic_policy(channel200, default_params)

        def policy(energy, gain):
            return (0.5, 1e9) if gain == rejected else heuristic(energy, gain)

        with pytest.raises(InfeasibleActionError) as got:
            simulate_original(policy, channel200, channel200, default_params, config)
        with pytest.raises(InfeasibleActionError) as want:
            oracle_simulate_original(
                policy, channel200, channel200, default_params, config
            )
        assert str(got.value).startswith(f"block {m}: ")
        assert str(got.value) == str(want.value)

    def test_heuristic_is_asked_at_most_twice_per_channel_state(
        self, channel200, default_params
    ):
        heuristic = make_heuristic_policy(channel200, default_params)
        calls = 0

        def counted(energy, gain):
            nonlocal calls
            calls += 1
            return heuristic(energy, gain)

        # one energy for block 0 (a full battery), 0.0 for every block after
        config = SimulationConfig(
            blocks=100_000, seed=5, initial_energy=default_params.battery_capacity
        )
        simulate_original(counted, channel200, channel200, default_params, config)
        assert calls <= 2 * channel200.count


class TestHeuristicRegeneration:
    @pytest.mark.parametrize(
        "params_name, overrides",
        [
            ("default_params", {}),
            ("default_params", {"battery_capacity": 2.0}),
            ("default_params", {"source_power": 0.5, "battery_capacity": 16.0}),
            ("hard_tiny_params", {}),
        ],
    )
    @pytest.mark.parametrize("start", START_ENERGIES)
    def test_every_residual_is_exactly_empty(
        self, request, channel200, params_name, overrides, start
    ):
        """The draining heuristic leaves exactly 0.0 uJ in the battery.

        Checked for every channel state at the start energy and at 0.0, so
        by induction every residual after block 0 is exactly 0.0 on every
        sample path. From block 1 on each block starts in (0.0, h) with a
        fresh h, so the blocks' outcomes are i.i.d.: the chain regenerates
        every block, and the i.i.d. stderr that simulate_original reports
        is a valid error bar for this policy.
        """
        params = dataclasses.replace(request.getfixturevalue(params_name), **overrides)
        policy = make_heuristic_policy(channel200, params)
        for energy in (_start_energy(start, params), 0.0):
            for gain in channel200.gains.tolist():
                ps_ratio, transmit_energy = policy(energy, gain)
                _, residual = apply_action(
                    energy, gain, ps_ratio, transmit_energy, params
                )
                assert residual == 0.0


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
        rule = np.zeros(model.n_states, np.intp)
        sim = simulate_discrete(model, rule, SimulationConfig(blocks=5000, seed=8))
        assert sim.mean == 0.0

    def test_single_state_chain_exact_reward(self, hand_model):
        # one channel state, equal rewards: the average IS the reward
        # (0.375 is dyadic, so the accumulation is exact)
        layout = [[(0.375, 1)], [(0.375, 1)]]
        model = hand_model([1.0], 2, layout)
        rule = np.ones(2, dtype=int)
        sim = simulate_discrete(model, rule, SimulationConfig(blocks=1000, seed=3))
        assert sim.mean == 0.375

    def test_single_state_alphabet_matches_gain(self, default_params):
        single = FiniteChannel([1.0], [1.0])
        model = build_mdp(single, single, default_params, 2)
        rule = np.zeros(model.n_states, np.intp)
        gain, _ = _evaluate(model, rule)
        sim = simulate_discrete(model, rule, SimulationConfig(blocks=1000, seed=3))
        # one channel state: after the first block the chain is constant
        assert abs(sim.mean - gain) <= 1.0 / 1000 + 1e-12

    def test_same_seed_is_bit_identical(self, channel2, hard_tiny_params):
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        rule = np.zeros(model.n_states, np.intp)
        config = SimulationConfig(blocks=3000, seed=21)
        a = simulate_discrete(model, rule, config, keep_trace=True)
        b = simulate_discrete(model, rule, config, keep_trace=True)
        assert a.mean == b.mean and np.array_equal(a.trace, b.trace)


class TestSimulateDiscreteMatchesOracle:
    """simulate_discrete walks Python lists of the reward and post-level
    tables; the oracle indexes the numpy tables block by block."""

    @pytest.mark.parametrize("seed", [3, 29])
    @pytest.mark.parametrize("start", START_ENERGIES)
    @pytest.mark.parametrize(
        "channel_name, params_name, capacity, n_levels",
        [
            ("channel2", "hard_tiny_params", None, 3),
            ("channel200", "default_params", None, 9),
            ("channel200", "default_params", 16.0, 33),
        ],
    )
    @pytest.mark.parametrize("rule_name", ["initial", "optimal"])
    def test_bit_identical_to_table_oracle(
        self, request, channel_name, params_name, capacity, n_levels, rule_name,
        start, seed,
    ):
        channel = request.getfixturevalue(channel_name)
        params = request.getfixturevalue(params_name)
        if capacity is not None:
            params = dataclasses.replace(params, battery_capacity=capacity)
        model = build_mdp(channel, channel, params, n_levels)
        if rule_name == "optimal":
            rule = policy_iteration(model).rule
        else:
            rule = np.zeros(model.n_states, np.intp)
        config = SimulationConfig(
            blocks=20_000, seed=seed, initial_energy=_start_energy(start, params)
        )
        got = simulate_discrete(model, rule, config, keep_trace=True)
        want = oracle_simulate_discrete(model, rule, config, keep_trace=True)
        assert got.mean.hex() == float(want.mean).hex()
        assert got.stderr.hex() == float(want.stderr).hex()
        assert got.trace.tobytes() == want.trace.tobytes()

    def test_means_are_python_floats(self, channel2, hard_tiny_params):
        config = SimulationConfig(blocks=500, seed=4)
        model = build_mdp(channel2, channel2, hard_tiny_params, 3)
        discrete = simulate_discrete(model, np.zeros(model.n_states, np.intp), config)
        original = simulate_original(
            make_heuristic_policy(channel2, hard_tiny_params),
            channel2, channel2, hard_tiny_params, config,
        )
        for result in (discrete, original):
            assert type(result.mean) is float
            assert type(result.stderr) is float
            assert not repr(result.mean).startswith("np.")


class TestResultSerialization:
    def test_csv_row_schema(self):
        result = SimulationResult(mean=0.25, stderr=0.001, blocks=100, seed=7)
        assert RESULT_CSV_HEADER == "seed,M,mean,stderr"
        assert result.csv_row() == "7,100,0.25,0.001"
