import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swipt_relay import (
    InfeasibleActionError,
    SystemParams,
    apply_action,
    channel_from_table,
    energy_after_harvest,
    heuristic_average_success,
    heuristic_rule,
    max_ps_ratio,
    quantize_equiprobable_exponential,
)
from swipt_relay.relay import _split_table
from oracles import (
    can_succeed,
    delivery_success_prob,
    oracle_heuristic_average_success,
    oracle_heuristic_rule,
    success_prob,
)

# All-fail scenario: noise so large that no gain in a unit-mean alphabet
# reaches the decoding threshold.
DEAF_PARAMS = SystemParams(
    source_power=1.0,
    noise_power=10.0,
    block_duration=1.0,
    conversion_efficiency=0.5,
    rate=1.5,
    battery_capacity=10.0,
)


def two_point_channel():
    return channel_from_table([0.5, 1.5], [0.5, 0.5])


class TestSystemParams:
    def test_threshold_snr_from_rate(self, default_params):
        assert default_params.threshold_snr == 7.0
        assert SystemParams(1, 1, 1, 0.5, 1.0, 1).threshold_snr == 3.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("source_power", 0.0),
            ("noise_power", -1.0),
            ("block_duration", 0.0),
            ("conversion_efficiency", 0.0),
            ("conversion_efficiency", 1.0),
            ("rate", 0.0),
            ("battery_capacity", float("inf")),
            ("battery_capacity", 0.0),
        ],
    )
    def test_rejects_bad_fields(self, field, value):
        kwargs = dict(
            source_power=1.0,
            noise_power=0.001,
            block_duration=1.0,
            conversion_efficiency=0.5,
            rate=1.5,
            battery_capacity=10.0,
        )
        kwargs[field] = value
        with pytest.raises(ValueError):
            SystemParams(**kwargs)

    def test_rejects_rate_whose_threshold_overflows(self):
        # 4**600 is beyond the largest double
        with pytest.raises(ValueError, match="rate 600 .* overflow"):
            SystemParams(1.0, 0.001, 1.0, 0.5, 600.0, 10.0)
        # 4**511 is representable, but not once scaled by T * noise_power
        with pytest.raises(ValueError, match="rate 511 .* overflow"):
            SystemParams(1.0, 1e4, 1.0, 0.5, 511.0, 10.0)

    def test_rejects_rate_whose_threshold_vanishes(self):
        # 4**1e-17 rounds to 1, so 4**rate - 1 is 0
        with pytest.raises(ValueError, match="rate 1e-17 .* vanish"):
            SystemParams(1.0, 0.001, 1.0, 0.5, 1e-17, 10.0)
        # 4**1.5 - 1 is 7, but T * noise_power underflows to 0
        with pytest.raises(ValueError, match="rate 1.5 .* vanish"):
            SystemParams(1.0, 5e-324, 0.1, 0.5, 1.5, 10.0)

    def test_rejects_overflowing_received_power(self):
        params = SystemParams(1e308, 0.001, 1.0, 0.5, 1.5, 10.0)
        assert max_ps_ratio(1.0, params) is not None
        with pytest.raises(ValueError, match="received power .* overflows"):
            max_ps_ratio(2.0, params)


class TestSnrs:
    """The two decode decisions through the SNR each compares with the
    threshold: the relay's by max_ps_ratio, the destination's in product
    form by delivery_success_prob."""

    def test_full_split_kills_relay_snr(self, default_params):
        # full battery, strong gain, delivery certain: ratio 1 still fails
        capacity = default_params.battery_capacity
        assert (
            success_prob(capacity, 50.0, 1.0, capacity, two_point_channel(), default_params)
            == 0.0
        )

    def test_relay_snr_substitution(self, default_params):
        # (1 - lam) h Ps / ((2 - lam) sigma^2) meets the threshold at the cap
        for h in (0.015, 0.1, 1.0, 50.0):
            lam = max_ps_ratio(h, default_params)
            snr = (1.0 - lam) * h * default_params.source_power / (
                (2.0 - lam) * default_params.noise_power
            )
            assert snr == pytest.approx(default_params.threshold_snr, rel=1e-12)

    def test_destination_snr_inverts_at_threshold(self, default_params):
        # u g = T sigma^2 g_t exactly (a power-of-two gain keeps u exact)
        channel = channel_from_table([0.5, 4.0], [0.5, 0.5])
        u = default_params.delivery_threshold / 4.0
        assert delivery_success_prob(u, channel, default_params) == 0.5
        below = float(np.nextafter(u, 0.0))
        assert delivery_success_prob(below, channel, default_params) == 0.0


class TestMaxPsRatio:
    def test_boundary_gain_gives_zero(self, default_params):
        h = (
            2.0
            * default_params.noise_power
            * default_params.threshold_snr
            / default_params.source_power
        )
        assert max_ps_ratio(h, default_params) == 0.0

    def test_three_halves_boundary_gives_half(self, default_params):
        h = (
            3.0
            * default_params.noise_power
            * default_params.threshold_snr
            / default_params.source_power
        )
        assert max_ps_ratio(h, default_params) == pytest.approx(0.5)

    def test_below_boundary_is_absent(self, default_params):
        h = (
            1.99
            * default_params.noise_power
            * default_params.threshold_snr
            / default_params.source_power
        )
        assert max_ps_ratio(h, default_params) is None

    def test_always_below_one(self, default_params):
        for h in (0.02, 0.1, 1.0, 50.0):
            cap = max_ps_ratio(h, default_params)
            if cap is not None:
                assert 0.0 <= cap < 1.0


class TestBatteryEvolution:
    def test_no_split_no_harvest(self, default_params):
        assert energy_after_harvest(3.0, 2.0, 0.0, default_params) == 3.0

    def test_harvest_substitution(self):
        params = SystemParams(2.0, 1.0, 1.0, 0.5, 1.5, 10.0)
        assert energy_after_harvest(0.0, 1.0, 1.0, params) == pytest.approx(0.5)

    def test_full_battery_saturates(self, default_params):
        cap = default_params.battery_capacity
        assert energy_after_harvest(cap, 5.0, 1.0, default_params) == cap

    def test_harvest_domain_errors(self, default_params):
        with pytest.raises(ValueError):
            energy_after_harvest(-0.1, 1.0, 0.5, default_params)
        with pytest.raises(ValueError):
            energy_after_harvest(11.0, 1.0, 0.5, default_params)
        with pytest.raises(ValueError):
            energy_after_harvest(1.0, -1.0, 0.5, default_params)
        with pytest.raises(ValueError):
            energy_after_harvest(1.0, 1.0, 1.5, default_params)

    def test_overspend_is_infeasible(self, default_params):
        half = energy_after_harvest(1.0, 2.0, 1.0, default_params)
        with pytest.raises(InfeasibleActionError):
            success_prob(1.0, 2.0, 1.0, half * 1.01, two_point_channel(), default_params)


class TestDeliverySuccess:
    def test_zero_energy_never_delivers(self, default_params):
        assert delivery_success_prob(0.0, two_point_channel(), default_params) == 0.0

    def test_enough_energy_always_delivers(self, default_params):
        # threshold T sigma^2 gamma / u below the smallest gain
        u = default_params.delivery_threshold / 0.5
        assert delivery_success_prob(u, two_point_channel(), default_params) == 1.0

    def test_two_point_brute_force(self, default_params):
        channel = two_point_channel()
        need = default_params.delivery_threshold
        for u in np.linspace(need / 3.0, need / 0.2, 37):
            threshold = need / u
            expected = sum(
                p for g, p in zip(channel.gains, channel.pmf) if g >= threshold
            )
            got = delivery_success_prob(float(u), channel, default_params)
            assert got == pytest.approx(expected, abs=1e-15)

    def test_mid_threshold_hits_half(self, default_params):
        # threshold strictly between the two gains leaves only the upper one
        u = default_params.delivery_threshold / 1.0
        assert delivery_success_prob(u, two_point_channel(), default_params) == 0.5

    def test_rejects_negative_energy(self, default_params):
        with pytest.raises(ValueError):
            delivery_success_prob(-1.0, two_point_channel(), default_params)


class TestReward:
    def test_overcap_split_yields_zero(self, default_params):
        capacity = default_params.battery_capacity
        cap = max_ps_ratio(1.0, default_params)
        ratio = min(cap * 1.5, 1.0)
        assert (
            success_prob(capacity, 1.0, ratio, 0.1, two_point_channel(), default_params)
            == 0.0
        )

    def test_undecodable_gain_yields_zero_for_all_feasible(self, default_params):
        h = default_params.noise_power * default_params.threshold_snr  # below 2x
        for ratio in (0.0, 0.3, 1.0):
            half = energy_after_harvest(5.0, h, ratio, default_params)
            for u in (0.0, half / 2, half):
                assert (
                    success_prob(5.0, h, ratio, u, two_point_channel(), default_params)
                    == 0.0
                )

    def test_max_split_big_energy_wins_surely(self, default_params):
        capacity = default_params.battery_capacity
        cap = max_ps_ratio(1.0, default_params)
        # threshold below min gain
        assert (
            success_prob(capacity, 1.0, cap, capacity, two_point_channel(), default_params)
            == 1.0
        )

    def test_infeasible_action_raises(self, default_params):
        with pytest.raises(InfeasibleActionError):
            success_prob(0.0, 1.0, 0.0, 5.0, two_point_channel(), default_params)

    @pytest.mark.parametrize(
        "energy, gain, ratio, spend, message",
        [
            (-0.1, 1.0, 0.5, 0.0, "energy must lie in"),
            (10.5, 1.0, 0.5, 0.0, "energy must lie in"),
            (float("nan"), 1.0, 0.5, 0.0, "energy must lie in"),
            (1.0, -1.0, 0.5, 0.0, "gain must be non-negative"),
            (1.0, float("nan"), 0.5, 0.0, "gain must be non-negative"),
            (1.0, 1.0, -0.1, 0.0, "ps_ratio must lie in"),
            (1.0, 1.0, 1.5, 0.0, "ps_ratio must lie in"),
            (1.0, 1.0, 0.5, -1.0, "transmit_energy must be non-negative"),
            (1.0, 1.0, 0.5, float("nan"), "transmit_energy must be non-negative"),
        ],
    )
    def test_rejects_bad_block(self, default_params, energy, gain, ratio, spend, message):
        # every check on the numbers that describe a block
        with pytest.raises(ValueError, match=message):
            success_prob(energy, gain, ratio, spend, two_point_channel(), default_params)
        with pytest.raises(ValueError, match=message):
            apply_action(energy, gain, ratio, spend, default_params)

    def test_apply_action_decides_decoding_and_residual(self, default_params):
        cap = max_ps_ratio(1.0, default_params)
        half = energy_after_harvest(2.0, 1.0, cap, default_params)
        assert apply_action(2.0, 1.0, cap, 0.25 * half, default_params) == (
            True,
            half - 0.25 * half,
        )
        above = float(np.nextafter(cap, 1.0))
        decodes, _ = apply_action(2.0, 1.0, above, 0.0, default_params)
        assert decodes is False
        # no split decodes at this gain, and ratio 0 harvests nothing
        assert apply_action(2.0, 1e-6, 0.0, 0.0, default_params) == (False, 2.0)


class TestClassification:
    def test_undecodable_gain_always_fails(self, default_params):
        h = (
            1.9
            * default_params.noise_power
            * default_params.threshold_snr
            / default_params.source_power
        )
        capacity = default_params.battery_capacity
        assert can_succeed(capacity, h, two_point_channel(), default_params) is False

    def test_charged_strong_state_can_succeed(self, default_params):
        capacity = default_params.battery_capacity
        assert can_succeed(capacity, 5.0, two_point_channel(), default_params) is True

    def test_can_succeed_has_positive_reward_witness(self, default_params, channel2):
        for h in np.linspace(0.01, 3.0, 40):
            for energy in np.linspace(0.0, default_params.battery_capacity, 7):
                energy, h = float(energy), float(h)
                if not can_succeed(energy, h, channel2, default_params):
                    continue
                cap = max_ps_ratio(h, default_params)
                drain = energy_after_harvest(energy, h, cap, default_params)
                assert success_prob(energy, h, cap, drain, channel2, default_params) > 0.0

    def test_classification_matches_best_candidate_reward(self, default_params, channel2):
        # can_succeed iff one drain candidate (full harvest, max split) pays
        for h in np.linspace(0.005, 2.5, 60):
            for energy in np.linspace(0.0, default_params.battery_capacity, 9):
                energy, h = float(energy), float(h)
                candidates = [1.0]
                cap = max_ps_ratio(h, default_params)
                if cap is not None:
                    candidates.append(cap)
                best = max(
                    success_prob(
                        energy,
                        h,
                        r,
                        energy_after_harvest(energy, h, r, default_params),
                        channel2,
                        default_params,
                    )
                    for r in candidates
                )
                expected = best > 0.0
                assert can_succeed(energy, h, channel2, default_params) is expected


class TestHeuristic:
    def test_rule_always_drains(self, default_params, channel2):
        for h in (0.001, 0.1, 0.5, 2.0):
            for energy in (0.0, 3.3, 10.0):
                ratio, spend = heuristic_rule(energy, h, channel2, default_params)
                half = energy_after_harvest(energy, h, ratio, default_params)
                assert half - spend == 0.0

    def test_rule_harvests_fully_when_hopeless(self, default_params, channel2):
        h = 0.001  # cannot decode
        ratio, _ = heuristic_rule(2.0, h, channel2, default_params)
        assert ratio == 1.0

    def test_rule_uses_max_split_otherwise(self, default_params, channel2):
        h = 1.0
        ratio, _ = heuristic_rule(2.0, h, channel2, default_params)
        received = h * default_params.source_power
        margin = default_params.noise_power * default_params.threshold_snr
        assert ratio == pytest.approx(
            (received - 2.0 * margin) / (received - margin)
        )

    @given(
        frac=st.floats(0.0, 1.0),
        gain=st.floats(0.0, 50.0, allow_subnormal=False),
        g_max=st.floats(0.001, 20.0),
        # source power, noise power and battery capacity
        physics=st.tuples(
            st.floats(0.05, 5.0), st.floats(1e-20, 0.5), st.floats(0.01, 20.0)
        ),
    )
    # deaf: no ratio decodes
    @example(frac=0.5, gain=1e-3, g_max=1.0, physics=(1.0, 1e-3, 10.0))
    # the largest decodable ratio rounds to 1
    @example(frac=0.5, gain=1.0, g_max=1.0, physics=(1.0, 1e-20, 10.0))
    # the split's mid-block level is clamped at the capacity
    @example(frac=1.0, gain=5.0, g_max=1.0, physics=(1.0, 1e-3, 0.05))
    # the split decodes but cannot reach the destination
    @example(frac=0.0, gain=1.0, g_max=0.01, physics=(1.0, 1e-3, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_rule_matches_the_can_succeed_reference(self, frac, gain, g_max, physics):
        source_power, noise_power, capacity = physics
        params = SystemParams(source_power, noise_power, 1.0, 0.5, 1.5, capacity)
        g_channel = channel_from_table([0.5 * g_max, g_max], [0.5, 0.5])
        energy = frac * capacity
        got = heuristic_rule(energy, gain, g_channel, params)
        assert got == oracle_heuristic_rule(energy, gain, g_channel, params)
        assert [type(value) for value in got] == [float, float]

    def test_all_fail_average_is_zero(self, channel2):
        assert heuristic_average_success(channel2, channel2, DEAF_PARAMS) == 0.0

    def test_degenerate_single_state_average(self, default_params):
        single = channel_from_table([1.0], [1.0])
        ratio, spend = heuristic_rule(0.0, 1.0, single, default_params)
        expected = success_prob(0.0, 1.0, ratio, spend, single, default_params)
        assert heuristic_average_success(single, single, default_params) == expected

    def test_average_within_unit_interval(self, channel200, default_params):
        value = heuristic_average_success(channel200, channel200, default_params)
        assert 0.0 <= value <= 1.0


# Subnormal gains trip spurious one-ulp monotonicity violations; the
# physical invariants are stated over normal floats.
ratios = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_subnormal=False)
gains = st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_subnormal=False)
energies = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_subnormal=False)


class TestProperties:
    @given(energy=energies, gain=gains, lo=ratios, hi=ratios, frac=ratios)
    @settings(max_examples=200, deadline=None)
    def test_relay_snr_non_increasing_in_split(
        self, default_params, energy, gain, lo, hi, frac
    ):
        # a smaller split never decodes worse at the same transmit energy
        lo, hi = sorted((lo, hi))
        u = frac * energy_after_harvest(energy, gain, lo, default_params)
        channel = two_point_channel()
        assert success_prob(
            energy, gain, lo, u, channel, default_params
        ) >= success_prob(energy, gain, hi, u, channel, default_params)

    @given(
        u_lo=st.floats(min_value=0.0, max_value=5.0),
        u_hi=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_delivery_prob_non_decreasing_in_energy(self, default_params, u_lo, u_hi):
        u_lo, u_hi = sorted((u_lo, u_hi))
        channel = two_point_channel()
        assert delivery_success_prob(
            u_lo, channel, default_params
        ) <= delivery_success_prob(u_hi, channel, default_params)

    @given(energy=energies, gain=gains, ratio=ratios)
    @settings(max_examples=200, deadline=None)
    def test_harvest_bounded_by_state_and_capacity(
        self, default_params, energy, gain, ratio
    ):
        half = energy_after_harvest(energy, gain, ratio, default_params)
        assert energy <= half <= default_params.battery_capacity

    @given(energy=energies, gain=gains, ratio=ratios, frac=ratios)
    @settings(max_examples=200, deadline=None)
    def test_reward_and_residual_bounds(self, default_params, energy, gain, ratio, frac):
        half = energy_after_harvest(energy, gain, ratio, default_params)
        spend = frac * half
        channel = two_point_channel()
        reward = success_prob(energy, gain, ratio, spend, channel, default_params)
        residual = half - spend
        assert 0.0 <= reward <= 1.0
        assert 0.0 <= residual <= default_params.battery_capacity

    @given(energy=energies, gain=gains, u_frac=ratios)
    @settings(max_examples=150, deadline=None)
    def test_reward_non_decreasing_in_energy_at_fixed_split(
        self, default_params, energy, gain, u_frac
    ):
        cap = max_ps_ratio(gain, default_params)
        if cap is None:
            return
        half = energy_after_harvest(energy, gain, cap, default_params)
        channel = two_point_channel()
        low = success_prob(
            energy, gain, cap, 0.5 * u_frac * half, channel, default_params
        )
        high = success_prob(energy, gain, cap, u_frac * half, channel, default_params)
        assert high >= low


def _boundary_channel(params, gain):
    """Relay-destination alphabet whose middle gain is the smallest double
    that delivers the heuristic's drain energy at source-relay gain `gain`,
    flanked by the double below it and a larger gain."""
    _, spend = heuristic_rule(0.0, gain, two_point_channel(), params)
    threshold = params.delivery_threshold
    g = threshold / spend
    while g * spend < threshold:
        g = np.nextafter(g, np.inf)
    while np.nextafter(g, 0.0) * spend >= threshold:
        g = np.nextafter(g, 0.0)
    below = np.nextafter(g, 0.0)
    assert below * spend < threshold <= g * spend
    return channel_from_table([below, g, 2.0 * g], [0.25, 0.5, 0.25])


class TestHeuristicClosedForm:
    """The vector closed form equals the scalar running total bit for bit."""

    @pytest.mark.parametrize(
        "h_channel, g_channel, params",
        [
            (two_point_channel(), two_point_channel(), DEAF_PARAMS),
            (
                channel_from_table([1.0], [1.0]),
                channel_from_table([1.0], [1.0]),
                SystemParams(1.0, 0.001, 1.0, 0.5, 1.5, 10.0),
            ),
            # the largest decodable ratio rounds to 1 at every gain
            (
                quantize_equiprobable_exponential(7),
                quantize_equiprobable_exponential(5),
                SystemParams(1.0, 1e-20, 1.0, 0.5, 1.5, 10.0),
            ),
            # drain energy times a relay-destination gain at the threshold
            (
                channel_from_table([0.3, 1.0], [0.5, 0.5]),
                _boundary_channel(SystemParams(1.0, 0.001, 1.0, 0.5, 1.5, 10.0), 1.0),
                SystemParams(1.0, 0.001, 1.0, 0.5, 1.5, 10.0),
            ),
            # a drain energy clamped at the capacity
            (
                quantize_equiprobable_exponential(200),
                quantize_equiprobable_exponential(200),
                SystemParams(1.0, 0.001, 1.0, 0.5, 1.5, 0.05),
            ),
        ],
        ids=["deaf", "single_state", "cap_rounds_to_one", "at_threshold", "clamped"],
    )
    def test_edge_cases_match_scalar_loop(self, h_channel, g_channel, params):
        got = heuristic_average_success(h_channel, g_channel, params)
        assert got == oracle_heuristic_average_success(h_channel, g_channel, params)
        assert isinstance(got, float)

    def test_cap_rounds_to_one_in_the_case_above(self):
        params = SystemParams(1.0, 1e-20, 1.0, 0.5, 1.5, 10.0)
        gains = quantize_equiprobable_exponential(7).gains
        assert all(max_ps_ratio(float(h), params) == 1.0 for h in gains)

    @given(
        h_weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
        h_scale=st.floats(0.01, 20.0),
        g_weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
        g_scale=st.floats(0.01, 20.0),
        source_power=st.floats(0.05, 5.0),
        noise_power=st.floats(1e-4, 0.5),
        block_duration=st.floats(0.1, 5.0),
        efficiency=st.floats(0.05, 0.95),
        rate=st.floats(0.1, 3.0),
        capacity=st.floats(0.01, 20.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_loop(
        self,
        h_weights,
        h_scale,
        g_weights,
        g_scale,
        source_power,
        noise_power,
        block_duration,
        efficiency,
        rate,
        capacity,
    ):
        def table(weights, scale):
            # ascending gains from the running sum of the weights
            gains = scale * np.cumsum(weights)
            return channel_from_table(gains, np.asarray(weights) / sum(weights))

        h_channel, g_channel = table(h_weights, h_scale), table(g_weights, g_scale)
        params = SystemParams(
            source_power, noise_power, block_duration, efficiency, rate, capacity
        )
        assert heuristic_average_success(
            h_channel, g_channel, params
        ) == oracle_heuristic_average_success(h_channel, g_channel, params)


_SPLIT_DEFAULTS = dict(
    source_power=1.0,
    noise_power=1e-3,
    block_duration=1.0,
    efficiency=0.5,
    rate=1.5,
    capacity=10.0,
    n_levels=5,
)


class TestSplitTable:
    """The vector mid-block levels equal the scalar physics bit for bit."""

    @given(
        gains=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8, unique=True).map(
            sorted
        ),
        source_power=st.floats(1e-3, 1e2),
        noise_power=st.floats(1e-6, 1.0),
        block_duration=st.floats(1e-2, 1e2),
        efficiency=st.floats(0.05, 0.95),
        rate=st.floats(0.1, 3.0),
        capacity=st.floats(1e-3, 1e2),
        n_levels=st.integers(2, 9),
    )
    # a zero gain, which no ratio decodes
    @example(gains=[0.0, 0.5, 2.0], **_SPLIT_DEFAULTS)
    # the largest decodable ratio rounds to 1 at the top gain only
    @example(
        gains=[0.5, 2.0, 5.0],
        **{
            **_SPLIT_DEFAULTS,
            "source_power": 4.0,
            "noise_power": 1e-16,
            "capacity": 2e-15,
        },
    )
    # every level above empty clamps at the capacity
    @example(gains=[0.5, 2.0, 5.0], **{**_SPLIT_DEFAULTS, "capacity": 1e308})
    # the harvest overflows to inf
    @example(
        gains=[0.5, 2.0, 5.0],
        **{
            **_SPLIT_DEFAULTS,
            "source_power": 100.0,
            "noise_power": 1e-300,
            "block_duration": 1e308,
        },
    )
    # at gain 0.3 the relay decodes, but draining its empty battery reaches
    # the delivery threshold through no gain of the alphabet
    @example(
        gains=[0.3, 1.0, 5.0],
        **{**_SPLIT_DEFAULTS, "source_power": 0.05, "capacity": 0.02},
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_physics(
        self,
        gains,
        source_power,
        noise_power,
        block_duration,
        efficiency,
        rate,
        capacity,
        n_levels,
    ):
        channel = channel_from_table(gains, np.full(len(gains), 1.0 / len(gains)))
        params = SystemParams(
            source_power, noise_power, block_duration, efficiency, rate, capacity
        )
        energies = np.linspace(0.0, capacity, n_levels)
        full, decoding = _split_table(energies, channel, params)
        assert full.shape == decoding.shape == (n_levels, len(gains))
        for j, energy in enumerate(energies.tolist()):
            for i, gain in enumerate(channel.gains.tolist()):
                assert full[j, i] == energy_after_harvest(energy, gain, 1.0, params)
                ratio = max_ps_ratio(gain, params)
                if ratio is None:
                    assert decoding[j, i] == -np.inf
                else:
                    expected = energy_after_harvest(energy, gain, ratio, params)
                    assert decoding[j, i] == expected
