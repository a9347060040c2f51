import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from swipt_relay import FiniteChannel, quantize_equiprobable_exponential


def bin_edges(n: int) -> np.ndarray:
    """Quantile edges of the unit-mean exponential, t_i = -ln(1 - i/n)."""
    return -np.log1p(-np.arange(n) / n)


def conditional_means_by_quadrature(n: int) -> np.ndarray:
    """Independent oracle: numerically integrate x e^-x over each bin and
    divide by the bin mass 1/n."""
    edges = bin_edges(n)
    means = np.empty(n)
    for i in range(n):
        lo = edges[i]
        hi = edges[i + 1] if i + 1 < n else np.inf
        mass, _ = quad(lambda x: math.exp(-x), lo, hi)
        moment, _ = quad(lambda x: x * math.exp(-x), lo, hi)
        means[i] = moment / mass
    return means


class TestQuantizer:
    def test_single_bin_is_distribution_mean(self):
        ch = quantize_equiprobable_exponential(1)
        assert ch.gains.tolist() == [1.0]
        assert ch.pmf.tolist() == [1.0]

    def test_two_bins_closed_form(self):
        ch = quantize_equiprobable_exponential(2)
        assert ch.gains == pytest.approx(
            [1.0 - math.log(2.0), 1.0 + math.log(2.0)], abs=1e-14
        )
        assert ch.pmf.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("n", [2, 3, 7, 25])
    def test_gains_match_quadrature_oracle(self, n):
        ch = quantize_equiprobable_exponential(n)
        assert ch.gains == pytest.approx(conditional_means_by_quadrature(n), rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 10, 200])
    def test_unit_mean_preserved(self, n):
        ch = quantize_equiprobable_exponential(n)
        assert abs(ch.gains @ ch.pmf - 1.0) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 10, 200])
    def test_pmf_exactly_equiprobable(self, n):
        ch = quantize_equiprobable_exponential(n)
        assert np.max(np.abs(ch.pmf - 1.0 / n)) <= 1e-12

    def test_gains_sit_inside_their_bins(self):
        n = 50
        ch = quantize_equiprobable_exponential(n)
        edges = bin_edges(n)
        assert np.all(ch.gains[:-1] > edges[:-1])
        assert np.all(ch.gains[:-1] < edges[1:])
        assert ch.gains[-1] > edges[-1]

    @pytest.mark.parametrize("bad", [0, -3, 2.7, math.nan, math.inf])
    def test_rejects_non_positive_counts(self, bad):
        # a non-integral count is rejected too, not truncated
        with pytest.raises(ValueError, match="positive integer"):
            quantize_equiprobable_exponential(bad)

    def test_accepts_an_integral_float_count(self):
        assert quantize_equiprobable_exponential(2.0).count == 2

    @given(st.integers(min_value=1, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold_for_any_size(self, n):
        ch = quantize_equiprobable_exponential(n)
        assert ch.count == n
        assert np.max(np.abs(ch.pmf - 1.0 / n)) <= 1e-12
        assert abs(ch.gains @ ch.pmf - 1.0) <= 1e-9
        assert ch.gains[0] >= 0.0
        assert np.all(np.diff(ch.gains) > 0.0)
        assert ch.max_gain == ch.gains[-1]


class TestFiniteChannel:
    def test_valid_two_state_table(self):
        ch = FiniteChannel([0.5, 1.5], [0.5, 0.5])
        assert ch.max_gain == 1.5
        assert ch.count == 2

    def test_rejects_descending_gains(self):
        with pytest.raises(ValueError, match="ascending"):
            FiniteChannel([1.0, 0.5], [0.5, 0.5])

    def test_rejects_bad_pmf_sum(self):
        with pytest.raises(ValueError, match="sums to"):
            FiniteChannel([1.0], [0.3])

    def test_bad_pmf_sum_says_how_to_fix_it(self):
        with pytest.raises(ValueError, match="; divide the pmf by its sum$"):
            FiniteChannel([0.5, 1.5], [1.0, 3.0])

    def test_rejects_non_positive_probability(self):
        with pytest.raises(ValueError, match="positive"):
            FiniteChannel([0.5, 1.5], [1.0, 0.0])

    def test_rejects_negative_gain(self):
        with pytest.raises(ValueError):
            FiniteChannel([-0.5, 1.5], [0.5, 0.5])

    @pytest.mark.parametrize(
        "gains, pmf",
        [
            ([1.0, math.nan], [0.5, 0.5]),
            ([math.nan], [1.0]),
            ([1.0, math.inf], [0.5, 0.5]),
            ([1.0, 2.0], [math.nan, 0.5]),
            ([1.0, 2.0], [math.inf, 0.5]),
        ],
    )
    def test_rejects_non_finite_tables(self, gains, pmf):
        with pytest.raises(ValueError):
            FiniteChannel(gains, pmf)

    @pytest.mark.parametrize(
        "gains", [[], [[0.5, 1.5]], 0.5], ids=["empty", "2d", "0d"]
    )
    def test_rejects_gains_that_are_not_a_non_empty_vector(self, gains):
        with pytest.raises(ValueError, match="non-empty 1-d sequence"):
            FiniteChannel(gains, [1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            FiniteChannel([0.5, 1.5], [1.0])

    def test_rejects_tiny_imbalance(self):
        # 4e-10 off is beyond the one 1e-12 sum check; nothing renormalizes
        with pytest.raises(ValueError, match="sums to"):
            FiniteChannel([0.5, 1.5], [0.5, 0.5 + 4e-10])

    def test_arrays_are_read_only(self):
        ch = FiniteChannel([0.5, 1.5], [0.5, 0.5])
        with pytest.raises(ValueError):
            ch.gains[0] = 0.0
        with pytest.raises(ValueError):
            ch.pmf[0] = 0.9


def test_channels_compare_and_hash_by_identity():
    # value equality over ndarray fields raised instead of answering
    a, b = (FiniteChannel([0.5, 2.0], [0.25, 0.75]) for _ in range(2))
    assert a == a and a != b
    assert len({a, b, a}) == 2


class TestDeliveryTail:
    @pytest.mark.parametrize(
        "channel",
        [
            quantize_equiprobable_exponential(1),
            quantize_equiprobable_exponential(2),
            quantize_equiprobable_exponential(200),
            FiniteChannel([0.1, 0.7, 2.0, 9.0], [0.05, 0.6, 0.3, 0.05]),
            FiniteChannel(
                np.arange(1.0, 301.0),
                0.99 ** np.arange(300) / (0.99 ** np.arange(300)).sum(),
            ),
        ],
        ids=[
            "equiprobable1",
            "equiprobable2",
            "equiprobable200",
            "skewed4",
            "geometric300",
        ],
    )
    def test_tail_is_the_suffix_sums(self, channel):
        want = [channel.pmf[k:].sum() for k in range(channel.count)] + [0.0]
        assert channel.tail.tolist() == want

    def test_tail_is_cached_and_read_only(self):
        ch = quantize_equiprobable_exponential(20)
        assert ch.tail is ch.tail
        with pytest.raises(ValueError):
            ch.tail[0] = 0.5

    def test_unpickled_copy_stays_read_only(self):
        # what run_sweep's process pool hands each task
        ch = quantize_equiprobable_exponential(20)
        ch.tail
        copy = pickle.loads(pickle.dumps(ch))
        for name in ("gains", "pmf", "tail"):
            array = getattr(copy, name)
            assert array.tolist() == getattr(ch, name).tolist()
            assert not array.flags.writeable
