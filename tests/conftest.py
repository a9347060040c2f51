# The package before numpy, so in-process solves run on its one BLAS thread.
from swipt_relay import (
    FiniteChannel,
    MdpModel,
    SystemParams,
    quantize_equiprobable_exponential,
)

import numpy as np
import pytest

# Scalar operating point used across the suite (the experiment defaults).
DEFAULT_PARAMS = SystemParams(
    source_power=1.0,
    noise_power=0.001,
    block_duration=1.0,
    conversion_efficiency=0.5,
    rate=1.5,
    battery_capacity=10.0,
)

# Small-alphabet scenario whose optimal rule genuinely needs lookahead
# (policy iteration takes two passes, the gain is interior).
HARD_TINY_PARAMS = SystemParams(
    source_power=0.5,
    noise_power=0.02,
    block_duration=1.0,
    conversion_efficiency=0.5,
    rate=1.5,
    battery_capacity=0.5,
)


@pytest.fixture(scope="session")
def default_params() -> SystemParams:
    return DEFAULT_PARAMS


@pytest.fixture(scope="session")
def hard_tiny_params() -> SystemParams:
    return HARD_TINY_PARAMS


@pytest.fixture(scope="session")
def channel1():
    return FiniteChannel([1.0], [1.0])


@pytest.fixture(scope="session")
def channel2():
    return quantize_equiprobable_exponential(2)


@pytest.fixture(scope="session")
def channel200():
    return quantize_equiprobable_exponential(200)


@pytest.fixture
def hand_model():
    """Factory for models with hand-chosen rewards and post levels, for
    testing the solvers in isolation from the physics.

    layout: per state, list of (reward, post_level) action tuples, given as
    a list of length n_levels * len(pmf) in flat state order. The model
    keeps exact grid hits in place, so an action's post level is its
    target: an action on post level k goes to column k, which keeps the
    larger reward of two actions on one post level (its two branches).
    """

    def build(pmf, n_levels, layout, capacity=1.0):
        gains = np.arange(1.0, len(pmf) + 1.0)
        channel = FiniteChannel(gains, pmf)
        assert len(layout) == n_levels * channel.count
        rewards = np.full((len(layout), n_levels), -np.inf)
        for s, state_actions in enumerate(layout):
            posts = [post for _, post in state_actions]
            assert all(posts.count(post) <= 2 for post in posts), "two per post at most"
            for reward, post in state_actions:
                rewards[s, post] = max(rewards[s, post], reward)
        return MdpModel(
            levels=np.linspace(0.0, capacity, n_levels),
            h_channel=channel,
            g_channel=channel,
            params=DEFAULT_PARAMS,
            rewards=rewards,
            exact_up=False,
        )

    return build
