"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The default experiment grid (battery sweep x grid
resolutions x source powers) is computed once and shared by the criteria
that consume it.
"""

import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swipt_relay import (
    ExperimentConfig,
    SimulationConfig,
    SystemParams,
    build_mdp,
    default_initial_rule,
    energy_after_harvest,
    heuristic_average_success,
    make_heuristic_policy,
    policy_iteration,
    quantize_equiprobable_exponential,
    run_sweep,
    simulate_original,
    upper_bound,
)
from swipt_relay.cli import main as cli_main
from swipt_relay.mdp import _evaluate, _improve
from oracles import (
    can_succeed,
    kth_action_rule,
    model_actions,
    oracle_bellman_update,
    oracle_gain_bruteforce,
    simulate_discrete,
    state_transition_matrix,
    success_prob,
)

POWER_GRID = (0.5, 1.0, 2.0)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


@pytest.fixture(scope="module")
def default_grid():
    """Full default sweep: battery {2..16} x n_levels {5,9} x power
    {0.5,1,2}, through the production sweep path (heuristic closed form,
    heuristic simulation, policy-iteration bound per cell)."""
    start = time.perf_counter()
    rows_by_power = {}
    for power in POWER_GRID:
        config = ExperimentConfig(sweep="battery", source_power=power)
        rows_by_power[power] = run_sweep(config)
    elapsed = time.perf_counter() - start
    return rows_by_power, elapsed


def test_a1_quantizer_exactness():
    start = time.perf_counter()
    channel = quantize_equiprobable_exponential(200)
    elapsed = time.perf_counter() - start
    pmf_dev = float(np.max(np.abs(channel.pmf - 1.0 / 200)))
    mean_dev = abs(float(channel.gains @ channel.pmf) - 1.0)
    passed = pmf_dev <= 1e-12 and mean_dev <= 1e-9 and elapsed < 0.1
    report(
        "A1 quantizer exactness",
        passed,
        f"pmf deviation {pmf_dev:.2e}, mean deviation {mean_dev:.2e}, "
        f"built in {elapsed * 1e3:.1f} ms",
    )
    assert pmf_dev <= 1e-12
    assert mean_dev <= 1e-9
    assert elapsed < 0.1


A2_SETS = (
    ("defaults", SystemParams(1.0, 0.001, 1.0, 0.5, 1.5, 10.0), 1001),
    ("low power, small battery", SystemParams(0.5, 0.001, 1.0, 0.5, 1.5, 4.0), 1002),
    ("high power, large battery", SystemParams(2.0, 0.001, 1.0, 0.5, 1.5, 16.0), 1003),
)


def test_a2_heuristic_closed_form_vs_simulation(channel200):
    all_ok = True
    details = []
    for label, params, seed in A2_SETS:
        start = time.perf_counter()
        closed = heuristic_average_success(channel200, channel200, params)
        sim = simulate_original(
            make_heuristic_policy(channel200, params),
            channel200,
            channel200,
            params,
            SimulationConfig(blocks=100_000, seed=seed),
        )
        elapsed = time.perf_counter() - start
        gap = abs(closed - sim.mean)
        ok = gap <= 3.0 * sim.stderr and elapsed < 10.0
        all_ok = all_ok and ok
        details.append(
            f"{label}: |{closed:.5f} - {sim.mean:.5f}| = {gap:.5f} "
            f"vs 3se = {3 * sim.stderr:.5f} in {elapsed:.1f} s"
        )
        assert gap <= 3.0 * sim.stderr
        assert elapsed < 10.0
    report("A2 heuristic closed form vs simulation", all_ok, "; ".join(details))


def test_simulation_stderr_is_below_the_bernoulli_one(channel200):
    # each block scores its delivery probability, not a draw of it, so the
    # error bar is well under that of n coin flips at the closed form p
    ratios = []
    for _, params, seed in A2_SETS:
        p = heuristic_average_success(channel200, channel200, params)
        sim = simulate_original(
            make_heuristic_policy(channel200, params),
            channel200,
            channel200,
            params,
            SimulationConfig(blocks=100_000, seed=seed),
        )
        ratios.append(sim.stderr / np.sqrt(p * (1.0 - p) / (sim.blocks - 1)))
    report(
        "Simulation stderr below Bernoulli",
        all(0.5 <= ratio <= 0.7 for ratio in ratios),
        ", ".join(f"{ratio:.3f}" for ratio in ratios),
    )
    assert all(0.5 <= ratio <= 0.7 for ratio in ratios), ratios


def test_a3_policy_iteration_vs_bruteforce(channel2, default_params):
    start = time.perf_counter()
    model = build_mdp(channel2, channel2, default_params, 3)
    result = policy_iteration(model)
    oracle = oracle_gain_bruteforce(model)
    elapsed = time.perf_counter() - start
    gap = abs(result.gain - oracle)
    passed = gap <= 1e-9 and elapsed < 60.0
    report(
        "A3 policy iteration vs brute force",
        passed,
        f"|{result.gain:.12f} - {oracle:.12f}| = {gap:.2e} in {elapsed:.1f} s "
        f"({model.n_states} states)",
    )
    assert gap <= 1e-9
    assert elapsed < 60.0


# Every default-grid bound, by (power, battery, n_levels), as the model with
# one reward column per (branch, target) pair computed it; the folded model
# must give the same floats.
A4_BOUNDS = {
    (0.5, 2.0, 5): 0.9591462542032995,
    (0.5, 2.0, 9): 0.9514243484799361,
    (0.5, 4.0, 5): 0.9652249652223199,
    (0.5, 4.0, 9): 0.959149998252341,
    (0.5, 6.0, 5): 0.9652999956997244,
    (0.5, 6.0, 9): 0.9616249999998189,
    (0.5, 8.0, 5): 0.9652999956997244,
    (0.5, 8.0, 9): 0.9652249999999721,
    (0.5, 10.0, 5): 0.9657749780564521,
    (0.5, 10.0, 9): 0.9652999202173208,
    (0.5, 12.0, 5): 0.9700000000000006,
    (0.5, 12.0, 9): 0.9652999999999965,
    (0.5, 14.0, 5): 0.9700000000000006,
    (0.5, 14.0, 9): 0.9652999999999965,
    (0.5, 16.0, 5): 0.9700000000000006,
    (0.5, 16.0, 9): 0.9652999999999965,
    (1.0, 2.0, 5): 0.9758170859978063,
    (1.0, 2.0, 9): 0.9707462280462432,
    (1.0, 4.0, 5): 0.980205125283184,
    (1.0, 4.0, 9): 0.9760350961834311,
    (1.0, 6.0, 5): 0.9802749908982019,
    (1.0, 6.0, 9): 0.977774999960213,
    (1.0, 8.0, 5): 0.9803499989616166,
    (1.0, 8.0, 9): 0.9802121728583881,
    (1.0, 10.0, 5): 0.9816749884054488,
    (1.0, 10.0, 9): 0.980274999406979,
    (1.0, 12.0, 5): 0.9850000000000007,
    (1.0, 12.0, 9): 0.9802749999999844,
    (1.0, 14.0, 5): 0.9850000000000007,
    (1.0, 14.0, 9): 0.9802749999999988,
    (1.0, 16.0, 5): 0.9850000000000007,
    (1.0, 16.0, 9): 0.9803500000000003,
    (2.0, 2.0, 5): 0.9877532644703371,
    (2.0, 2.0, 9): 0.9850430083085909,
    (2.0, 4.0, 5): 0.9905807180851067,
    (2.0, 4.0, 9): 0.988263130574599,
    (2.0, 6.0, 5): 0.9908725474624919,
    (2.0, 6.0, 9): 0.9894877986620686,
    (2.0, 8.0, 5): 0.9910999951903204,
    (2.0, 8.0, 9): 0.9906355523324704,
    (2.0, 10.0, 5): 0.9928249807131905,
    (2.0, 10.0, 9): 0.9908984403748412,
    (2.0, 12.0, 5): 0.9950000000000004,
    (2.0, 12.0, 9): 0.9908749986871074,
    (2.0, 14.0, 5): 0.9950000000000004,
    (2.0, 14.0, 9): 0.9908499999994005,
    (2.0, 16.0, 5): 0.9950000000000004,
    (2.0, 16.0, 9): 0.9911000000000001,
}


def test_a4_bound_dominance_over_default_grid(default_grid):
    rows_by_power, elapsed = default_grid
    checked = 0
    for power, rows in rows_by_power.items():
        for row in rows:
            assert row.status == "ok", f"power {power}, cell {row}"
            pinned = A4_BOUNDS[(power, row.sweep_value, row.n_levels)]
            assert row.p_upper_bound == pinned, (power, row, pinned)
            assert row.p_upper_bound >= row.p_heuristic_analytic - 1e-9, (
                f"power {power} battery {row.sweep_value} n_levels {row.n_levels}: "
                f"bound {row.p_upper_bound} vs analytic {row.p_heuristic_analytic}"
            )
            assert row.p_upper_bound >= (
                row.p_heuristic_sim - 3.0 * row.p_heuristic_sim_stderr
            ), (
                f"power {power} battery {row.sweep_value} n_levels {row.n_levels}: "
                f"bound {row.p_upper_bound} vs sim {row.p_heuristic_sim}"
            )
            gap = abs(row.p_heuristic_sim - row.p_heuristic_analytic)
            assert gap <= 4.0 * row.p_heuristic_sim_stderr, (
                f"power {power} battery {row.sweep_value} n_levels {row.n_levels}: "
                f"sim {row.p_heuristic_sim} +- {row.p_heuristic_sim_stderr} "
                f"vs analytic {row.p_heuristic_analytic}"
            )
            checked += 1
    passed = checked == 48 and elapsed < 300.0
    report(
        "A4 bound dominance",
        passed,
        f"{checked} cells dominated, grid computed in {elapsed:.0f} s",
    )
    assert checked == 48
    assert elapsed < 300.0


def test_closed_form_is_the_drain_rule_gain(channel200):
    # With exact_up=False, target 0 keeps the battery empty, so the
    # drain-to-empty rule's gain on the round-down model is the closed form
    # up to summation order. Beyond A4's cells: some states at C = 50,
    # P = 0.05 mW, B = 0.02 uJ decode but cannot deliver.
    channel50 = quantize_equiprobable_exponential(50)
    cells = [(channel200, power, battery, n) for power, battery, n in A4_BOUNDS]
    cells += [(channel50, 0.05, 0.02, n) for n in (5, 9, 33)]
    worst = 0.0
    for channel, power, battery, n_levels in cells:
        params = SystemParams(power, 0.001, 1.0, 0.5, 1.5, battery)
        model = build_mdp(channel, channel, params, n_levels, exact_up=False)
        gain, _ = _evaluate(model, default_initial_rule(model))
        closed = heuristic_average_success(channel, channel, params)
        worst = max(worst, abs(gain - closed))
    report(
        "Drain rule closed form",
        worst <= 1e-14,
        f"{len(cells)} cells, worst gap {worst:.1e}",
    )
    assert worst <= 1e-14


def test_certificate_reads_the_improvement_sweep(channel200):
    # upper_bound averages the sweep's per-state largest candidates over
    # each level; the greedy rule's level chain gives the same TW - W up to
    # summation order, at the converged values and at the drain rule's
    worst = 0.0
    for power, battery, n_levels in A4_BOUNDS:
        params = SystemParams(power, 0.001, 1.0, 0.5, 1.5, battery)
        model = build_mdp(channel200, channel200, params, n_levels)
        drain_values = _evaluate(model, default_initial_rule(model))[1]
        for values in (policy_iteration(model).bias, drain_values):
            top = _improve(model, values)[1]
            update = top.reshape(n_levels, -1) @ channel200.pmf - values
            gap = np.max(np.abs(update - oracle_bellman_update(model, values)))
            worst = max(worst, float(gap))
    report(
        "Certificate from the improvement sweep",
        worst <= 1e-13,
        f"{len(A4_BOUNDS)} cells, worst gap {worst:.1e}",
    )
    assert worst <= 1e-13


A5_CELLS = (
    (1.0, 10.0, 5, 2001),
    (0.5, 2.0, 9, 2002),
    (2.0, 16.0, 5, 2003),
)


def test_a5_gain_chain_consistency(channel200):
    details = []
    for power, battery, n_levels, seed in A5_CELLS:
        params = SystemParams(power, 0.001, 1.0, 0.5, 1.5, battery)
        model = build_mdp(channel200, channel200, params, n_levels)
        result = policy_iteration(model)
        sim = simulate_discrete(
            model, result.rule, SimulationConfig(blocks=100_000, seed=seed)
        )
        slack = 3.0 * max(sim.stderr, 1e-12)
        gap = abs(sim.mean - result.gain)
        details.append(
            f"(P={power}, B={battery}, N={n_levels}): |{sim.mean:.5f} - "
            f"{result.gain:.5f}| = {gap:.2e} vs {slack:.2e}"
        )
        assert gap <= slack
    report("A5 gain/chain consistency", True, "; ".join(details))


def test_a6_nested_grid_bound_ordering(default_grid):
    rows_by_power, _ = default_grid
    checked = 0
    for power, rows in rows_by_power.items():
        coarse = {r.sweep_value: r.p_upper_bound for r in rows if r.n_levels == 5}
        fine = {r.sweep_value: r.p_upper_bound for r in rows if r.n_levels == 9}
        for battery in coarse:
            assert fine[battery] <= coarse[battery] + 1e-9, (
                f"power {power} battery {battery}: "
                f"P_u(9)={fine[battery]} > P_u(5)={coarse[battery]}"
            )
            checked += 1
    report(
        "A6 nested-grid bound ordering",
        True,
        f"{checked} battery points satisfy P_u(9) <= P_u(5) + 1e-9",
    )


def test_a7_structural_invariants(channel200, default_params):
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    draws = 10_000
    for _ in range(draws):
        energy = float(rng.uniform(0.0, default_params.battery_capacity))
        gain = float(channel200.gains[rng.integers(channel200.count)])
        ratio = float(rng.uniform(0.0, 1.0))
        half = energy_after_harvest(energy, gain, ratio, default_params)
        spend = float(rng.uniform(0.0, half))
        reward = success_prob(energy, gain, ratio, spend, channel200, default_params)
        assert 0.0 <= reward <= 1.0
        residual = half - spend
        assert 0.0 <= residual <= default_params.battery_capacity
    model = build_mdp(channel200, channel200, default_params, 5)
    for s in range(model.n_states):
        level, channel_idx = divmod(s, channel200.count)
        hopeless = not can_succeed(
            float(model.levels[level]),
            float(channel200.gains[channel_idx]),
            channel200,
            default_params,
        )
        for a in model_actions(model, s):
            assert 0.0 <= a.reward <= 1.0
            if hopeless:
                assert a.reward == 0.0
    for k in range(model.rewards.shape[1]):
        rule = kth_action_rule(model, k)
        rows = state_transition_matrix(model, rule).sum(axis=1)
        assert np.max(np.abs(rows - 1.0)) <= 1e-12
    elapsed = time.perf_counter() - start
    report(
        "A7 structural invariants",
        elapsed < 30.0,
        f"{draws} randomized draws plus {model.n_states}-state model checked "
        f"in {elapsed:.1f} s",
    )
    assert elapsed < 30.0


def test_a8_diminishing_returns_trend(default_grid):
    rows_by_power, _ = default_grid
    violations = []
    for power, rows in rows_by_power.items():
        for n_levels in (5, 9):
            track = [r for r in rows if r.n_levels == n_levels]
            gains = []
            for prev, cur in zip(track, track[1:]):
                if prev.p_upper_bound > 0.0:
                    gains.append(
                        100.0
                        * (cur.p_upper_bound - prev.p_upper_bound)
                        / prev.p_upper_bound
                    )
            # beyond the first step the percentage gains should shrink
            for k in range(2, len(gains)):
                if gains[k] > gains[k - 1] + 1e-9:
                    violations.append(
                        f"power {power} n_levels {n_levels} step {k}: "
                        f"{gains[k - 1]:.4f}% -> {gains[k]:.4f}%"
                    )
    if violations:
        warnings.warn(
            "diminishing-returns trend violated (advisory only): "
            + "; ".join(violations),
            stacklevel=1,
        )
    report(
        "A8 diminishing-returns trend",
        True,
        "monotone" if not violations else f"{len(violations)} advisory violations",
    )


A9_ARGS = [
    "sweep",
    "--channel-states",
    "25",
    "--levels",
    "3,5",
    "--battery-sweep",
    "2,4,8",
    "--blocks",
    "3000",
    "--seed",
    "31",
]


def test_a9_sweep_determinism(tmp_path, capsys):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    code_a = cli_main(A9_ARGS + ["--out", str(first)])
    code_b = cli_main(A9_ARGS + ["--out", str(second)])
    capsys.readouterr()
    identical = first.read_bytes() == second.read_bytes()
    report(
        "A9 sweep determinism",
        identical and code_a == code_b == 0,
        f"two runs, {first.stat().st_size} bytes, byte-identical: {identical}",
    )
    assert code_a == 0 and code_b == 0
    assert identical


def _a10_results(channel, params):
    """The heuristic closed form, the bounds at N = 5 and 9, and a
    20,000-block seed-5 Monte Carlo (mean, stderr and trace bytes)."""
    bounds = []
    for n_levels in (5, 9):
        model = build_mdp(channel, channel, params, n_levels)
        bounds.append(upper_bound(model, policy_iteration(model)))
    sim = simulate_original(
        make_heuristic_policy(channel, params),
        channel,
        channel,
        params,
        SimulationConfig(blocks=20_000, seed=5),
        keep_trace=True,
    )
    heuristic = heuristic_average_success(channel, channel, params)
    return heuristic, *bounds, sim.mean, sim.stderr, sim.trace.tobytes()


# Results depend on the physics only through P / sigma^2, B / (T sigma^2), eta
# and the rate, so scaling by a power of two changes no bit of them.
A10_MAPS = {
    "a (P, sigma^2, B)": lambda p, a: replace(
        p,
        source_power=a * p.source_power,
        noise_power=a * p.noise_power,
        battery_capacity=a * p.battery_capacity,
    ),
    "a (T, B)": lambda p, a: replace(
        p, block_duration=a * p.block_duration, battery_capacity=a * p.battery_capacity
    ),
}


def test_a10_units_invariance(channel200):
    cells = sorted({(power, battery) for power, battery, _ in A4_BOUNDS})
    unscaled = {}
    checked = []

    @given(
        cell=st.sampled_from(cells),
        k=st.integers(min_value=-30, max_value=30),
        scaling=st.sampled_from(sorted(A10_MAPS)),
    )
    @settings(max_examples=40, deadline=None)
    def check(cell, k, scaling):
        power, battery = cell
        params = SystemParams(power, 0.001, 1.0, 0.5, 1.5, battery)
        if cell not in unscaled:
            unscaled[cell] = _a10_results(channel200, params)
        scaled = A10_MAPS[scaling](params, 2.0**k)
        assert _a10_results(channel200, scaled) == unscaled[cell], (cell, k, scaling)
        checked.append((cell, k, scaling))

    start = time.perf_counter()
    check()
    elapsed = time.perf_counter() - start
    report(
        "A10 units invariance",
        True,
        f"{len(checked)} cells scaled by 2^k, k in [-30, 30], bit-identical "
        f"in {elapsed:.1f} s",
    )
