"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The default experiment grid (battery sweep x grid
resolutions x source powers) is computed once and shared by the criteria
that consume it.
"""

import time
import warnings

import numpy as np
import pytest

from swipt_relay import (
    ExperimentConfig,
    SimulationConfig,
    SystemParams,
    build_mdp,
    can_succeed,
    default_initial_rule,
    energy_after_harvest,
    heuristic_average_success,
    make_heuristic_policy,
    policy_iteration,
    quantize_equiprobable_exponential,
    run_sweep,
    simulate_discrete,
    simulate_original,
    success_prob,
    upper_bound,
)
from swipt_relay.cli import main as cli_main
from oracles import (
    kth_action_rule,
    model_actions,
    oracle_gain_bruteforce,
    state_transition_matrix,
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
    mean_dev = abs(channel.mean_gain() - 1.0)
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


def test_a4_bound_dominance_over_default_grid(default_grid):
    rows_by_power, elapsed = default_grid
    checked = 0
    for power, rows in rows_by_power.items():
        for row in rows:
            assert row.status == "ok", f"power {power}, cell {row}"
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
            checked += 1
    passed = checked == 48 and elapsed < 300.0
    report(
        "A4 bound dominance",
        passed,
        f"{checked} cells dominated, grid computed in {elapsed:.0f} s",
    )
    assert checked == 48
    assert elapsed < 300.0


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
            float(model.grid.levels[level]),
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
