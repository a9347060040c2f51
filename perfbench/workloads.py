"""The four benchmark workloads: seeded input plans, input building, one
timed pass, and the output checks of each pass.

A plan is plain data made from the workload seed alone, so equal seeds give
equal inputs without importing the package. `build` turns a plan into the
package's objects (channels, parameters, models); that is the set-up the
benchmark times. `run_pass` runs the operations once over those inputs and
returns their latencies, failures and outputs. Every call into the package
goes through a module attribute looked up at call time (`sr.build_mdp`),
so the tracer's patches see the benchmark's own calls too.
"""

import contextlib
import functools
import inspect
import io
import json
import os
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks

WORKLOADS = ("battery_sweep", "fine_grid_bound", "monte_carlo", "small_models")

DEFAULT_PHYSICS = dict(
    source_power=1.0,
    noise_power=0.001,
    block_duration=1.0,
    conversion_efficiency=0.5,
    rate=1.5,
    battery_capacity=10.0,
)
# Small-alphabet scenario whose optimal rule needs lookahead; the test
# suite uses the same values.
HARD_TINY_PHYSICS = dict(
    source_power=0.5,
    noise_power=0.02,
    block_duration=1.0,
    conversion_efficiency=0.5,
    rate=1.5,
    battery_capacity=0.5,
)

# battery_sweep: the default `swipt-relay sweep` (8 battery points x N in
# {5, 9}, C = 200, 1e5 blocks per point).
SWEEP_BATTERIES = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0)
SWEEP_LEVELS = (5, 9)

# fine_grid_bound: (N, C) cells at the default operating point. (17, 200)
# takes the dense solve, (33, 200) the sparse one, (5, 1000) sits at the
# 5000-state dense limit.
FINE_GRID_CELLS = ((17, 200), (33, 200), (5, 1000))

# monte_carlo: the three operating points of acceptance criterion A2.
MC_POINTS = (
    dict(DEFAULT_PHYSICS),
    dict(DEFAULT_PHYSICS, source_power=0.5, battery_capacity=4.0),
    dict(DEFAULT_PHYSICS, source_power=2.0, battery_capacity=16.0),
)
# 10 draining-heuristic runs of 1e5 blocks per point. The check calls stop
# at the first rejected start state, so their cost depends on the seed;
# this fixed simulator work keeps a pass's duration steady across seeds.
MC_RUNS_PER_POINT = 10
MC_BLOCKS = 100_000
MC_CHECK_CALLS = 3
MC_CHECK_LEVELS = 5
MC_CHANNEL_STATES = 200

# small_models: a finite universe of scenarios, so that reference values
# from the seed can be stored for every one of them. Physics scales the
# source power and battery capacity of two base scenarios.
SMALL_BASES = (DEFAULT_PHYSICS, HARD_TINY_PHYSICS)
SMALL_SCALES = (0.5, 0.7, 1.0, 1.4, 2.0)
SMALL_CHANNEL_STATES = tuple(range(2, 13))
SMALL_LEVELS = tuple(range(3, 10))
SMALL_DRAWS = 2500
# Successful small models converge within 8 iterations. 29 of the universe's
# cells cycle without converging (NonConvergenceError); under the default
# cap of 10 000 iterations each of those costs about 6 s and the workload
# would time that cycling instead of per-call cost. They still fail, and
# count as failed operations, under this cap.
SMALL_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class Plan:
    """Inputs of one workload as plain data, made from the seed alone."""

    workload: str
    seed: int
    items: tuple


@dataclass
class PassResult:
    """What one pass did: op latencies, attempted and failed operation
    counts, failure ledger entries and the outputs the checks read."""

    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    ledger: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    blocks: int = 0
    block_seconds: float = 0.0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def small_universe_size() -> int:
    return (
        len(SMALL_BASES)
        * len(SMALL_SCALES) ** 2
        * len(SMALL_CHANNEL_STATES)
        * len(SMALL_LEVELS)
    )


def small_scenario(index: int) -> tuple[dict, int, int]:
    """Physics, channel-state count and level count of one scenario."""
    index, n_levels = divmod(index, len(SMALL_LEVELS))
    index, n_states = divmod(index, len(SMALL_CHANNEL_STATES))
    index, battery = divmod(index, len(SMALL_SCALES))
    base, power = divmod(index, len(SMALL_SCALES))
    physics = dict(SMALL_BASES[base])
    physics["source_power"] *= SMALL_SCALES[power]
    physics["battery_capacity"] *= SMALL_SCALES[battery]
    return physics, SMALL_CHANNEL_STATES[n_states], SMALL_LEVELS[n_levels]


def plan(workload: str, seed: int) -> Plan:
    """Seeded inputs of a workload. fine_grid_bound has fixed cells and
    does not use the seed."""
    rng = _rng(workload, seed)
    if workload == "battery_sweep":
        items = (seed,)
    elif workload == "fine_grid_bound":
        items = FINE_GRID_CELLS
    elif workload == "monte_carlo":
        runs = tuple(
            (point, rng.randrange(2**31))
            for point in range(len(MC_POINTS))
            for _ in range(MC_RUNS_PER_POINT)
        )
        check_seeds = tuple(rng.randrange(2**31) for _ in range(MC_CHECK_CALLS))
        items = (runs, check_seeds)
    elif workload == "small_models":
        items = tuple(rng.sample(range(small_universe_size()), SMALL_DRAWS))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Plan(workload, seed, items)


def build(p: Plan, sr) -> dict:
    """Package objects for a plan: the timed part of set-up."""
    if p.workload == "battery_sweep":
        return {"sweep_seed": p.items[0]}
    if p.workload == "fine_grid_bound":
        params = sr.SystemParams(**DEFAULT_PHYSICS)
        channels = {c: sr.quantize_equiprobable_exponential(c) for _, c in p.items}
        return {"params": params, "channels": channels}
    if p.workload == "monte_carlo":
        channel = sr.quantize_equiprobable_exponential(MC_CHANNEL_STATES)
        params = [sr.SystemParams(**physics) for physics in MC_POINTS]
        model = sr.build_mdp(channel, channel, params[0], MC_CHECK_LEVELS)
        result = sr.policy_iteration(model)
        return {
            "channel": channel,
            "params": params,
            "policies": [sr.make_heuristic_policy(channel, q) for q in params],
            "model": model,
            "result": result,
        }
    if p.workload == "small_models":
        channels = {c: sr.quantize_equiprobable_exponential(c) for c in SMALL_CHANNEL_STATES}
        scenarios = []
        for index in p.items:
            physics, n_states, n_levels = small_scenario(index)
            scenarios.append(
                (index, sr.SystemParams(**physics), channels[n_states], n_levels)
            )
        return {"scenarios": scenarios}
    raise ValueError(f"unknown workload {p.workload!r}")


def dedupe_ledger(entries):
    """Ledger entries once each; entries differing only in duration are
    the same failure seen in another pass or run."""
    seen = set()
    for entry in entries:
        key = json.dumps({k: v for k, v in entry.items() if k != "seconds"}, sort_keys=True)
        if key not in seen:
            seen.add(key)
            yield entry


def failing_layer(exc: BaseException) -> str:
    """Module of the package where the exception was raised (the deepest
    package frame of its traceback)."""
    layer = "benchmark"
    for frame in traceback.extract_tb(exc.__traceback__):
        path = Path(frame.filename)
        if path.parent.name == "swipt_relay":
            layer = path.stem
    return layer


def ledger_entry(workload: str, inputs: dict, layer: str, exc_type: str, message: str) -> dict:
    return {
        "workload": workload,
        "inputs": inputs,
        "layer": layer,
        "exception": exc_type,
        "message": (message.strip().splitlines() or [""])[0][:160],
    }


@functools.lru_cache(maxsize=None)
def _takes_channel(func) -> bool:
    return "h_channel" in inspect.signature(func).parameters


def _upper_bound(sr, model, result, channel, **kwargs):
    """upper_bound, passing the channel only while the signature takes it."""
    if _takes_channel(sr.upper_bound):
        return sr.upper_bound(model, result, channel, **kwargs)
    return sr.upper_bound(model, result, **kwargs)


def solve_bound(sr, channel, params, n_levels, **pi_kwargs):
    model = sr.build_mdp(channel, channel, params, n_levels)
    result = sr.policy_iteration(model, **pi_kwargs)
    return _upper_bound(sr, model, result, channel)


def run_pass(p: Plan, inputs: dict, sr, workdir: Path) -> PassResult:
    return _PASSES[p.workload](p, inputs, sr, workdir)


def _timed_op(res: PassResult, workload: str, described: dict, call):
    """Run one operation. A success adds its latency; a failure is counted
    and goes to the ledger with its duration. Returns the result or None."""
    res.attempted += 1
    start = time.perf_counter()
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 - a failed op goes to the ledger
        res.failed += 1
        entry = ledger_entry(
            workload, described, failing_layer(exc), type(exc).__name__, str(exc)
        )
        entry["seconds"] = time.perf_counter() - start
        res.ledger.append(entry)
        return None
    res.latencies.append(time.perf_counter() - start)
    return value


def _pass_battery_sweep(p, inputs, sr, workdir):
    out = workdir / f"sweep-{os.getpid()}.csv"
    seed = inputs["sweep_seed"]
    argv = ["sweep", "--out", str(out), "--seed", str(seed), "--workers", "1"]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = sr.cli.main(argv)
    elapsed = time.perf_counter() - start
    try:
        text = out.read_text(encoding="utf-8")
    except FileNotFoundError:
        text = ""
    finally:
        out.unlink(missing_ok=True)
    # The latency op is the sweep command; the counted ops are its CSV rows.
    res = PassResult(latencies=[elapsed])
    res.attempted = len(SWEEP_BATTERIES) * len(SWEEP_LEVELS)
    rows = checks.parse_sweep_csv(text)
    ok_rows = sum(row.get("status") == "ok" for row in rows)
    res.failed = res.attempted - min(ok_rows, res.attempted)
    messages = stderr.getvalue().splitlines()
    for row in rows:
        if row.get("status") == "ok":
            continue
        # cli prints "sweep_value=<v:g> n_levels=<n>: <message>" per failed row.
        try:
            prefix = f"sweep_value={float(row['sweep_value']):g} n_levels={row['n_levels']}: "
        except (KeyError, ValueError):
            prefix = None
        message = next((m[len(prefix):] for m in messages if prefix and m.startswith(prefix)), "")
        res.ledger.append(
            ledger_entry(
                p.workload,
                {"sweep_value": row.get("sweep_value"), "N": row.get("n_levels"),
                 "C": 200, "seed": seed},
                "experiment",
                "unknown",
                message,
            )
        )
    res.outputs = {"exit_code": code, "csv": text}
    return res


def _pass_fine_grid_bound(p, inputs, sr, workdir):
    res = PassResult()
    bounds = {}
    for n_levels, n_states in p.items:
        channel = inputs["channels"][n_states]
        bounds[f"{n_levels},{n_states}"] = _timed_op(
            res,
            p.workload,
            {"N": n_levels, "C": n_states},
            lambda: solve_bound(sr, channel, inputs["params"], n_levels),
        )
    res.outputs = {"bounds": bounds}
    return res


def _pass_monte_carlo(p, inputs, sr, workdir):
    res = PassResult()
    channel = inputs["channel"]
    runs, check_seeds = p.items
    sims = [[] for _ in MC_POINTS]
    for point, seed in runs:
        start = time.perf_counter()
        sim = _timed_op(
            res,
            p.workload,
            {"point": point, "C": MC_CHANNEL_STATES, "seed": seed},
            lambda: sr.simulate_original(
                inputs["policies"][point],
                channel,
                channel,
                inputs["params"][point],
                sr.SimulationConfig(blocks=MC_BLOCKS, seed=seed),
            ),
        )
        if sim is not None:
            sims[point].append((sim.mean, sim.stderr))
            res.blocks += MC_BLOCKS
            res.block_seconds += time.perf_counter() - start
    bounds = [
        _timed_op(
            res,
            p.workload,
            {"N": MC_CHECK_LEVELS, "C": MC_CHANNEL_STATES, "check_seed": check_seed},
            lambda: _upper_bound(
                sr,
                inputs["model"],
                inputs["result"],
                channel,
                check="simulate",
                check_seed=check_seed,
            ),
        )
        for check_seed in check_seeds
    ]
    res.outputs = {"sims": sims, "bounds": bounds}
    return res


def _pass_small_models(p, inputs, sr, workdir):
    res = PassResult()
    outputs = []
    for index, params, channel, n_levels in inputs["scenarios"]:

        def solve():
            bound = solve_bound(
                sr, channel, params, n_levels, max_iterations=SMALL_MAX_ITERATIONS
            )
            return bound, sr.heuristic_average_success(channel, channel, params)

        value = _timed_op(
            res,
            p.workload,
            {"scenario": index, "N": n_levels, "C": channel.count},
            solve,
        )
        outputs.append((index, *(value or (None, None))))
    res.outputs = {"scenarios": outputs}
    return res


_PASSES = {
    "battery_sweep": _pass_battery_sweep,
    "fine_grid_bound": _pass_fine_grid_bound,
    "monte_carlo": _pass_monte_carlo,
    "small_models": _pass_small_models,
}


def check(p: Plan, res: PassResult, refs: dict) -> list[str]:
    """Output problems of one pass; an empty list means the pass is correct."""
    out = res.outputs
    if p.workload == "battery_sweep":
        return checks.check_sweep(out["exit_code"], out["csv"], refs["battery_sweep"])
    if p.workload == "fine_grid_bound":
        ref = refs["fine_grid_bound"]
        return [
            problem
            for key, bound in out["bounds"].items()
            for problem in checks.check_bound(
                f"cell {key}", bound, ref["bounds"].get(key), ref["heuristic"]
            )
        ]
    if p.workload == "monte_carlo":
        ref = refs["monte_carlo"]
        problems = []
        for point, sims in enumerate(out["sims"]):
            problems += checks.check_monte_carlo(
                f"point {point}", sims, ref["heuristic"][point]
            )
        for bound in out["bounds"]:
            problems += checks.check_bound(
                "check call", bound, ref["bound"], ref["heuristic"][0]
            )
        return problems
    if p.workload == "small_models":
        ref = refs["small_models"]
        problems = []
        for index, bound, heuristic in out["scenarios"]:
            problems += checks.check_bound(
                f"scenario {index}", bound, ref["bound"][index], ref["heuristic"][index]
            )
            if heuristic is not None:
                problems += checks.check_close(
                    f"scenario {index} heuristic", heuristic, ref["heuristic"][index]
                )
        return problems
    raise ValueError(f"unknown workload {p.workload!r}")
