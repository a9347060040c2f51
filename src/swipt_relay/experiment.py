"""Experiment configuration, parameter sweeps and gain reporting.

A sweep walks one physical axis (battery capacity or source power),
computes the heuristic closed form, its Monte Carlo estimate on the
original system and the policy-iteration upper bound for every grid
resolution, and serializes one CSV row per (sweep value, n_levels) pair.
Identical configuration and seed reproduce the CSV byte for byte.
"""

import concurrent.futures
import typing
from dataclasses import dataclass, fields, replace

from .channel import FiniteChannel, quantize_equiprobable_exponential
from .mdp import build_mdp, policy_iteration, upper_bound
from .relay import (
    SystemParams,
    _received_power,
    heuristic_average_success,
    make_heuristic_policy,
)
from .simulate import SimulationConfig, simulate_original

__all__ = [
    "CONFIG_PARSERS",
    "ExperimentConfig",
    "GainReport",
    "SWEEP_CSV_HEADER",
    "SweepRow",
    "parse_config",
    "report_gains",
    "rows_to_csv",
    "run_sweep",
]

SWEEP_CSV_HEADER = (
    "sweep_param,sweep_value,n_levels,p_heuristic_analytic,"
    "p_heuristic_sim,p_heuristic_sim_stderr,p_upper_bound,status"
)

# sweep axis -> (its list of values, the SystemParams field they replace)
SWEEP_AXES = {
    "battery": ("battery_sweep", "battery_capacity"),
    "power": ("power_sweep", "source_power"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: physics, channel resolution, sweep axis, run sizes.

    battery_capacity and source_power act as the scalar operating point;
    whichever of them is being swept is replaced point by point from the
    corresponding sweep list. Construction validates every value before
    any work starts: the physics by building SystemParams at the operating
    point and at every value of both sweep lists and forming the received
    power of the largest source-relay gain there, blocks and seed by
    building SimulationConfig.
    """

    source_power: float = 1.0  # mW
    noise_power: float = 0.001  # mW
    block_duration: float = 1.0  # ms
    conversion_efficiency: float = 0.5
    rate: float = 1.5  # bits/s/Hz
    battery_capacity: float = 10.0  # uJ
    n_channel_states: int = 200
    n_levels: tuple[int, ...] = (5, 9)
    sweep: str = "battery"
    battery_sweep: tuple[float, ...] = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0)
    power_sweep: tuple[float, ...] = (0.5, 1.0, 2.0)
    blocks: int = 100_000
    seed: int = 20260810
    out: str = "sweep.csv"
    workers: int = 1

    def __post_init__(self) -> None:
        for name in ("n_levels", "battery_sweep", "power_sweep"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.sweep not in SWEEP_AXES:
            raise ValueError(
                f"sweep must be one of {tuple(SWEEP_AXES)}, got {self.sweep!r}"
            )
        if self.n_channel_states < 1:
            raise ValueError("n_channel_states must be at least 1")
        if not self.n_levels or any(n < 2 for n in self.n_levels):
            raise ValueError("n_levels needs at least one entry, each >= 2")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        SimulationConfig(self.blocks, self.seed)
        params = self.system_params()
        max_gain = self.channels()[0].max_gain
        _received_power(max_gain, params)
        for values_name, field_name in SWEEP_AXES.values():
            values = getattr(self, values_name)
            if not values:
                raise ValueError(f"{values_name} must not be empty")
            for value in values:
                try:
                    _received_power(max_gain, replace(params, **{field_name: value}))
                except ValueError as exc:
                    raise ValueError(f"{values_name}: {exc}") from None

    @property
    def sweep_values(self) -> tuple[float, ...]:
        return getattr(self, SWEEP_AXES[self.sweep][0])

    def system_params(self, sweep_value: float | None = None) -> SystemParams:
        """SystemParams at the scalar operating point, or at one sweep
        point when sweep_value is given."""
        params = SystemParams(
            source_power=self.source_power,
            noise_power=self.noise_power,
            block_duration=self.block_duration,
            conversion_efficiency=self.conversion_efficiency,
            rate=self.rate,
            battery_capacity=self.battery_capacity,
        )
        if sweep_value is None:
            return params
        return replace(params, **{SWEEP_AXES[self.sweep][1]: sweep_value})

    def channels(self) -> tuple[FiniteChannel, FiniteChannel]:
        """Source-relay and relay-destination alphabets (both default to
        the same equiprobable unit-mean quantization)."""
        channel = quantize_equiprobable_exponential(self.n_channel_states)
        return channel, channel


@dataclass(frozen=True)
class SweepRow:
    """One (sweep value, n_levels) cell of the result table."""

    sweep_param: str
    sweep_value: float
    n_levels: int
    p_heuristic_analytic: float
    p_heuristic_sim: float
    p_heuristic_sim_stderr: float
    p_upper_bound: float
    status: str
    error: str | None = None

    def csv_row(self) -> str:
        return ",".join(
            (
                self.sweep_param,
                _fmt(self.sweep_value),
                str(self.n_levels),
                _fmt(self.p_heuristic_analytic),
                _fmt(self.p_heuristic_sim),
                _fmt(self.p_heuristic_sim_stderr),
                _fmt(self.p_upper_bound),
                self.status,
            )
        )


def _fmt(value: float) -> str:
    """Stable 12-significant-digit float formatting for the CSV."""
    return format(float(value), ".12g")


def _sweep_point(config: ExperimentConfig, index: int) -> list[SweepRow]:
    """All rows of one sweep value (shared heuristic, one bound per
    n_levels). Runs inside a worker when a pool is used."""
    value = config.sweep_values[index]
    h_channel, g_channel = config.channels()
    params = config.system_params(value)
    try:
        analytic = heuristic_average_success(h_channel, g_channel, params)
        sim = simulate_original(
            make_heuristic_policy(g_channel, params),
            h_channel,
            g_channel,
            params,
            SimulationConfig(blocks=config.blocks, seed=config.seed + index),
        )
        heuristic, failure = (analytic, sim.mean, sim.stderr), None
    except Exception as exc:  # noqa: BLE001 - the rows record the failure
        heuristic, failure = (float("nan"),) * 3, exc
    rows = []
    for n_levels in config.n_levels:
        bound, error = float("nan"), failure
        if failure is None:
            try:
                model = build_mdp(h_channel, g_channel, params, n_levels)
                bound = upper_bound(model, policy_iteration(model))
            except Exception as exc:  # noqa: BLE001
                error = exc
        rows.append(
            SweepRow(
                config.sweep,
                value,
                n_levels,
                *heuristic,
                bound,
                "ok" if error is None else "failed",
                error=None if error is None else str(error),
            )
        )
    return rows


def run_sweep(config: ExperimentConfig) -> list[SweepRow]:
    """Evaluate every (sweep value, n_levels) cell.

    Failures are confined to their row (status "failed", bound NaN); rows
    come back in sweep order regardless of worker completion order.
    """
    indices = range(len(config.sweep_values))
    if config.workers == 1:
        per_point = [_sweep_point(config, i) for i in indices]
    else:
        with concurrent.futures.ProcessPoolExecutor(config.workers) as pool:
            per_point = list(
                pool.map(_sweep_point, [config] * len(indices), indices)
            )
    return [row for rows in per_point for row in rows]


def rows_to_csv(rows: list[SweepRow]) -> str:
    """Deterministic CSV serialization (header plus one line per row)."""
    lines = [SWEEP_CSV_HEADER]
    lines.extend(row.csv_row() for row in rows)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BoundGain:
    """Percentage change of the bound between consecutive sweep points at
    a fixed grid resolution; None when the base point is zero."""

    n_levels: int
    from_value: float
    to_value: float
    percent: float | None


@dataclass(frozen=True)
class HeuristicGap:
    """Percentage shortfall of the heuristic against the bound for one
    row; None when the heuristic is zero (undefined, not infinity)."""

    sweep_value: float
    n_levels: int
    percent: float | None


@dataclass(frozen=True)
class GainReport:
    bound_gains: tuple[BoundGain, ...]
    heuristic_gaps: tuple[HeuristicGap, ...]

    def format_lines(self) -> list[str]:
        lines = []
        for g in self.bound_gains:
            pct = "undefined" if g.percent is None else f"{g.percent:.6g}%"
            lines.append(
                f"bound gain (n_levels={g.n_levels}) "
                f"{_fmt(g.from_value)} -> {_fmt(g.to_value)}: {pct}"
            )
        for g in self.heuristic_gaps:
            pct = "undefined" if g.percent is None else f"{g.percent:.6g}%"
            lines.append(
                f"bound vs heuristic at {_fmt(g.sweep_value)} "
                f"(n_levels={g.n_levels}): {pct}"
            )
        return lines


def report_gains(rows: list[SweepRow]) -> GainReport:
    """Consecutive-point percentage gains of the bound per grid
    resolution, plus the per-row heuristic-to-bound gap
    100 (P_bound - P_heuristic) / P_heuristic. Zero denominators report
    as undefined rather than infinity; failed rows are skipped."""
    ok_rows = [r for r in rows if r.status == "ok"]
    if len({r.sweep_value for r in ok_rows}) < 2:
        raise ValueError("gain reporting needs at least two sweep points")
    bound_gains = []
    for n_levels in sorted({r.n_levels for r in ok_rows}):
        track = [r for r in ok_rows if r.n_levels == n_levels]
        for prev, cur in zip(track, track[1:]):
            if prev.p_upper_bound == 0.0:
                percent = None
            else:
                percent = (
                    100.0
                    * (cur.p_upper_bound - prev.p_upper_bound)
                    / prev.p_upper_bound
                )
            bound_gains.append(
                BoundGain(n_levels, prev.sweep_value, cur.sweep_value, percent)
            )
    gaps = []
    for row in ok_rows:
        if row.p_heuristic_analytic == 0.0:
            percent = None
        else:
            percent = (
                100.0
                * (row.p_upper_bound - row.p_heuristic_analytic)
                / row.p_heuristic_analytic
            )
        gaps.append(HeuristicGap(row.sweep_value, row.n_levels, percent))
    return GainReport(tuple(bound_gains), tuple(gaps))


def _field_parser(kind):
    """Text parser of one config field type: the type itself for a
    scalar, comma-separated items for tuple[item, ...]."""
    if typing.get_origin(kind) is not tuple:
        return kind
    item = typing.get_args(kind)[0]

    def parse(text: str) -> tuple:
        return tuple(item(part) for part in text.split(",") if part.strip())

    parse.__name__ = f"{item.__name__} list"  # argparse names it in errors
    return parse


# One parser per ExperimentConfig key, shared by config files and CLI flags.
CONFIG_PARSERS = {f.name: _field_parser(f.type) for f in fields(ExperimentConfig)}


def parse_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Experiment configuration from an optional key = value file plus
    typed overrides (command-line flags); an override beats the file.

    The file is UTF-8 text, one `key = value` per line; anything from a
    `#` to the end of the line is a comment. Unknown keys and malformed
    values are rejected.
    """
    values: dict = {}
    if path is not None:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(
                        f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}"
                    )
                key, text = (part.strip() for part in line.split("=", 1))
                if key not in CONFIG_PARSERS:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = CONFIG_PARSERS[key](text)
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{lineno}: could not parse {key} = {text!r}"
                    ) from exc
    if overrides:
        unknown = set(overrides) - set(CONFIG_PARSERS)
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        values.update(overrides)
    return ExperimentConfig(**values)
