"""Experiment configuration, parameter sweeps and gain reporting.

A sweep walks one physical axis (battery capacity or source power),
computes the heuristic closed form, its Monte Carlo estimate on the
original system and the policy-iteration upper bound for every grid
resolution, and serializes one CSV row per (sweep value, n_levels) pair.
Identical configuration and seed reproduce the CSV byte for byte.
"""

import concurrent.futures
import functools
import numbers
import typing
from dataclasses import dataclass, fields, replace

from .channel import FiniteChannel, quantize_equiprobable_exponential
from .mdp import _check_n_levels, build_mdp, policy_iteration, upper_bound
from .relay import (
    _PHYSICS,
    SystemParams,
    _received_power,
    heuristic_average_success,
    make_heuristic_policy,
)
from .simulate import SimulationConfig, simulate_original

__all__ = [
    "CONFIG_PARSERS",
    "ExperimentConfig",
    "SWEEP_CSV_HEADER",
    "SweepRow",
    "parse_config",
    "report_gains",
    "rows_to_csv",
    "run_sweep",
]

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
        if not self.n_levels:
            raise ValueError("n_levels needs at least one entry")
        for n in self.n_levels:
            _check_n_levels(n)
        if not isinstance(self.workers, numbers.Integral):
            raise ValueError(f"workers must be an integer, got {self.workers!r}")
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
        params = SystemParams(**{name: getattr(self, name) for name in _PHYSICS})
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
    """One (sweep value, n_levels) cell of the result table. Every field
    but error is a CSV column, in declaration order; a float column is
    written by _fmt, any other by str."""

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
            (_fmt if f.type is float else str)(getattr(self, f.name))
            for f in _CSV_FIELDS
        )


_CSV_FIELDS = tuple(f for f in fields(SweepRow) if f.name != "error")
SWEEP_CSV_HEADER = ",".join(f.name for f in _CSV_FIELDS)


def _fmt(value: float) -> str:
    """Stable 12-significant-digit float formatting for the CSV."""
    return format(float(value), ".12g")


def _sweep_point(config: ExperimentConfig, channels, index: int) -> list[SweepRow]:
    """All rows of one sweep value (shared heuristic, one bound per
    n_levels). Runs inside a worker when a pool is used."""
    value = config.sweep_values[index]
    h_channel, g_channel = channels
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
    come back in sweep order regardless of worker completion order. The
    channel pair is built once, so every point shares its derived tables.
    """
    indices = range(len(config.sweep_values))
    point = functools.partial(_sweep_point, config, config.channels())
    # A fork-based pool may start all its workers at the first submit, so
    # never ask for more workers than there are sweep values.
    workers = min(config.workers, len(indices))
    if workers == 1:
        per_point = list(map(point, indices))
    else:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            per_point = list(pool.map(point, indices))
    return [row for rows in per_point for row in rows]


def rows_to_csv(rows: list[SweepRow]) -> str:
    """Deterministic CSV serialization (header plus one line per row)."""
    lines = [SWEEP_CSV_HEADER]
    lines.extend(row.csv_row() for row in rows)
    return "\n".join(lines) + "\n"


def _percent(value: float, base: float) -> str:
    """100 (value - base) / base to six significant digits, or
    "undefined" (not infinity) for a zero base."""
    if base == 0.0:
        return "undefined"
    return f"{100.0 * (value - base) / base:.6g}%"


def report_gains(rows: list[SweepRow]) -> list[str]:
    """The lines `swipt-relay sweep` prints: the bound's percentage gain
    between consecutive sweep points per grid resolution, then the
    per-row heuristic-to-bound gap 100 (P_bound - P_heuristic) /
    P_heuristic. Failed rows are skipped, and below two successful sweep
    points there is nothing to report."""
    ok_rows = [r for r in rows if r.status == "ok"]
    if len({r.sweep_value for r in ok_rows}) < 2:
        return []
    lines = []
    for n_levels in sorted({r.n_levels for r in ok_rows}):
        track = [r for r in ok_rows if r.n_levels == n_levels]
        lines.extend(
            f"bound gain (n_levels={n_levels}) "
            f"{_fmt(prev.sweep_value)} -> {_fmt(cur.sweep_value)}: "
            f"{_percent(cur.p_upper_bound, prev.p_upper_bound)}"
            for prev, cur in zip(track, track[1:])
        )
    lines.extend(
        f"bound vs heuristic at {_fmt(r.sweep_value)} (n_levels={r.n_levels}): "
        f"{_percent(r.p_upper_bound, r.p_heuristic_analytic)}"
        for r in ok_rows
    )
    return lines


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

    The file is UTF-8 text (a leading byte-order mark is skipped), one
    `key = value` per line; anything from a `#` to the end of the line is
    a comment. Unknown keys and malformed values are rejected.
    """
    values: dict = {}
    if path is not None:
        with open(path, encoding="utf-8-sig") as handle:
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
