"""Command-line interface.

One verb per capability: `channel` dumps the quantized alphabet,
`heuristic` evaluates the draining policy's closed form, `bound` solves
the finite-state upper bound, `simulate` runs the Monte Carlo under the
heuristic policy, and `sweep` produces the full experiment CSV.
"""

import argparse
import sys

from .experiment import (
    CONFIG_PARSERS,
    SWEEP_AXES,
    ExperimentConfig,
    parse_config,
    report_gains,
    rows_to_csv,
    run_sweep,
)
from .mdp import build_mdp, policy_iteration, upper_bound
from .relay import heuristic_average_success, make_heuristic_policy
from .simulate import RESULT_CSV_HEADER, SimulationConfig, simulate_original

__all__ = ["main"]

_DEFAULTS = ExperimentConfig()

_PHYSICS_FLAGS = (
    ("source_power", "source transmit power in mW"),
    ("noise_power", "noise power in mW"),
    ("block_duration", "block duration in ms"),
    ("conversion_efficiency", "harvester conversion efficiency in (0,1)"),
    ("rate", "information rate in bits/s/Hz"),
    ("battery_capacity", "relay battery capacity in uJ"),
)


def _config_flag(
    parser: argparse.ArgumentParser, name: str, help_text: str, flag: str = "", **kwargs
) -> None:
    """Flag overriding the config key `name`, parsed as a config file
    value is parsed; it defaults to --name with dashes."""
    default = getattr(_DEFAULTS, name)
    if isinstance(default, tuple):
        default = ",".join(format(v, "g") for v in default)
    parser.add_argument(
        flag or "--" + name.replace("_", "-"),
        dest=name,
        type=CONFIG_PARSERS[name],
        help=f"{help_text} (default: {default})",
        **kwargs,
    )


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `error:` line with exit code 2,
    the way a bad configuration value is reported."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _common_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(
        "--config",
        metavar="PATH",
        help="key = value configuration file; flags override its values",
    )
    for name, help_text in _PHYSICS_FLAGS:
        _config_flag(parser, name, help_text)
    _config_flag(parser, "n_channel_states", "channel alphabet size", "--channel-states")
    _config_flag(parser, "seed", "base random seed")
    return parser


def build_parser() -> argparse.ArgumentParser:
    common = _common_parser()
    parser = _Parser(
        prog="swipt-relay",
        description=(
            "Average success probability of a battery-limited power-splitting "
            "SWIPT decode-and-forward relay: heuristic closed form, "
            "finite-state upper bound, Monte Carlo validation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_channel = sub.add_parser(
        "channel",
        parents=[common],
        help="dump the quantized channel alphabet as CSV (index,gain,probability)",
    )
    p_channel.add_argument("--out", default="-", help="output path, '-' for stdout")

    sub.add_parser(
        "heuristic",
        parents=[common],
        help="print the closed-form average success of the draining policy",
    )

    p_bound = sub.add_parser(
        "bound",
        parents=[common],
        help="print the finite-state upper bound per grid resolution",
    )
    levels_help = "battery level counts, comma separated"
    _config_flag(p_bound, "n_levels", levels_help, "--levels")

    p_sim = sub.add_parser(
        "simulate",
        parents=[common],
        help="Monte Carlo of the heuristic policy (CSV: seed,M,mean,stderr)",
    )
    _config_flag(p_sim, "blocks", "number of simulated blocks")
    p_sim.add_argument("--out", default="-", help="output path, '-' for stdout")

    p_sweep = sub.add_parser(
        "sweep",
        parents=[common],
        help="run the full sweep and write the experiment CSV",
    )
    _config_flag(p_sweep, "sweep", "sweep axis", choices=tuple(SWEEP_AXES))
    _config_flag(p_sweep, "n_levels", levels_help, "--levels")
    _config_flag(p_sweep, "blocks", "simulated blocks per sweep point")
    _config_flag(p_sweep, "battery_sweep", "battery capacities in uJ, comma separated")
    _config_flag(p_sweep, "power_sweep", "source powers in mW, comma separated")
    _config_flag(p_sweep, "workers", "parallel sweep workers")
    _config_flag(p_sweep, "out", "output CSV path")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    skip = {"command", "config"}
    if args.command in ("channel", "simulate"):
        skip.add("out")  # their --out is a direct output path, not config state
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in skip and value is not None
    }
    return parse_config(args.config, overrides)


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _cmd_channel(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    channel, _ = config.channels()
    lines = ["index,gain,probability"]
    for i, (gain, prob) in enumerate(zip(channel.gains, channel.pmf)):
        lines.append(f"{i},{gain:.12g},{prob:.12g}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_heuristic(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    h_channel, g_channel = config.channels()
    value = heuristic_average_success(h_channel, g_channel, config.system_params())
    print(format(value, ".12g"))
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    h_channel, g_channel = config.channels()
    params = config.system_params()
    header = "n_levels,p_upper_bound\n"  # printed with the first bound
    for n_levels in config.n_levels:
        model = build_mdp(h_channel, g_channel, params, n_levels)
        result = policy_iteration(model)
        bound = upper_bound(model, result)
        print(f"{header}{n_levels},{bound:.12g}")
        header = ""
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    h_channel, g_channel = config.channels()
    params = config.system_params()
    result = simulate_original(
        make_heuristic_policy(g_channel, params),
        h_channel,
        g_channel,
        params,
        SimulationConfig(blocks=config.blocks, seed=config.seed),
    )
    _write_text(args.out, RESULT_CSV_HEADER + "\n" + result.csv_row() + "\n")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    rows = run_sweep(config)
    _write_text(config.out, rows_to_csv(rows))
    for row in rows:
        if row.status != "ok":
            print(
                f"sweep_value={row.sweep_value:g} n_levels={row.n_levels}: "
                f"{row.error}",
                file=sys.stderr,
            )
    try:
        for line in report_gains(rows).format_lines():
            print(line)
    except ValueError:
        pass  # fewer than two successful sweep points: nothing to report
    return 0 if all(row.status == "ok" for row in rows) else 1


_COMMANDS = {
    "channel": _cmd_channel,
    "heuristic": _cmd_heuristic,
    "bound": _cmd_bound,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
