"""Command-line interface.

One verb per capability: `channel` dumps the quantized alphabet,
`heuristic` evaluates the draining policy's closed form, `bound` solves
the finite-state upper bound, `simulate` runs the Monte Carlo under the
heuristic policy, and `sweep` produces the full experiment CSV.
"""

import argparse
import functools
import sys
from concurrent.futures import BrokenExecutor

from .experiment import (
    CONFIG_PARSERS,
    SWEEP_AXES,
    ExperimentConfig,
    _simulate_heuristic,
    _solve_bound,
    parse_config,
    report_gains,
    rows_to_csv,
    run_sweep,
)
from .mdp import MultichainSuspectedError, NonConvergenceError
from .relay import heuristic_average_success
from .simulate import RESULT_CSV_HEADER

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


# channel and simulate write to --out directly; it is not the config key out
_OUT_HELP = "output path, '-' for stdout"


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
    p_channel.add_argument("--out", dest="out_path", default="-", help=_OUT_HELP)

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
    p_sim.add_argument("--out", dest="out_path", default="-", help=_OUT_HELP)

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
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key in CONFIG_PARSERS and value is not None
    }
    return parse_config(args.config, overrides)


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _cmd_channel(args: argparse.Namespace, config: ExperimentConfig) -> int:
    channel, _ = config.channels()
    lines = ["index,gain,probability"]
    for i, (gain, prob) in enumerate(zip(channel.gains, channel.pmf)):
        lines.append(f"{i},{gain:.12g},{prob:.12g}")
    _write_text(args.out_path, "\n".join(lines) + "\n")
    return 0


def _cmd_heuristic(args: argparse.Namespace, config: ExperimentConfig) -> int:
    value = heuristic_average_success(*config.channels(), config.system_params())
    print(format(value, ".12g"))
    return 0


def _cmd_bound(args: argparse.Namespace, config: ExperimentConfig) -> int:
    channels, params = config.channels(), config.system_params()
    header = "n_levels,p_upper_bound\n"  # printed with the first bound
    for n_levels in config.n_levels:
        bound = _solve_bound(channels, params, n_levels)
        print(f"{header}{n_levels},{bound:.12g}")
        header = ""
    return 0


def _cmd_simulate(args: argparse.Namespace, config: ExperimentConfig) -> int:
    result = _simulate_heuristic(
        config.channels(), config.system_params(), config.blocks, config.seed
    )
    _write_text(args.out_path, RESULT_CSV_HEADER + "\n" + result.csv_row() + "\n")
    return 0


def _cmd_sweep(args: argparse.Namespace, config: ExperimentConfig) -> int:
    rows = run_sweep(config)
    _write_text(config.out, rows_to_csv(rows))
    for row in rows:
        if row.status != "ok":
            print(
                f"sweep_value={row.sweep_value:g} n_levels={row.n_levels}: "
                f"{row.error}",
                file=sys.stderr,
            )
    for line in report_gains(rows):
        print(line)
    return 0 if all(row.status == "ok" for row in rows) else 1


_COMMANDS = {
    "channel": _cmd_channel,
    "heuristic": _cmd_heuristic,
    "bound": _cmd_bound,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
}


# parsing leaves the parser as it was, so one serves every call of main
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, _config_from_args(args))
    except (
        ValueError, OSError, MultichainSuspectedError, NonConvergenceError,
        BrokenExecutor,  # a sweep worker died, e.g. killed for memory
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
