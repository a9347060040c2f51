import csv
import hashlib
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import swipt_relay.cli as cli_module
import swipt_relay.experiment as experiment_module
from swipt_relay import (
    MultichainSuspectedError,
    NonConvergenceError,
    SimulationConfig,
    heuristic_average_success,
    make_heuristic_policy,
    quantize_equiprobable_exponential,
    simulate_original,
)
from swipt_relay.cli import build_parser, main
from swipt_relay.experiment import SWEEP_CSV_HEADER, ExperimentConfig
from swipt_relay.relay import _PHYSICS


def run_cli(args):
    return main(args)


def assert_one_line_usage_error(capsys, args):
    """A command line argparse rejects exits 2 with one `error:` line."""
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
        )
        assert set(sub.choices) == {"channel", "heuristic", "bound", "simulate", "sweep"}

    def test_parser_is_built_once(self):
        assert cli_module._parser() is cli_module._parser()
        assert build_parser() is not cli_module._parser()

    def test_every_physics_field_has_its_flag_in_order(self):
        assert tuple(name for name, _ in cli_module._PHYSICS_FLAGS) == _PHYSICS

    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([])
        assert exc.value.code == 2
        capsys.readouterr()


class TestChannelCommand:
    def test_stdout_csv(self, capsys):
        assert run_cli(["channel", "--channel-states", "4"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "index,gain,probability"
        assert len(lines) == 5
        channel = quantize_equiprobable_exponential(4)
        for i, line in enumerate(lines[1:]):
            index, gain, prob = line.split(",")
            assert int(index) == i
            assert float(gain) == pytest.approx(channel.gains[i], rel=1e-11)
            assert float(prob) == 0.25

    def test_file_output(self, tmp_path, capsys):
        out = tmp_path / "alphabet.csv"
        assert run_cli(["channel", "--channel-states", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "index,gain,probability"
        assert len(lines) == 4


class TestHeuristicCommand:
    def test_prints_closed_form(self, capsys):
        assert run_cli(["heuristic", "--channel-states", "30"]) == 0
        printed = float(capsys.readouterr().out.strip())
        channel = quantize_equiprobable_exponential(30)
        config = ExperimentConfig(n_channel_states=30)
        expected = heuristic_average_success(channel, channel, config.system_params())
        assert printed == pytest.approx(expected, rel=1e-11)


class TestBoundCommand:
    def test_prints_bound_per_level(self, capsys):
        assert run_cli(["bound", "--channel-states", "10", "--levels", "3,5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n_levels,p_upper_bound"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [3, 5]
        for line in lines[1:]:
            assert 0.0 <= float(line.split(",")[1]) <= 1.0


    def test_fine_grid_bound_succeeds(self, capsys):
        # 33 levels x 200 channel states; the bound the full-chain dense
        # solve gives for this cell is 0.9728992138156156
        assert run_cli(["bound", "--levels", "33"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].startswith("33,")
        assert float(lines[1].split(",")[1]) == pytest.approx(
            0.9728992138156156, abs=1e-12
        )

    def test_unparsable_flag_value_is_one_error_line(self, capsys):
        err = assert_one_line_usage_error(capsys, ["bound", "--levels", "3,x"])
        assert "--levels" in err and "'3,x'" in err

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        def huge_build(*args, **kwargs):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        monkeypatch.setattr(cli_module, "build_mdp", huge_build)
        assert run_cli(["bound", "--levels", "100000"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: out of memory: Unable to allocate 298. GiB for an array\n"
        )
        assert captured.out == ""  # no CSV header without a bound

    @pytest.mark.parametrize("error", [MultichainSuspectedError, NonConvergenceError])
    def test_solver_failure_is_one_error_line(self, capsys, monkeypatch, error):
        def failing_solver(*args, **kwargs):
            raise error("policy iteration failed")

        monkeypatch.setattr(cli_module, "policy_iteration", failing_solver)
        assert run_cli(["bound", "--levels", "5", "--channel-states", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: policy iteration failed\n"
        assert captured.out == ""

    def test_multichain_cell_is_one_error_line_after_the_solved_rows(self, capsys):
        # N = 33 at this operating point evaluates a rule whose chain has
        # more than one recurrent class
        args = ["bound", "--channel-states", "20", "--source-power", "0.5"]
        args += ["--battery-capacity", "6", "--levels", "9,33"]
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "n_levels,p_upper_bound\n9,0.95\n"
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


class TestSimulateCommand:
    def test_matches_library_run(self, capsys):
        assert (
            run_cli(
                [
                    "simulate",
                    "--channel-states",
                    "25",
                    "--blocks",
                    "4000",
                    "--seed",
                    "17",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "seed,M,mean,stderr"
        seed, blocks, mean, stderr = lines[1].split(",")
        channel = quantize_equiprobable_exponential(25)
        config = ExperimentConfig(n_channel_states=25, blocks=4000, seed=17)
        params = config.system_params()
        expected = simulate_original(
            make_heuristic_policy(channel, params),
            channel,
            channel,
            params,
            SimulationConfig(blocks=4000, seed=17),
        )
        assert int(seed) == 17 and int(blocks) == 4000
        assert float(mean) == pytest.approx(expected.mean, rel=1e-11)
        assert float(stderr) == pytest.approx(expected.stderr, rel=1e-9)


@pytest.mark.parametrize(
    "command", [["channel", "--channel-states", "3"], ["simulate", "--blocks", "100"]]
)
def test_out_is_a_direct_path_that_config_out_does_not_redirect(
    tmp_path, capsys, command
):
    # a config file's out is the sweep CSV path, not channel's or simulate's
    cfg = tmp_path / "run.cfg"
    redirected = tmp_path / "redirected.csv"
    cfg.write_text(f"out = {redirected}\n", encoding="utf-8")
    assert run_cli(command + ["--config", str(cfg)]) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "direct.csv"
    assert run_cli(command + ["--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == stdout
    assert stdout.count("\n") >= 2
    assert not redirected.exists()


SWEEP_ARGS = [
    "sweep",
    "--channel-states",
    "15",
    "--levels",
    "3",
    "--battery-sweep",
    "2,4",
    "--blocks",
    "1500",
    "--seed",
    "5",
]


class TestSweepCommand:
    def test_writes_csv_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli(SWEEP_ARGS + ["--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 3
        assert all(line.endswith("ok") for line in lines[1:])

    def test_two_workers_write_the_serial_csv(self, tmp_path, capsys):
        serial = tmp_path / "serial.csv"
        pooled = tmp_path / "pooled.csv"
        assert run_cli(SWEEP_ARGS + ["--workers", "1", "--out", str(serial)]) == 0
        assert run_cli(SWEEP_ARGS + ["--workers", "2", "--out", str(pooled)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == pooled.read_bytes()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli(SWEEP_ARGS + ["--out", str(first)]) == 0
        assert run_cli(SWEEP_ARGS + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "n_channel_states = 15\nn_levels = 3\nbattery_sweep = 2,4\n"
            "blocks = 1500\nseed = 1\n",
            encoding="utf-8",
        )
        out = tmp_path / "sweep.csv"
        assert (
            run_cli(
                [
                    "sweep",
                    "--config",
                    str(cfg),
                    "--seed",
                    "5",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        # seed 5 beats the file's seed 1: identical to the all-flags run
        reference = tmp_path / "ref.csv"
        assert run_cli(SWEEP_ARGS + ["--out", str(reference)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == reference.read_bytes()

    def test_failed_rows_flip_exit_code(self, tmp_path, capsys, monkeypatch):
        def broken_build(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(experiment_module, "build_mdp", broken_build)
        out = tmp_path / "sweep.csv"
        assert run_cli(SWEEP_ARGS + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "synthetic failure" in err
        assert "failed" in out.read_text(encoding="utf-8")

    def test_dead_worker_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # what a pool reports when a worker is killed, e.g. for memory; the
        # stub raises it from map, so no process starts
        class DeadPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                raise BrokenProcessPool("a worker process died")

        monkeypatch.setattr(
            experiment_module.concurrent.futures, "ProcessPoolExecutor", DeadPool
        )
        out = tmp_path / "sweep.csv"
        assert run_cli(SWEEP_ARGS + ["--workers", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a worker process died\n"
        assert not out.exists()

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("volts = 3\n", encoding="utf-8")
        assert run_cli(["sweep", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, capsys):
        assert run_cli(["sweep", "--config", "/nonexistent/path.cfg"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags, file_text",
        [
            (
                ["--levels", "3,4", "--battery-sweep", "2,4"],
                "n_levels = 3,4\nbattery_sweep = 2,4\n",
            ),
            (
                ["--sweep", "power", "--levels", "3", "--power-sweep", "0.5,1"],
                "sweep = power\nn_levels = 3\npower_sweep = 0.5,1\n",
            ),
        ],
    )
    def test_flags_match_config_file(self, tmp_path, capsys, flags, file_text):
        by_flags = tmp_path / "flags.csv"
        by_file = tmp_path / "file.csv"
        flag_args = ["--channel-states", "15", "--blocks", "1500", "--seed", "5"]
        assert run_cli(["sweep", *flag_args, *flags, "--out", str(by_flags)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"n_channel_states = 15\nblocks = 1500\nseed = 5\nout = {by_file}\n"
            + file_text,
            encoding="utf-8",
        )
        assert run_cli(["sweep", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert by_flags.read_bytes() == by_file.read_bytes()

    def test_negative_seed_exits_two_before_work(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli(SWEEP_ARGS + ["--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "seed" in err
        assert not out.exists()

    def test_dash_value_is_one_error_line(self, capsys):
        # argparse reads -inf as an option, not as the flag's value
        err = assert_one_line_usage_error(
            capsys, ["sweep", "--battery-capacity", "-inf"]
        )
        assert "--battery-capacity" in err

    def test_nan_sweep_value_exits_two_before_work(self, tmp_path, capsys, monkeypatch):
        calls = []

        def no_simulation(*args, **kwargs):
            calls.append(args)
            raise AssertionError("simulate_original must not run")

        monkeypatch.setattr(experiment_module, "simulate_original", no_simulation)
        out = tmp_path / "sweep.csv"
        args = SWEEP_ARGS + ["--battery-sweep", "2,nan", "--out", str(out)]
        assert run_cli(args) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "battery_sweep" in err
        assert not out.exists()


# p_heuristic_sim and p_heuristic_sim_stderr of
# `sweep --seed 5 --blocks 20000 --channel-states 50`, one pair per battery
# point (both grid resolutions share the heuristic's run), as the
# simulator that scores each block's delivery probability wrote them.
PINNED_SIM_COLUMNS = {
    "2": ("0.894132", "0.00129475254316"),
    "4": ("0.89633", "0.00125929974462"),
    "6": ("0.896651", "0.00126424369706"),
    "8": ("0.896658", "0.00126945268809"),
    "10": ("0.894041", "0.0012886506691"),
    "12": ("0.89665", "0.00126843498902"),
    "14": ("0.894984", "0.00127654512869"),
    "16": ("0.896414", "0.00127728328997"),
}


class TestPinnedMonteCarlo:
    def test_sweep_simulation_columns_match_recorded_values(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--seed", "5", "--blocks", "20000", "--channel-states", "50"]
        assert run_cli(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        with out.open(encoding="utf-8", newline="") as handle:
            got = [
                (
                    row["sweep_value"],
                    row["n_levels"],
                    row["p_heuristic_sim"],
                    row["p_heuristic_sim_stderr"],
                )
                for row in csv.DictReader(handle)
            ]
        want = [
            (battery, n_levels, *PINNED_SIM_COLUMNS[battery])
            for battery in PINNED_SIM_COLUMNS
            for n_levels in ("5", "9")
        ]
        assert got == want


# Output pinned across commits: per command line, its exact stdout, or
# for a sweep the sha256 of the CSV it writes (its printed gain lines are
# not pinned, since their last digits follow the platform's LAPACK).
_BOUND = "n_levels,p_upper_bound\n"
_SIMULATE = "seed,M,mean,stderr\n"
_NO_DELIVERY = [
    "--channel-states", "50", "--source-power", "0.05", "--battery-capacity", "0.02"
]
PINNED_OUTPUT = {
    "simulate": (
        ["simulate", "--blocks", "100000", "--seed", "7"],
        _SIMULATE + "7,100000,0.8951872,0.000576166299117\n",
    ),
    # a run of many slices
    "simulate_many_slices": (
        ["simulate", "--blocks", "20000000", "--seed", "7"],
        _SIMULATE + "7,20000000,0.8945771765,4.0987775472e-05\n",
    ),
    # a run that ends before it has seen every channel state
    "simulate_unseen_states": (
        ["simulate", "--channel-states", "1000", "--blocks", "3000", "--seed", "3"],
        _SIMULATE + "3,3000,0.887798,0.00348830233061\n",
    ),
    "bound": (
        ["bound", "--levels", "5,9,33"],
        _BOUND + "5,0.981674988405\n9,0.980274999407\n33,0.972899213816\n",
    ),
    # grids that build and improve the model over many blocks
    "bound_many_blocks": (
        ["bound", "--levels", "65,129"],
        _BOUND + "65,0.968099701518\n129,0.9643998395\n",
    ),
    # full harvesting decodes in some states and the split in the others
    "bound_mixed_decoding": (
        ["bound", "--source-power", "4", "--noise-power", "1e-16"]
        + ["--battery-capacity", "2e-15", "--channel-states", "50", "--levels", "5,9"],
        _BOUND + "5,0.7\n9,0.7\n",
    ),
    # the relay decodes in some empty-battery states but cannot deliver
    "heuristic_no_delivery": (["heuristic", *_NO_DELIVERY], "0.3324\n"),
    "bound_no_delivery": (
        ["bound", *_NO_DELIVERY, "--levels", "5,9,33"],
        _BOUND + "5,0.456211584\n9,0.419862971049\n33,0.383543282326\n",
    ),
    "sweep": (
        ["sweep", "--blocks", "20000", "--seed", "5"],
        "c489e08e32fd3a033cbf75f8cbb7adfb84d95639bd8f24ec024a663914822c5b",
    ),
}


@pytest.mark.parametrize("args, want", PINNED_OUTPUT.values(), ids=PINNED_OUTPUT)
def test_pinned_output(tmp_path, capsys, args, want):
    out = tmp_path / "pin.csv"
    sweep = args[0] == "sweep"
    assert run_cli(args + ["--out", str(out)] if sweep else args) == 0
    printed = capsys.readouterr().out
    assert (hashlib.sha256(out.read_bytes()).hexdigest() if sweep else printed) == want


def assert_one_error_line(capsys, args, start):
    """The command exits 2 with one `error:` line; returns its stdout."""
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(start) and captured.err.count("\n") == 1
    return captured.out


@pytest.fixture
def no_stage_runs(monkeypatch):
    """Make every computing stage fail the test if it is called."""

    def no_work(*args, **kwargs):
        raise AssertionError("no stage may run")

    for name in ("build_mdp", "heuristic_average_success", "simulate_original"):
        monkeypatch.setattr(cli_module, name, no_work)
        monkeypatch.setattr(experiment_module, name, no_work)


# a block so long that the harvest overflows, at a finite delivery threshold
HUGE_BLOCK = [
    "--block-duration", "1e308", "--source-power", "100", "--noise-power", "1e-300"
]


class TestOverflowingPhysics:
    @pytest.mark.parametrize(
        "command", ["channel", "heuristic", "bound", "simulate", "sweep"]
    )
    def test_overflowing_rate_exits_two_before_work(
        self, tmp_path, capsys, no_stage_runs, command
    ):
        out = tmp_path / "out.csv"
        args = [command, "--rate", "600"]
        if command in ("channel", "simulate", "sweep"):
            args += ["--out", str(out)]
        assert assert_one_error_line(capsys, args, "error: rate 600 ") == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bound", "sweep"])
    def test_single_level_grid_exits_two_before_work(
        self, tmp_path, capsys, no_stage_runs, command
    ):
        # the config rejects a level count with build_mdp's own message
        out = tmp_path / "out.csv"
        args = [command, "--levels", "5,1"]
        if command == "sweep":
            args += ["--out", str(out)]
        message = "error: n_levels must be at least 2, got 1\n"
        assert assert_one_error_line(capsys, args, message) == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["heuristic", "bound", "simulate"])
    def test_overflowing_received_power_exits_two(self, capsys, command):
        args = [command, "--source-power", "1e308", "--channel-states", "20"]
        stdout = assert_one_error_line(
            capsys, args, "error: received power gain * source_power overflows ("
        )
        assert stdout == ""

    @pytest.mark.parametrize(
        "sweep_args, start",
        [
            (["--source-power", "1e308"], "error: received power "),
            (
                ["--sweep", "power", "--power-sweep", "1,1e308"],
                "error: power_sweep: received power ",
            ),
        ],
        ids=["operating_point", "power_sweep"],
    )
    def test_overflowing_received_power_fails_the_sweep_before_work(
        self, tmp_path, capsys, no_stage_runs, sweep_args, start
    ):
        out = tmp_path / "out.csv"
        args = ["sweep", *sweep_args, "--channel-states", "20", "--out", str(out)]
        assert assert_one_error_line(capsys, args, start) == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, expected",
        [
            (
                ["bound", "--battery-capacity", "1e308", "--levels", "5"],
                "n_levels,p_upper_bound\n5,0.985\n",
            ),
            (["heuristic", *HUGE_BLOCK], "0\n"),
            (["bound", *HUGE_BLOCK], "n_levels,p_upper_bound\n5,0\n9,0\n"),
        ],
        ids=["bound_capacity", "heuristic_block", "bound_block"],
    )
    def test_overflowing_products_decide_without_warnings(
        self, capsys, args, expected
    ):
        # the harvest or u * g overflows to inf: a full battery, or a delivery
        assert main(args) == 0
        assert capsys.readouterr() == (expected, "")

    def test_overflowing_products_sweep_without_warnings(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        args = ["sweep", "--battery-sweep", "1e307,1e308", "--channel-states", "20"]
        assert main(args + ["--blocks", "2000", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().splitlines()[1:] == [
            "battery,1e+307,5,0.895,0.895575,0.00423863984332,1,ok",
            "battery,1e+307,9,0.895,0.895575,0.00423863984332,1,ok",
            "battery,1e+308,5,0.895,0.8881,0.00448865447651,1,ok",
            "battery,1e+308,9,0.895,0.8881,0.00448865447651,1,ok",
        ]

    @pytest.mark.parametrize(
        "command", ["channel", "heuristic", "bound", "simulate", "sweep"]
    )
    @pytest.mark.parametrize(
        "physics, start",
        [
            (["--rate", "1e-17"], "error: rate 1e-17 "),
            (
                ["--noise-power", "5e-324", "--block-duration", "0.1"],
                "error: rate 1.5 ",
            ),
        ],
        ids=["rate", "noise_power"],
    )
    def test_vanishing_threshold_exits_two_before_work(
        self, tmp_path, capsys, no_stage_runs, command, physics, start
    ):
        out = tmp_path / "out.csv"
        args = [command, *physics]
        if command in ("channel", "simulate", "sweep"):
            args += ["--out", str(out)]
        assert assert_one_error_line(capsys, args, start) == ""
        assert not out.exists()


def test_bound_runs_without_scipy():
    """numpy is the only runtime dependency: a fresh interpreter that
    imports the CLI and solves a bound never loads scipy."""
    script = (
        "import sys\n"
        "from swipt_relay.cli import main\n"
        "status = main(['bound', '--levels', '5', '--channel-states', '20'])\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "print(status, *loaded, file=sys.stderr)\n"
    )
    done = run_fresh(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("n_levels,p_upper_bound\n5,")
    assert done.stderr.split() == ["0"]


def test_random_module_loads_only_for_simulation():
    """The bound-only commands never draw a random number, so a fresh
    interpreter running them does not load numpy.random; a simulation
    then loads it and prints its pinned row."""
    script = (
        "import sys\n"
        "import swipt_relay\n"
        "from swipt_relay.cli import main\n"
        "for argv in (\n"
        "    ['bound', '--levels', '5', '--channel-states', '20'],\n"
        "    ['heuristic', '--channel-states', '20'],\n"
        "    ['channel', '--channel-states', '3'],\n"
        "    ['simulate', '--blocks', '2000', '--channel-states', '20', '--seed', '5'],\n"
        "):\n"
        "    print(main(argv), 'numpy.random' in sys.modules, file=sys.stderr)\n"
    )
    done = run_fresh(script)
    assert done.returncode == 0, done.stderr
    assert done.stderr.split() == ["0", "False"] * 3 + ["0", "True"]
    assert done.stdout.endswith(
        "seed,M,mean,stderr\n5,2000,0.8868,0.00456955363358\n"
    )


@pytest.mark.parametrize("setting, kept", [(None, "1"), ("2", "2")])
def test_import_pins_one_blas_thread_unless_the_caller_set_one(setting, kept):
    """Importing the package sets OPENBLAS_NUM_THREADS to 1 where the
    caller left it unset, and keeps the caller's own value."""
    script = (
        "import os\n"
        "import swipt_relay\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    done = run_fresh(script, env=blas_env(setting))
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{kept}\n"


def test_loaded_openblas_runs_one_thread():
    """The pin is set before numpy loads OpenBLAS, so the library itself
    reports one thread (checked where it exports a thread getter)."""
    script = (
        "import ctypes\n"
        "import swipt_relay\n"
        "with open('/proc/self/maps', encoding='utf-8') as handle:\n"
        "    paths = {line.split()[-1] for line in handle if 'openblas' in line.lower()}\n"
        "for path in sorted(paths):\n"
        "    try:\n"
        "        lib = ctypes.CDLL(path)\n"
        "    except OSError:\n"
        "        continue\n"
        "    for symbol in ('scipy_openblas_get_num_threads64_', 'scipy_openblas_get_num_threads',\n"
        "                   'openblas_get_num_threads64_', 'openblas_get_num_threads'):\n"
        "        getter = getattr(lib, symbol, None)\n"
        "        if getter is not None:\n"
        "            getter.restype = ctypes.c_int\n"
        "            getter.argtypes = []\n"
        "            print(getter())\n"
        "            raise SystemExit\n"
    )
    if not Path("/proc/self/maps").is_file():
        pytest.skip("no /proc/self/maps to find the loaded OpenBLAS in")
    done = run_fresh(script, env=blas_env(None))
    assert done.returncode == 0, done.stderr
    if not done.stdout:
        pytest.skip("the loaded BLAS exports no OpenBLAS thread getter")
    assert done.stdout == "1\n"


def test_bound_bits_do_not_follow_the_core_count():
    """The N = 129 bound at the default physics has the same bits whether
    the caller leaves OPENBLAS_NUM_THREADS unset or sets it to 1."""
    script = (
        "from swipt_relay import ExperimentConfig, build_mdp, policy_iteration, upper_bound\n"
        "config = ExperimentConfig()\n"
        "h_channel, g_channel = config.channels()\n"
        "model = build_mdp(h_channel, g_channel, config.system_params(), 129)\n"
        "print(upper_bound(model, policy_iteration(model)).hex())\n"
    )
    bits = []
    for setting in (None, "1"):
        done = run_fresh(script, env=blas_env(setting))
        assert done.returncode == 0, done.stderr
        bits.append(done.stdout)
    assert bits[0] == bits[1]


def blas_env(setting: str | None) -> dict:
    """This process's environment with OPENBLAS_NUM_THREADS set to
    `setting`, or removed when it is None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    return env


def run_fresh(script: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run a Python script in a fresh interpreter that imports the package
    from this source tree, in `env` (default: this process's environment)."""
    env = os.environ if env is None else env
    src = str(Path(cli_module.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**env, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
