import pytest

import swipt_relay.cli as cli_module
import swipt_relay.experiment as experiment_module
from swipt_relay import (
    SimulationConfig,
    heuristic_average_success,
    make_heuristic_policy,
    quantize_equiprobable_exponential,
    simulate_original,
)
from swipt_relay.cli import build_parser, main
from swipt_relay.experiment import SWEEP_CSV_HEADER, ExperimentConfig


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
