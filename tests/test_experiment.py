from dataclasses import fields, replace

import numpy as np
import pytest

import swipt_relay.experiment as experiment_module
import swipt_relay.relay as relay_module
from swipt_relay import (
    ExperimentConfig,
    SweepRow,
    parse_config,
    report_gains,
    rows_to_csv,
    run_sweep,
)
from swipt_relay.experiment import SWEEP_CSV_HEADER

SMALL = dict(
    n_channel_states=20,
    n_levels=(3,),
    battery_sweep=(2.0, 4.0),
    blocks=2000,
    seed=99,
)


class TestExperimentConfig:
    def test_defaults_match_documentation(self):
        config = ExperimentConfig()
        assert config.n_channel_states == 200
        assert config.n_levels == (5, 9)
        assert config.sweep == "battery"
        assert config.battery_sweep == (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0)
        assert config.power_sweep == (0.5, 1.0, 2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(battery_sweep=()),
            dict(power_sweep=()),
            dict(n_levels=()),
            dict(n_levels=(0,)),
            dict(n_levels=(1,)),
            dict(sweep="voltage"),
            dict(noise_power=0.0),
            dict(conversion_efficiency=1.0),
            dict(blocks=0),
            dict(workers=0),
            dict(n_channel_states=0),
            dict(source_power=float("nan")),
            dict(rate=float("inf")),
            dict(battery_sweep=(2.0, float("nan"))),
            dict(power_sweep=(float("inf"),)),
            dict(sweep="power", battery_sweep=(-1.0,)),
            dict(seed=-1),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(n_levels=(5, 4.5)), "n_levels must be an integer, got 4.5"),
            (dict(blocks=2.5), "blocks must be an integer, got 2.5"),
            (dict(seed=1.5), "seed must be an integer, got 1.5"),
            (dict(workers=1.5), "workers must be an integer, got 1.5"),
        ],
        ids=["n_levels", "blocks", "seed", "workers"],
    )
    def test_rejects_non_integer_counts(self, kwargs, message):
        # each would otherwise fail every sweep cell deep in numpy or the pool
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**kwargs)

    def test_system_params_tracks_sweep_axis(self):
        config = ExperimentConfig(sweep="power")
        point = config.system_params(0.5)
        assert point.source_power == 0.5
        assert point.battery_capacity == config.battery_capacity
        battery_cfg = ExperimentConfig(sweep="battery")
        point = battery_cfg.system_params(4.0)
        assert point.battery_capacity == 4.0
        assert point.source_power == battery_cfg.source_power


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("", encoding="utf-8")
        config = parse_config(str(path))
        assert config.n_channel_states == 200

    def test_file_values_parsed(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment setup\n"
            "source_power = 2.0\n"
            "n_levels = 3,5  # two grids\n"
            "battery_sweep = 1,2,3\n"
            "sweep = battery\n"
            "blocks = 1234\n",
            encoding="utf-8",
        )
        config = parse_config(str(path))
        assert config.source_power == 2.0
        assert config.n_levels == (3, 5)
        assert config.battery_sweep == (1.0, 2.0, 3.0)
        assert config.blocks == 1234

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        # as some editors save UTF-8; the mark is not part of the first key
        path = tmp_path / "bom.cfg"
        path.write_text("\ufeffsource_power = 2\n", encoding="utf-8")
        assert parse_config(str(path)).source_power == 2.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("voltage = 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(str(path))

    def test_malformed_number_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("blocks = twelve\n", encoding="utf-8")
        with pytest.raises(ValueError, match="could not parse"):
            parse_config(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("blocks\n", encoding="utf-8")
        with pytest.raises(ValueError, match="key = value"):
            parse_config(str(path))

    def test_override_beats_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("blocks = 10\n", encoding="utf-8")
        config = parse_config(str(path), {"blocks": 20})
        assert config.blocks == 20

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration keys"):
            parse_config(None, {"volts": 3})

    def test_every_key_parses_back_to_its_default(self, tmp_path):
        defaults = ExperimentConfig()
        lines = []
        for field in fields(ExperimentConfig):
            value = getattr(defaults, field.name)
            text = ",".join(map(repr, value)) if isinstance(value, tuple) else value
            lines.append(f"{field.name} = {text}\n")
        path = tmp_path / "defaults.cfg"
        path.write_text("".join(lines), encoding="utf-8")
        # repr tells 2 from 2.0, so each value also keeps its type
        assert repr(parse_config(str(path))) == repr(defaults)

    def test_empty_sweep_axis_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("battery_sweep =\n", encoding="utf-8")
        with pytest.raises(ValueError, match="battery_sweep"):
            parse_config(str(path))


class TestRunSweep:
    def test_row_count_and_schema(self):
        config = ExperimentConfig(**SMALL)
        rows = run_sweep(config)
        assert len(rows) == len(config.battery_sweep) * len(config.n_levels)
        csv_text = rows_to_csv(rows)
        lines = csv_text.splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + len(rows)
        assert all(row.status == "ok" for row in rows)

    def test_rows_in_sweep_order(self):
        config = ExperimentConfig(**SMALL)
        rows = run_sweep(config)
        expected = [
            (value, n)
            for value in config.battery_sweep
            for n in config.n_levels
        ]
        assert [(r.sweep_value, r.n_levels) for r in rows] == expected

    def test_bound_dominates_heuristic_on_ok_rows(self):
        rows = run_sweep(ExperimentConfig(**SMALL))
        for row in rows:
            assert row.p_upper_bound >= row.p_heuristic_analytic - 1e-9

    def test_deterministic_output(self):
        config = ExperimentConfig(**SMALL)
        assert rows_to_csv(run_sweep(config)) == rows_to_csv(run_sweep(config))

    def test_channels_built_once_per_sweep(self, monkeypatch):
        config = ExperimentConfig(**{**SMALL, "battery_sweep": (2.0, 4.0, 6.0)})
        built = []
        real = experiment_module.quantize_equiprobable_exponential

        def counting(n_states):
            built.append(n_states)
            return real(n_states)

        monkeypatch.setattr(
            experiment_module, "quantize_equiprobable_exponential", counting
        )
        rows = run_sweep(config)
        assert built == [config.n_channel_states]
        assert all(row.status == "ok" for row in rows)

    def test_delivery_table_built_once_per_sweep(self):
        # every point shares the g alphabet and the delivery threshold
        relay_module._delivery_table.cache_clear()
        rows = run_sweep(ExperimentConfig())
        assert relay_module._delivery_table.cache_info().misses == 1
        assert len(rows) == 16 and all(row.status == "ok" for row in rows)

    def test_worker_pool_matches_serial(self):
        serial = ExperimentConfig(**SMALL)
        pooled = ExperimentConfig(**{**SMALL, "workers": 2})
        assert rows_to_csv(run_sweep(serial)) == rows_to_csv(run_sweep(pooled))

    @pytest.mark.parametrize(
        "sweep, workers, pool_size",
        [((2.0, 4.0), 100_000, 2), ((2.0, 4.0, 6.0), 2, 2), ((2.0,), 8, None)],
    )
    def test_pool_never_exceeds_the_sweep_values(
        self, monkeypatch, sweep, workers, pool_size
    ):
        # a forking pool can start every worker at the first submit, so
        # --workers 100000 must not ask for 100,000 processes; the stub
        # records the request and maps in process
        requested = []

        class StubPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(
            experiment_module.concurrent.futures, "ProcessPoolExecutor", StubPool
        )
        config = ExperimentConfig(
            **{**SMALL, "battery_sweep": sweep, "workers": workers}
        )
        rows = run_sweep(config)
        assert requested == ([] if pool_size is None else [pool_size])
        assert rows_to_csv(rows) == rows_to_csv(
            run_sweep(ExperimentConfig(**{**SMALL, "battery_sweep": sweep}))
        )

    def test_power_axis(self):
        config = ExperimentConfig(
            sweep="power",
            power_sweep=(0.5, 1.0),
            n_channel_states=20,
            n_levels=(3,),
            blocks=2000,
        )
        rows = run_sweep(config)
        assert [r.sweep_value for r in rows] == [0.5, 1.0]
        assert all(r.sweep_param == "power" for r in rows)

    def test_failed_cell_is_isolated(self, monkeypatch):
        real_build = experiment_module.build_mdp

        def flaky_build(h_channel, g_channel, params, n_levels, *args, **kwargs):
            if params.battery_capacity == 4.0:
                raise RuntimeError("synthetic solver failure")
            return real_build(h_channel, g_channel, params, n_levels, *args, **kwargs)

        monkeypatch.setattr(experiment_module, "build_mdp", flaky_build)
        rows = run_sweep(ExperimentConfig(**SMALL))
        by_value = {row.sweep_value: row for row in rows}
        assert by_value[2.0].status == "ok"
        assert by_value[4.0].status == "failed"
        assert "synthetic solver failure" in by_value[4.0].error
        assert np.isnan(by_value[4.0].p_upper_bound)
        # the heuristic columns survive a bound failure
        assert not np.isnan(by_value[4.0].p_heuristic_analytic)


def make_row(value, n_levels, heuristic, bound, status="ok"):
    return SweepRow(
        sweep_param="battery",
        sweep_value=value,
        n_levels=n_levels,
        p_heuristic_analytic=heuristic,
        p_heuristic_sim=heuristic,
        p_heuristic_sim_stderr=0.001,
        p_upper_bound=bound,
        status=status,
    )


class TestReportGains:
    def test_thirty_percent_gain(self):
        rows = [make_row(4.0, 5, 0.15, 0.2), make_row(10.0, 5, 0.18, 0.26)]
        assert report_gains(rows) == [
            "bound gain (n_levels=5) 4 -> 10: 30%",
            "bound vs heuristic at 4 (n_levels=5): 33.3333%",
            "bound vs heuristic at 10 (n_levels=5): 44.4444%",
        ]

    def test_equal_bounds_give_zero_gain(self):
        rows = [make_row(4.0, 5, 0.1, 0.2), make_row(10.0, 5, 0.1, 0.2)]
        assert report_gains(rows)[0] == "bound gain (n_levels=5) 4 -> 10: 0%"

    def test_zero_heuristic_reports_undefined(self):
        rows = [make_row(4.0, 5, 0.0, 0.2), make_row(10.0, 5, 0.1, 0.25)]
        assert report_gains(rows)[1:] == [
            "bound vs heuristic at 4 (n_levels=5): undefined",
            "bound vs heuristic at 10 (n_levels=5): 150%",
        ]

    def test_zero_bound_base_reports_undefined(self):
        rows = [make_row(4.0, 5, 0.1, 0.0), make_row(10.0, 5, 0.1, 0.25)]
        assert report_gains(rows)[0] == "bound gain (n_levels=5) 4 -> 10: undefined"

    def test_reports_nothing_below_two_sweep_points(self):
        assert report_gains([make_row(4.0, 5, 0.1, 0.2)]) == []

    def test_failed_rows_are_skipped(self):
        rows = [
            make_row(2.0, 5, 0.1, 0.15),
            make_row(4.0, 5, float("nan"), float("nan"), status="failed"),
            make_row(10.0, 5, 0.2, 0.3),
        ]
        assert report_gains(rows) == [
            "bound gain (n_levels=5) 2 -> 10: 100%",
            "bound vs heuristic at 2 (n_levels=5): 50%",
            "bound vs heuristic at 10 (n_levels=5): 50%",
        ]

    def test_tracks_by_levels(self):
        rows = [
            make_row(2.0, 5, 0.1, 0.2),
            make_row(2.0, 9, 0.1, 0.18),
            make_row(4.0, 5, 0.1, 0.24),
            make_row(4.0, 9, 0.1, 0.2),
        ]
        gains = [line for line in report_gains(rows) if line.startswith("bound gain")]
        assert gains == [
            "bound gain (n_levels=5) 2 -> 4: 20%",
            f"bound gain (n_levels=9) 2 -> 4: {100.0 * (0.2 - 0.18) / 0.18:.6g}%",
        ]


class TestCsvFormatting:
    def test_header_is_the_recorded_column_list(self):
        assert SWEEP_CSV_HEADER == (
            "sweep_param,sweep_value,n_levels,p_heuristic_analytic,"
            "p_heuristic_sim,p_heuristic_sim_stderr,p_upper_bound,status"
        )

    def test_columns_follow_the_declared_field_types(self):
        # sweep_value is declared float: an int value still prints as one
        row = replace(make_row(4.0, 5, 0.25, 0.5), sweep_value=10**13)
        assert row.csv_row() == "battery,1e+13,5,0.25,0.25,0.001,0.5,ok"

    def test_twelve_significant_digits(self):
        row = make_row(4.0, 5, 1.0 / 3.0, 2.0 / 3.0)
        text = row.csv_row()
        assert "0.333333333333" in text
        assert "0.666666666667" in text

    def test_nan_serializes_as_nan(self):
        row = make_row(4.0, 5, float("nan"), float("nan"), status="failed")
        assert ",nan," in row.csv_row()
