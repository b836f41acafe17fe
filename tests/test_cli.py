import csv
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ehaoi
from ehaoi import DomainError, State, StructureReport, UnboundedAgeError, cli
from ehaoi.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SMALL = [
    "--lambda-e", "0.5",
    "--p-block", "0.2",
    "--battery-cap", "3",
    "--cost-reliable", "2",
    "--weight", "10",
    "--delta-max", "30",
]


def _package_env():
    """The environment for a fresh interpreter that imports this package,
    installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(ehaoi.__file__).resolve().parents[1]), env.get("PYTHONPATH")])
    )
    return env


def read_csv(path):
    with open(path, encoding="utf-8") as f:
        return list(csv.reader(f))


class TestSolve:
    def test_writes_thresholds_and_policy_grid(self, tmp_path, capsys):
        out = tmp_path / "thr.csv"
        assert main(["solve", *SMALL, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["q", "threshold"]
        assert len(rows) == 1 + 4
        assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]
        grid = read_csv(tmp_path / "thr_policy.csv")
        assert grid[0] == ["delta", "q", "action"]
        assert len(grid) == 1 + 4 * 30
        assert {r[2] for r in grid[1:]} <= {"0", "1"}
        echoed = capsys.readouterr().out
        assert "gain=" in echoed and "argmin_evals=" in echoed

    def test_out_without_csv_suffix_gets_policy_suffix(self, tmp_path, capsys):
        out = tmp_path / "plain"
        assert main(["solve", *SMALL, "--out", str(out)]) == 0
        assert read_csv(out)[0] == ["q", "threshold"]
        assert read_csv(tmp_path / "plain_policy")[0] == ["delta", "q", "action"]
        assert f"policy grid -> {out}_policy" in capsys.readouterr().out

    def test_lambda_one_writes_threshold_two_below_the_cap(self, tmp_path, capsys):
        # solved by policy iteration like any other model: exact gain
        # 1/(1 - p_block), a zero-width certificate, nothing on stderr
        out = tmp_path / "thr.csv"
        assert main(["solve", *SMALL, "--lambda-e", "1", "--out", str(out)]) == 0
        assert read_csv(out)[1:] == [["0", "21"], ["1", "2"], ["2", "2"], ["3", "1"]]
        captured = capsys.readouterr()
        assert captured.out.startswith("gain=1.25 iterations=5 span_residual=0.000e+00 ")
        assert captured.err == ""

    def test_evaluation_cap_is_no_flag(self, tmp_path, capsys):
        out = tmp_path / "thr.csv"
        with pytest.raises(SystemExit) as exc:
            main(["solve", *SMALL, "--max-iter", "5", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-iter 5" in capsys.readouterr().err
        assert not out.exists()

    def test_negligible_energy_price_transmits_immediately(self, tmp_path):
        out = tmp_path / "thr.csv"
        args = [a for a in SMALL]
        args[args.index("--weight") + 1] = "0.001"
        assert main(["solve", *args, "--out", str(out)]) == 0
        thresholds = {int(r[0]): int(r[1]) for r in read_csv(out)[1:]}
        for q in (1, 2, 3):
            assert thresholds[q] == 1

    def test_invalid_probability_is_usage_error(self, tmp_path, capsys):
        code = main(["solve", *SMALL[:2], "--p-block", "1.0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--weight", "nan"),
            ("--cost-reliable", "nan"),
            ("--weight", "inf"),
            ("--cost-reliable", "1e308"),  # finite, but the price weight * 1e308 is not
        ],
    )
    def test_non_finite_parameter_is_usage_error(
        self, tmp_path, capsys, monkeypatch, flag, value
    ):
        # rejected before the solver starts: a NaN value used to run every
        # sweep and then exit 1 on a NaN residual
        def solver_entered(*args, **kwargs):
            raise AssertionError("the solver ran on a non-finite parameter")

        monkeypatch.setattr(cli, "modified_via", solver_entered)
        args = list(SMALL)
        args[args.index(flag) + 1] = value
        out = tmp_path / "x.csv"
        assert main(["solve", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra, value",
        [
            ("solve", [], "nan"),
            ("solve", [], "inf"),
            ("compare", ["--axis", "weight", "--grid", "1"], "nan"),
        ],
    )
    def test_non_finite_eps_is_usage_error(self, tmp_path, capsys, command, extra, value):
        # NaN used to run every sweep and exit 1, inf to stop after one sweep
        out = tmp_path / "x.csv"
        code = main([command, *SMALL, *extra, "--eps", value, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: eps must be a finite number > 0")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra, out",
        [
            ("solve", [], "missing/x.csv"),
            ("simulate", ["--policy", "zero-wait", "--horizon", "100", "--seed", "1"], "."),
        ],
        ids=["solve-missing-dir", "simulate-directory"],
    )
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, command, extra, out):
        # used to end in a FileNotFoundError or IsADirectoryError traceback
        code = main([command, *SMALL, *extra, "--out", str(tmp_path / out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_out_lost_after_the_check_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # the out directory goes after the early check has passed, while
        # the solver runs, so the write itself fails
        outdir = tmp_path / "gone"
        outdir.mkdir()
        out = outdir / "x.csv"
        solve = cli.modified_via

        def solve_then_remove(*args, **kwargs):
            result = solve(*args, **kwargs)
            shutil.rmtree(outdir)
            return result

        monkeypatch.setattr(cli, "modified_via", solve_then_remove)
        assert main(["solve", *SMALL, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["compare", "--axis", "weight", "--grid", "1", "--simulate", "--horizon", "0"],
             "horizon must be an int >= 1, got 0"),
            (["compare", "--axis", "weight", "--grid", "1", "--simulate", "--seed", "1",
              "--seed", "-2"], "seed must be an int >= 0, got -2"),
            (["compare", "--axis", "weight", "--grid", "1", "--out", "missing/x.csv"],
             "cannot write "),
            (["simulate", "--policy", "optimal", "--horizon", "0"],
             "horizon must be an int >= 1, got 0"),
            (["simulate", "--policy", "optimal", "--seed", "-1"],
             "seed must be an int >= 0, got -1"),
            (["simulate", "--policy", "optimal", "--out", "missing/x.csv"], "cannot write "),
            (["solve", "--out", "missing/x.csv"], "cannot write "),
            (["solve", "--out", "taken.csv"], "cannot write "),  # taken_policy.csv is a directory
            (["sweep", "--axis", "weight", "--grid", "1", "--out", "missing/x.csv"],
             "cannot write "),
            (["verify", "--out", "missing/x.csv"], "cannot write "),
        ],
        ids=["compare-horizon", "compare-seed", "compare-out", "simulate-horizon",
             "simulate-seed", "simulate-out", "solve-out", "solve-policy-out", "sweep-out",
             "verify-out"],
    )
    def test_bad_input_fails_before_the_solve(
        self, tmp_path, capsys, monkeypatch, argv, error
    ):
        # a bad horizon, seed or output path used to exit 2 only after every
        # solve and evaluation
        def solver_entered(*args, **kwargs):
            raise AssertionError("the solver ran before the input was checked")

        monkeypatch.setattr(cli, "modified_via", solver_entered)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken_policy.csv").mkdir()
        (tmp_path / "kept.csv").write_text("kept\n")
        argv = [*argv, *SMALL]
        if "--out" not in argv:
            argv += ["--out", "kept.csv"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + error) and err.count("\n") == 1
        # nothing made, nothing changed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv", "taken_policy.csv"]
        assert (tmp_path / "kept.csv").read_text() == "kept\n"

    @pytest.mark.parametrize(
        "argv", [["solve"], ["simulate", "--horizon", "100", "--seed", "1"], ["verify"]],
        ids=["solve", "simulate", "verify"],
    )
    def test_age_that_never_resets_exits_one(self, tmp_path, capsys, argv):
        # one stderr line and no traceback, as for any failed solve
        out = tmp_path / "x.csv"
        code = main([*argv, *SMALL, "--p-block", str(1.0 - 1e-16), "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: no state of the closed class resets the age: "
                                "the average age is unbounded\n")
        assert captured.out == ""


class TestConfigResolution:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"battery_cap": 2, "delta_max": 12, "weight": 1.0}))
        out = tmp_path / "thr.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(read_csv(out)) == 1 + 3

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"battery_cap": 2, "delta_max": 12, "weight": 1.0}))
        out = tmp_path / "thr.csv"
        assert main(["solve", "--config", str(cfg), "--delta-max", "15", "--out", str(out)]) == 0
        grid = read_csv(tmp_path / "thr_policy.csv")
        assert len(grid) == 1 + 3 * 15  # config battery, flag age cap

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"battery": 2}))
        assert main(["solve", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_evaluation_cap_is_no_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"max_iter": 100_000}))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "error: unknown config key 'max_iter'\n"

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        assert main(["solve", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "command, values, key",
        [
            ("solve", {"eps": "1e-9"}, "eps"),
            ("simulate", {"seeds": 5}, "seeds"),
            ("sweep", {"axis": "weight", "grid": "1,2"}, "grid"),
            ("solve", {"battery_cap": True}, "battery_cap"),
            ("solve", {"weight": False}, "weight"),
            ("simulate", {"seeds": [1, 2.5]}, "seeds"),
            ("compare", {"out": 3}, "out"),
        ],
    )
    def test_mistyped_config_value_is_usage_error(self, tmp_path, capsys, command, values, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key '{key}' must be ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, values, flags, message",
        [
            ("solve", [1, 2], [], "config file must hold a JSON object"),
            ("sweep", {"axis": "battery_cap", "grid": [1, 2]}, [],
             "axis must be one of weight, lambda_e, p_block"),
            ("compare", {}, ["--axis", "weight", "--grid", ","], "grid must be non-empty"),
            ("simulate", {"policy": "nope"}, [], "unknown policy 'nope'"),
        ],
        ids=["array", "axis", "empty-grid", "policy"],
    )
    def test_bad_setting_is_usage_error(self, tmp_path, capsys, command, values, flags, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "x.csv"
        assert main([command, *SMALL, "--config", str(cfg), *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_bad_grid_value_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *SMALL, "--axis", "weight", "--grid", "1,x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "bad grid value" in err and "Traceback" not in err

    def test_config_numbers_and_nulls_accepted(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"battery_cap": 2, "delta_max": 12, "weight": 1, "eps": 1e-9, "axis": None, "out": None}
        ))
        out = tmp_path / "thr.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(read_csv(out)) == 1 + 3


class TestDeterminism:
    def test_identical_configs_give_identical_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["solve", *SMALL, "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a_policy.csv").read_bytes() == (tmp_path / "b_policy.csv").read_bytes()

    def test_simulation_csv_is_reproducible(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["simulate", *SMALL, "--policy", "zero-wait", "--horizon", "2000",
                "--seed", "1", "--seed", "2"]
        for out in (a, b):
            assert main([*args, "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_uses_lf_and_trailing_newline(self, tmp_path):
        out = tmp_path / "thr.csv"
        main(["solve", *SMALL, "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestSimulate:
    def test_one_row_per_seed(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", *SMALL, "--policy", "zero-wait", "--horizon", "1000",
                     "--seed", "3", "--seed", "4", "--seed", "5", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["policy", "seed", "horizon", "average_cost",
                           "average_aoi", "reliable_rate", "ci_halfwidth", "rng"]
        assert [r[1] for r in rows[1:]] == ["3", "4", "5"]
        assert all(r[7] == "pcg64" for r in rows[1:])

    def test_periodic_policy_runs(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", *SMALL, "--policy", "periodic", "--period", "4",
                     "--horizon", "1000", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert len(read_csv(out)) == 2

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["simulate", "--policy", "zero-wait", "--seed", "-1"], {}),
            (["compare", "--axis", "lambda_e", "--grid", "0.5", "--simulate", "--seed", "-1"], {}),
            (["simulate", "--policy", "zero-wait"], {"seeds": [-1]}),
        ],
        ids=["simulate", "compare", "config"],
    )
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, argv, config):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "x.csv"
        args = [*argv, *SMALL, "--horizon", "100", "--config", str(cfg), "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be an int >= 0, got -1\n"
        assert not out.exists()


class TestSweep:
    def test_threshold_rows_per_axis_value(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", *SMALL, "--axis", "weight", "--grid", "0.5,2", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["axis_value", "q", "threshold", "gain", "status"]
        assert len(rows) == 1 + 2 * 4
        assert all(r[4] == "ok" for r in rows[1:])
        gains = sorted({float(r[3]) for r in rows[1:]})
        assert len(gains) == 2
        assert gains[0] < gains[1]  # dearer backup energy costs more overall

    def test_axis_required(self, capsys):
        assert main(["sweep", *SMALL]) == 2
        assert "--axis" in capsys.readouterr().err

    def test_lambda_one_point_prints_no_warning(self, tmp_path, capsys):
        # lambda_e 1 is solved by policy iteration like the other points,
        # holding batteries 1..2 idle at age 1 (threshold 2); no point
        # writes to stderr or raises a Python warning, though thresholds
        # (23 and more) lie past the age cap: nothing depends on it
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            code = main(["sweep", "--battery-cap", "3", "--delta-max", "8", "--weight", "100",
                         "--axis", "lambda_e", "--grid", "0.05,0.1,1", "--out", str(out)])
        assert code == 0
        assert raised == []
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == f"swept 3 lambda_e value(s) -> {out}\n"
        rows = read_csv(out)[1:]
        assert [r[2] for r in rows[:4]] == ["23", "21", "19", "12"]
        assert [r[2] for r in rows[9:11]] == ["2", "2"]
        assert {r[3] for r in rows[8:]} == {"1.25"}

    def test_age_that_never_resets_fails_per_row(self, tmp_path, capsys):
        # at p_block 1 - 1e-16 no transmission resets the age, so the solve
        # raises; the other point's rows stay
        out = tmp_path / "sweep.csv"
        code = main(["sweep", *SMALL, "--axis", "p_block", "--grid", f"0.2,{1.0 - 1e-16!r}",
                     "--out", str(out)])
        assert code == 1
        rows = read_csv(out)[1:]
        assert [r[4] for r in rows[:4]] == ["ok"] * 4
        assert rows[4] == ["1", "", "", "", "error:no state of the closed class resets the "
                           "age: the average age is unbounded"]
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == f"swept 2 p_block value(s) -> {out}\n"


# compare's CSV for the arguments of TestCompare.test_rows_and_bytes_are_pinned,
# byte for byte
PINNED_COMPARE = (
    b"axis_value,policy,average_cost,average_aoi,reliable_rate,status\n"
    b"0.3,optimal,3.05934083926,2.84253061848,0.0108405110392,ok\n"
    b"0.3,zero-wait,15.25,1.25,0.7,ok\n"
    b"0.3,periodic,3.65731824281,3.65731824281,0,ok\n"
    b"0.3,optimal[sim seed=1],2.884,2.784,0.005,ok\n"
    b"0.3,optimal[sim seed=2],2.972,2.732,0.012,ok\n"
    b"0.3,zero-wait[sim seed=1],15.247,1.227,0.701,ok\n"
    b"0.3,zero-wait[sim seed=2],14.869,1.229,0.682,ok\n"
    b"0.3,periodic[sim seed=1],3.424,3.424,0,ok\n"
    b"0.3,periodic[sim seed=2],3.289,3.289,0,ok\n"
    b"0.9,optimal,1.35013083108,1.35013083107,4.84504846399e-13,ok\n"
    b"0.9,zero-wait,3.25,1.25,0.1,ok\n"
    b"0.9,periodic,2.75000000397,2.75000000397,0,ok\n"
    b"0.9,optimal[sim seed=1],1.312,1.312,0,ok\n"
    b"0.9,optimal[sim seed=2],1.346,1.346,0,ok\n"
    b"0.9,zero-wait[sim seed=1],2.947,1.227,0.086,ok\n"
    b"0.9,zero-wait[sim seed=2],3.229,1.229,0.1,ok\n"
    b"0.9,periodic[sim seed=1],2.731,2.731,0,ok\n"
    b"0.9,periodic[sim seed=2],2.65,2.65,0,ok\n"
)


class TestCompare:
    def test_optimal_beats_baselines(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(["compare", *SMALL, "--axis", "lambda_e", "--grid", "0.5",
                     "--period", "5", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["axis_value", "policy", "average_cost", "average_aoi",
                           "reliable_rate", "status"]
        costs = {r[1]: float(r[2]) for r in rows[1:]}
        assert set(costs) == {"optimal", "zero-wait", "periodic"}
        assert costs["optimal"] <= costs["zero-wait"] + 1e-12
        assert costs["optimal"] <= costs["periodic"] + 1e-12

    def test_simulation_rows_appended(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(["compare", *SMALL, "--axis", "lambda_e", "--grid", "0.5",
                     "--simulate", "--horizon", "500", "--seed", "1", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1 + 3 + 3
        assert sum("[sim seed=1]" in r[1] for r in rows[1:]) == 3


    def test_rows_and_bytes_are_pinned(self, tmp_path):
        # exact rows, then simulated rows, policy by policy and seed by seed,
        # at each axis value in grid order
        out = tmp_path / "cmp.csv"
        code = main(["compare", *SMALL, "--axis", "lambda_e", "--grid", "0.3,0.9",
                     "--period", "3", "--periodic-skip-on-empty", "--simulate",
                     "--horizon", "1000", "--seed", "1", "--seed", "2", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == PINNED_COMPARE

    @pytest.mark.parametrize("period, aoi", [(20, "15.5"), (30, "23")])
    def test_periodic_age_is_the_closed_form(self, tmp_path, period, aoi):
        # (T + 1)/2 + T p/(1 - p) at the defaults, to all 12 digits
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--axis", "weight", "--grid", "10",
                     "--period", str(period), "--out", str(out)])
        assert code == 0
        assert read_csv(out)[3][1:4] == ["periodic", aoi, aoi]

    def test_age_that_never_resets_fails_per_row(self, tmp_path, capsys):
        # at p_block 1 - 1e-16 no transmission resets the age: every policy's
        # average age is unbounded, so each row is an error and the exit 1
        out = tmp_path / "cmp.csv"
        code = main(["compare", *SMALL, "--p-block", str(1.0 - 1e-16), "--axis", "weight",
                     "--grid", "10", "--out", str(out)])
        assert code == 1
        rows = read_csv(out)[1:]
        assert [r[1] for r in rows] == ["optimal", "zero-wait", "periodic"]
        for r in rows:
            assert r[2:5] == ["", "", ""]
            assert r[5].startswith("error:no state of the closed class")
        captured = capsys.readouterr()
        assert captured.out == f"compared 1 weight value(s) -> {out}\n"
        assert captured.err == ""

    @pytest.mark.parametrize(
        "extra", [[], ["--simulate", "--horizon", "500", "--seed", "1"]], ids=["exact", "simulate"]
    )
    def test_failed_solve_fails_the_optimal_row_alone(self, tmp_path, monkeypatch, extra):
        # the baselines do not depend on the solve: their rows, exact and
        # simulated, are those of the same command whose solve succeeds
        argv = ["compare", "--battery-cap", "3", "--axis", "weight", "--grid", "10", *extra]
        solved, failed = tmp_path / "solved.csv", tmp_path / "failed.csv"
        assert main([*argv, "--out", str(solved)]) == 0
        monkeypatch.setattr(ehaoi.solver, "MAX_EVALUATIONS", 1)
        assert main([*argv, "--out", str(failed)]) == 1
        rows = read_csv(failed)[1:]
        assert rows[0][:5] == ["10", "optimal", "", "", ""]
        assert rows[0][5].startswith("error:policy still changing after 1 evaluations")
        baselines = [r for r in read_csv(solved)[1:] if not r[1].startswith("optimal")]
        assert rows[1:] == baselines
        assert {r[5] for r in rows[1:]} == {"ok"}


class TestSeedFanOut:
    """A command's seeds after the first run in forked children, one per
    usable CPU (``cli._simulate_seeds``). Every output is that of the same
    command in one process, which ``os.sched_getaffinity`` reporting one
    CPU gives; ``FORK_MIN_SLOTS`` is 0 wherever a case should fork."""

    SEEDS = {
        "1": [7],
        "2": [1, 2],
        "3-repeated": [3, 1, 3],
        "10-repeated": [5, 1, 2, 5, 3, 4, 2, 6, 7, 8],
    }
    POLICIES = {
        "optimal": ["--policy", "optimal"],
        "zero-wait": ["--policy", "zero-wait"],
        "periodic5": ["--policy", "periodic", "--period", "5"],
    }

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def forks(monkeypatch, cpus, fork=None):
        """Report ``cpus`` usable CPUs; the list of this process's
        ``os.fork`` calls, each made by ``fork`` if given."""
        calls = []
        real = os.fork

        def counted():
            calls.append(True)
            return (fork or real)()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(os, "fork", counted)
        return calls

    @staticmethod
    def run(capsys, argv, out):
        code = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        data = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, captured.out, captured.err, data

    def serial_and_forked(self, monkeypatch, capsys, tmp_path, argv, cpus=3):
        """The command's outcome with one CPU and with ``cpus``, and the
        forks the second made."""
        out = tmp_path / "runs.csv"
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = self.run(capsys, argv, out)
        monkeypatch.setattr(cli, "FORK_MIN_SLOTS", 0)
        calls = self.forks(monkeypatch, cpus)
        return serial, self.run(capsys, argv, out), calls

    @pytest.mark.parametrize("horizon", [1, 19, 20, 5003, 10**5])
    @pytest.mark.parametrize("seeds", list(SEEDS.values()), ids=list(SEEDS))
    @pytest.mark.parametrize("policy", list(POLICIES.values()), ids=list(POLICIES))
    def test_simulate_equals_one_process(self, monkeypatch, capsys, tmp_path, policy,
                                         seeds, horizon):
        argv = ["simulate", *SMALL, *policy, "--horizon", str(horizon),
                *(f"--seed={s}" for s in seeds)]
        serial, forked, calls = self.serial_and_forked(monkeypatch, capsys, tmp_path, argv)
        assert forked == serial
        assert serial[0] == 0 and serial[3]
        # two children for three CPUs, fewer for fewer seeds after the first
        assert len(calls) == max(0, min(3, len(seeds) - 1) - 1)

    @pytest.mark.parametrize("cpus", [2, 16])
    def test_any_cpu_count_equals_one_process(self, monkeypatch, capsys, tmp_path, cpus):
        argv = ["simulate", *SMALL, "--policy", "zero-wait", "--horizon", "777",
                *(f"--seed={s}" for s in range(4))]
        serial, forked, calls = self.serial_and_forked(monkeypatch, capsys, tmp_path, argv,
                                                       cpus)
        assert forked == serial
        assert len(calls) == min(cpus, 3) - 1

    @pytest.mark.parametrize("horizon", [19, 5003])
    @pytest.mark.parametrize("seeds", [[1, 2, 3], list(SEEDS["10-repeated"])],
                             ids=["3", "10-repeated"])
    def test_compare_rows_equal_one_process(self, monkeypatch, capsys, tmp_path, seeds,
                                            horizon):
        argv = ["compare", *SMALL, "--axis", "lambda_e", "--grid", "0.3,0.9",
                "--period", "3", "--simulate", "--horizon", str(horizon),
                *(f"--seed={s}" for s in seeds)]
        serial, forked, calls = self.serial_and_forked(monkeypatch, capsys, tmp_path, argv)
        assert forked == serial
        assert serial[0] == 0
        # per grid value and policy: two children for the seeds after the first
        assert len(calls) == 2 * 3 * (min(3, len(seeds) - 1) - 1)

    @pytest.mark.parametrize("error, code", [(DomainError, 2), (UnboundedAgeError, 1)],
                             ids=["usage", "fail"])
    @pytest.mark.parametrize(
        "bad",
        [{1}, {3}, {4, 5}, {2, 6, 7}, {7}, {3, 4, 5, 6, 7}],
        ids=["first", "child", "child-before-parent", "parent-first", "last", "all-but-two"],
    )
    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_earliest_failing_seed_fails_the_command(self, monkeypatch, capsys, tmp_path,
                                                     command, bad, error, code):
        # seeds 2 ... 7 are dealt to this process (2, 5) and two children
        # (3, 6 and 4, 7); each seed in ``bad`` raises, and the command fails
        # on the earliest one, as one process running the seeds in turn does
        real = cli.simulate

        def simulate(kind, m, horizon, seed):
            if seed in bad:
                raise error(f"seed {seed} cannot run")
            return real(kind, m, horizon, seed)

        monkeypatch.setattr(cli, "simulate", simulate)
        argv = {"simulate": ["simulate", *SMALL, "--policy", "zero-wait"],
                "compare": ["compare", *SMALL, "--axis", "weight", "--grid", "10",
                            "--simulate"]}[command]
        argv = [*argv, "--horizon", "300", *(f"--seed={s}" for s in range(1, 8))]
        serial, forked, calls = self.serial_and_forked(monkeypatch, capsys, tmp_path, argv)
        assert forked == serial
        assert serial == (code, "", f"error: seed {min(bad)} cannot run\n", None)
        assert len(calls) == (0 if 1 in bad else 2)

    def test_child_without_reports_is_an_error(self, monkeypatch, tmp_path):
        # a child that dies before it sends fails the command; the children
        # are still reaped
        real, parent = cli.simulate, os.getpid()

        def simulate(kind, m, horizon, seed):
            if os.getpid() != parent:
                os._exit(3)
            return real(kind, m, horizon, seed)

        monkeypatch.setattr(cli, "simulate", simulate)
        monkeypatch.setattr(cli, "FORK_MIN_SLOTS", 0)
        self.forks(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match="ended without its reports"):
            main(["simulate", *SMALL, "--policy", "zero-wait", "--horizon", "100",
                  "--seed=1", "--seed=2", "--seed=3", "--out", str(tmp_path / "x.csv")])

    @pytest.mark.parametrize("case", ["one-cpu", "below-threshold", "no-affinity", "no-fork"])
    def test_no_fork_where_it_cannot_pay(self, monkeypatch, capsys, tmp_path, case):
        def refuse():
            raise AssertionError("os.fork called")

        horizon = 5003 if case == "below-threshold" else 10**4
        argv = ["simulate", *SMALL, "--policy", "zero-wait", "--horizon", str(horizon),
                *(f"--seed={s}" for s in range(10))]
        out = tmp_path / "runs.csv"
        expected = self.run(capsys, argv, out)
        if case == "below-threshold":
            assert 9 * horizon < cli.FORK_MIN_SLOTS
        else:
            monkeypatch.setattr(cli, "FORK_MIN_SLOTS", 0)
        calls = self.forks(monkeypatch, 1 if case == "one-cpu" else 8, refuse)
        if case == "no-affinity":
            monkeypatch.delattr(os, "sched_getaffinity")
        if case == "no-fork":
            monkeypatch.delattr(os, "fork")
        assert self.run(capsys, argv, out) == expected
        assert not calls


class TestVerify:
    def test_converged_model_passes_all_checks(self, capsys):
        assert main(["verify", *SMALL]) == 0
        lines = capsys.readouterr().out.splitlines()
        checks = [l for l in lines if ": PASS" in l or ": FAIL" in l]
        assert len(checks) == 5
        assert all(": PASS" in l for l in checks)
        assert any(l.startswith("thresholds=") for l in lines)

    def test_report_csv(self, tmp_path):
        out = tmp_path / "verify.csv"
        assert main(["verify", *SMALL, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["check", "passed", "worst", "tol", "witness"]
        assert len(rows) == 6
        assert all(r[1] == "1" for r in rows[1:])

    def test_lambda_one_passes_all_checks(self, capsys):
        # free energy every slot: batteries 1 and 2 idle at age 1 only
        assert main(["verify", *SMALL, "--lambda-e", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["gain=1.25 iterations=5", "thresholds=21,2,2,1"]
        assert [l.split(":")[1].split()[0] for l in lines[2:]] == ["PASS"] * 5

    def test_failed_check_prints_its_witness_and_exits_one(self, tmp_path, capsys, monkeypatch):
        failed = StructureReport("monotone-aoi", False, 0.5, ((State(3, 1), State(4, 1)),), 1e-8)
        monkeypatch.setattr(cli, "run_all_checks", lambda values, m: [failed])
        out = tmp_path / "verify.csv"
        assert main(["verify", *SMALL, "--out", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "monotone-aoi: FAIL worst=5.000e-01 tol=1e-08 witness=(3,1)->(4,1)" in lines
        assert read_csv(out)[1] == ["monotone-aoi", "0", "0.5", "1e-08", "(3,1)->(4,1)"]

    def test_non_convergence_exits_one(self, capsys, monkeypatch):
        # SMALL takes five policy evaluations
        monkeypatch.setattr(ehaoi.solver, "MAX_EVALUATIONS", 3)
        assert main(["verify", *SMALL]) == 1
        assert "error:" in capsys.readouterr().err


class TestEntryPoint:
    @pytest.mark.skipif(
        shutil.which("ehaoi") is None,
        reason="ehaoi console script not on PATH (package not installed)",
    )
    def test_installed_script_runs(self, tmp_path):
        exe = shutil.which("ehaoi")
        assert exe, "console script not installed"
        out = tmp_path / "thr.csv"
        proc = subprocess.run(
            [exe, "solve", *SMALL, "--out", str(out)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_import_loads_top_level_scipy_only(self):
        # Start-up cost: the top-level scipy package stays for the
        # benchmark's version read; scipy.sparse, csgraph and scipy.stats
        # load in no command (test_no_command_loads_scipy_sparse)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, ehaoi.cli; print(*sys.modules, sep='\\n')"],
            capture_output=True,
            text=True,
            env=_package_env(),
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.splitlines())
        assert "scipy" in loaded
        assert not loaded & {"scipy.sparse", "scipy.sparse.csgraph", "scipy.stats"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve"],
            ["simulate", "--policy", "optimal", "--horizon", "1000", "--seed", "1"],
            ["compare", "--axis", "weight", "--grid", "10", "--period", "3"],
            ["sweep", "--axis", "weight", "--grid", "1,10"],
            ["verify"],
        ],
        ids=["solve", "simulate", "compare", "sweep", "verify"],
    )
    def test_no_command_loads_scipy_sparse(self, tmp_path, argv):
        # the exact evaluation finds the recurrent class without csgraph
        script = (
            "import sys; from ehaoi.cli import main; code = main(sys.argv[1:]); "
            "print(code, *sorted({'scipy.sparse', 'scipy.sparse.csgraph'} & set(sys.modules)))"
        )
        out = tmp_path / "out.csv"
        proc = subprocess.run(
            [sys.executable, "-c", script, argv[0], *SMALL, *argv[1:], "--out", str(out)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=_package_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0"
        assert out.exists()

    def test_declared_entry_point_runs(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["ehaoi"]
        module, func = target.split(":")
        # Call the target the way a generated console script does, with the
        # package importable whether or not it is installed.
        out = tmp_path / "thr.csv"
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import sys; from {module} import {func}; sys.exit({func}())",
                "solve",
                *SMALL,
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=_package_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
