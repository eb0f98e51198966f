"""End-to-end tests for the command line interface."""

import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gphier import cli
from gphier.cli import main
from gphier.kernels import (
    BUDGET_ENV_VAR,
    load_kernel,
    random_test_kernel,
    save_kernel,
)
from gphier.spectral import GridSpec

TWO_PI = 2.0 * math.pi
SRC = Path(__file__).resolve().parents[1] / "src"


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def solve_cfg(**overrides):
    cfg = {
        "grid": {"n": 1, "L": TWO_PI, "M": 6},
        "interaction": "cubic",
        "mu": 1,
        "alpha": 1.0,
        "xi": 0.5,
        "K": 3,
        "T": 0.02,
        "N_t": 4,
        "seed": 3,
        "initial_data": {
            "kind": "factorized",
            "profile": {"kind": "gaussian", "width": 0.8, "amplitude": 0.6},
        },
    }
    cfg.update(overrides)
    return cfg


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestPreflight:
    def test_oversize_config_refused(self, tmp_path, capsys):
        # the solver's plan for cubic M=16, K=5 is about 80 GB (level 3
        # collapses materialized 69 GB level-4 nodes), over the default
        # budget, so the run stops before any level-sized allocation
        cfg = solve_cfg(grid={"n": 1, "L": TWO_PI, "M": 16}, K=5, N_t=8)
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "8.047e+10" in captured.out
        assert "override-budget" in captured.err

    def test_small_config_accepted(self, tmp_path, capsys):
        cfg = solve_cfg(grid={"n": 1, "L": TWO_PI, "M": 8}, K=3, N_t=5)
        out = tmp_path / "out"
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "4.067e+05" in captured.out
        assert (out / "report.json").exists()
        # the solver's sweep, which this run makes exactly
        assert "at most 12 collapse applications" in captured.out
        report = json.loads((out / "report.json").read_text())
        assert report["preflight"]["collapse_ops"] == 12
        assert report["preflight"]["total_bytes"] == report["planned_bytes"]

    @pytest.mark.parametrize("budget", ["5e6", "3e6"])
    def test_override_flag_accepts_oversize(self, tmp_path, monkeypatch, budget):
        # a planned peak of about 8.2e6 bytes, over a budget lowered to 5e6;
        # at 3e6 even one materialized k=3 node (4.2e6 bytes) is over it
        monkeypatch.setenv(BUDGET_ENV_VAR, budget)
        cfg = solve_cfg(grid={"n": 1, "L": TWO_PI, "M": 8}, K=4, N_t=5)
        out = tmp_path / "out"
        with pytest.warns(UserWarning):
            rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(out), "--override-budget"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["preflight"]["overridden"] is True

    def test_env_var_raises_budget(self, tmp_path, monkeypatch):
        cfg_path = write_cfg(tmp_path, solve_cfg(
            grid={"n": 1, "L": TWO_PI, "M": 8}, K=4, N_t=5))
        monkeypatch.setenv(BUDGET_ENV_VAR, "5e6")
        assert main(["solve", "--config", cfg_path,
                     "--out", str(tmp_path / "refused")]) == 1
        monkeypatch.setenv(BUDGET_ENV_VAR, "200000000")
        out = tmp_path / "out"
        rc = main(["solve", "--config", cfg_path, "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["preflight"]["budget_bytes"] == 200_000_000

    def test_malformed_env_var_is_a_clean_error(self, tmp_path):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "gphier.cli", "solve", "--config",
             write_cfg(tmp_path, solve_cfg()), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": path, BUDGET_ENV_VAR: "lots"},
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert BUDGET_ENV_VAR in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("value", ["inf", "1e400", "-inf"])
    def test_unbounded_env_var_is_a_clean_error(self, tmp_path, monkeypatch, capsys,
                                                value):
        # float() takes these, int() of the float overflows
        monkeypatch.setenv(BUDGET_ENV_VAR, value)
        rc = main(["solve", "--config", write_cfg(tmp_path, solve_cfg()),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is not a number of bytes" in err

    def test_quintic_m8_runs_under_default_budget(self, tmp_path, capsys):
        # the closure levels 4 and 5 stay factorized and cost the plan next to nothing
        cfg = solve_cfg(grid={"n": 1, "L": TWO_PI, "M": 8},
                        interaction="quintic", K=5, N_t=8, c_hat=0.4)
        out = tmp_path / "out"
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
        assert rc == 0
        assert "8.876e+06" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["preflight"]["overridden"] is False
        assert report["converged"] is True


class TestSolveCommand:
    def test_zero_initial_data(self, tmp_path):
        cfg = solve_cfg(initial_data={"kind": "zero"})
        out = tmp_path / "out"
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["iterations"] == 1 and report["converged"] is True
        assert "residuals" not in report
        header, rows = read_csv_rows(out / "norm_vs_time.csv")
        assert header == ["time", "level", "h_alpha_norm"]
        assert all(float(r[2]) == 0.0 for r in rows)
        level1 = load_kernel(out / "final_level1.bin")
        assert np.all(level1.data == 0)
        assert (out / "final_level3_profile.bin").exists()

    def test_config_snapshot_round_trips(self, tmp_path):
        cfg = solve_cfg()
        out = tmp_path / "out"
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
        assert rc == 0
        snapshot = json.loads((out / "config_snapshot.json").read_text())
        assert snapshot["config"] == cfg
        assert snapshot["subcommand"] == "solve"

    def test_rerun_reproduces_identical_csv(self, tmp_path):
        cfg_path = write_cfg(tmp_path, solve_cfg())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["solve", "--config", cfg_path, "--out", str(out),
                         "--emit-plots"]) == 0
        names = sorted(path.name for path in out_a.glob("*.csv"))
        assert names == ["bound_ratio_vs_jk.csv", "norm_vs_time.csv"]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_emit_plots_writes_tables(self, tmp_path):
        cfg = solve_cfg()
        out = tmp_path / "out"
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out), "--emit-plots"])
        assert rc == 0
        header, rows = read_csv_rows(out / "bound_ratio_vs_jk.csv")
        assert header == ["j", "k", "norm", "bound", "ratio"]
        # cubic K=3: (j,k) with k + j <= 3, sorted by k, then j
        assert [(int(r[0]), int(r[1])) for r in rows] == [(1, 1), (2, 1), (1, 2)]
        report = json.loads((out / "report.json").read_text())
        assert [(row["j"], row["k"]) for row in report["duhamel"]] == [(1, 1), (2, 1), (1, 2)]

    @pytest.mark.parametrize("emit_plots", [True, False])
    def test_snapshot_records_emit_plots(self, tmp_path, emit_plots):
        # re-running a snapshot writes the same tables only if it knows the flag
        out = tmp_path / "out"
        rc = main(["solve", "--config", write_cfg(tmp_path, solve_cfg()),
                   "--out", str(out)] + ["--emit-plots"] * emit_plots)
        assert rc == 0
        snapshot = json.loads((out / "config_snapshot.json").read_text())
        assert snapshot["overrides"]["emit_plots"] is emit_plots
        assert (out / "bound_ratio_vs_jk.csv").exists() is emit_plots

    def test_plane_wave_initial_data(self, tmp_path):
        cfg = solve_cfg(initial_data={
            "kind": "factorized",
            "profile": {"kind": "plane_wave", "p0": [1.0], "amplitude": 0.5},
        })
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_off_lattice_plane_wave_rejected(self, tmp_path, capsys):
        cfg = solve_cfg(initial_data={
            "kind": "factorized",
            "profile": {"kind": "plane_wave", "p0": [0.3], "amplitude": 0.5},
        })
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "momentum lattice" in capsys.readouterr().err

    def test_file_per_level_initial_data(self, tmp_path):
        grid = GridSpec(1, TWO_PI, 4)
        paths = {}
        for k in (1, 2, 3):
            kernel = random_test_kernel(grid, k, alpha=1.0, seed=40 + k)
            path = tmp_path / f"level{k}.bin"
            save_kernel(path, kernel)
            paths[str(k)] = str(path)
        cfg = solve_cfg(grid={"n": 1, "L": TWO_PI, "M": 4},
                        initial_data={"kind": "levels", "paths": paths})
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_missing_level_file_is_diagnosed(self, tmp_path, capsys):
        cfg = solve_cfg(initial_data={"kind": "levels",
                                      "paths": {"1": "/nonexistent.bin"}})
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_missing_level_key_is_diagnosed(self, tmp_path, capsys):
        grid = GridSpec(1, TWO_PI, 4)
        path = tmp_path / "level1.bin"
        save_kernel(path, random_test_kernel(grid, 1, alpha=1.0, seed=1))
        cfg = solve_cfg(grid={"n": 1, "L": TWO_PI, "M": 4},
                        initial_data={"kind": "levels",
                                      "paths": {"1": str(path)}})
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "missing level 2" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, message", [
        (b"", "truncated kernel file header"),
        (b"\x01\x00\x00\x00\x00", "truncated kernel file header"),
        (struct.pack("<idii", 1, TWO_PI, 4, 2**30), "budget"),
        (struct.pack("<idii", 1, math.inf, 4, 1), "finite"),
    ], ids=["empty", "five_bytes", "absurd_k", "infinite_L"])
    def test_malformed_level_file_is_diagnosed(self, tmp_path, capsys, raw, message):
        path = tmp_path / "level1.bin"
        path.write_bytes(raw)
        cfg = solve_cfg(grid={"n": 1, "L": TWO_PI, "M": 4},
                        initial_data={"kind": "levels",
                                      "paths": {"1": str(path)}})
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_config_flag_required(self, capsys):
        rc = main(["solve"])
        assert rc == 1
        assert "--config" in capsys.readouterr().err

    def test_invalid_json_diagnosed(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = main(["solve", "--config", str(path)])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_field_named(self, tmp_path, capsys):
        cfg = solve_cfg()
        del cfg["K"]
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "'K'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [4.7, True], ids=["fraction", "bool"])
    @pytest.mark.parametrize("command, section, name", [
        ("solve", None, "K"), ("solve", None, "N_t"), ("solve", "grid", "M"),
        ("solve", "grid", "n"), ("solve", None, "mu"), ("solve", None, "seed"),
        ("solve", None, "closure_substeps"), ("compare-nls", None, "oracle_substeps"),
        ("compare-nls", None, "levels_compared"), ("estimate-constant", None, "trials"),
    ])
    def test_integer_field_refuses_fractions_and_bools(self, tmp_path, capsys,
                                                       monkeypatch, command,
                                                       section, name, value):
        # int() would run 4.7 as 4 and true as 1
        calls = []
        monkeypatch.setattr(cli, "solve", lambda *a, **kw: calls.append(a))
        monkeypatch.setattr(cli, "estimate_collapse_constant",
                            lambda *a, **kw: calls.append(a))
        cfg = solve_cfg(trials=4, grid={"n": 1, "L": TWO_PI, "M": 6})
        (cfg[section] if section else cfg)[name] = value
        rc = main([command, "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field {name!r} is invalid")
        assert calls == []

    @pytest.mark.parametrize("section, name, named", [
        ("grid", "L", "L"), ("grid", "M", "M"), ("grid", "n", "grid"),
        (None, "K", "K"), (None, "N_t", "N_t"),
    ])
    def test_null_field_is_named(self, tmp_path, capsys, section, name, named):
        # an explicit JSON null must not reach GridSpec or SolverConfig as None
        cfg = solve_cfg()
        (cfg[section] if section else cfg)[name] = None
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field {named!r} is invalid")

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("command, section, name", [
        ("solve", None, "alpha"), ("solve", None, "xi"), ("solve", None, "T"),
        ("solve", "grid", "L"), ("solve", "profile", "width"),
        ("solve", "profile", "amplitude"), ("solve", "profile", "center"),
        ("solve", "profile", "normalize_mass"), ("solve", "profile", "p0"),
        ("solve", None, "c_hat"), ("compare-nls", None, "compare_alpha"),
        ("compare-nls", None, "tolerance"), ("verify-lemmas", None, "beta"),
        ("verify-lemmas", None, "cutoff"), ("estimate-constant", None, "alpha"),
    ])
    def test_bool_is_not_a_number(self, tmp_path, capsys, monkeypatch, command,
                                  section, name, value):
        # float() would run true as 1.0 and false as 0.0: "normalize_mass":
        # false scaled the profile to zero
        calls = []
        monkeypatch.setattr(cli, "solve", lambda *a, **kw: calls.append(a))
        monkeypatch.setattr(cli, "estimate_collapse_constant",
                            lambda *a, **kw: calls.append(a))
        cfg = solve_cfg(trials=4)
        profile = cfg["initial_data"]["profile"]
        if name == "p0":
            profile.update(kind="plane_wave", p0=[value])
        else:
            {"profile": profile, "grid": cfg["grid"], None: cfg}[section][name] = value
        rc = main([command, "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: config field {name!r} is invalid")
        assert calls == []

    @pytest.mark.parametrize("value", ["false", 0, None])
    @pytest.mark.parametrize("command, name", [
        ("solve", "emit_plots"), ("verify-lemmas", "include_endpoint"),
    ])
    def test_flag_is_a_json_bool(self, tmp_path, capsys, monkeypatch, command, name,
                                 value):
        # read by truthiness, "false" switched the flag on
        calls = []
        monkeypatch.setattr(cli, "solve", lambda *a, **kw: calls.append(a))
        monkeypatch.setattr(cli, "lemma31_sup_check", lambda *a, **kw: calls.append(a))
        cfg = solve_cfg(**{name: value})
        out = tmp_path / "out"
        rc = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: config field {name!r} is invalid")
        assert calls == [] and not list(out.glob("*.csv"))

    @pytest.mark.parametrize("command, section, name, value", [
        ("solve", None, "c_hat", -1.0), ("solve", None, "c_hat", 0.0),
        ("solve", None, "c_hat", math.inf), ("solve", None, "c_hat", math.nan),
        ("compare-nls", None, "c_hat", -1.0),
        ("solve", "profile", "normalize_mass", -1.0),
        ("solve", "profile", "normalize_mass", 0.0),
        ("solve", "profile", "normalize_mass", math.inf),
        ("compare-nls", "profile", "normalize_mass", -1.0),
    ])
    def test_positive_field_refuses_other_numbers(self, tmp_path, capsys, command,
                                                  section, name, value):
        # c_hat = -1 made every odd-j Duhamel bound negative; normalize_mass
        # = -1 ran the whole solve on a NaN profile
        cfg = solve_cfg()
        (cfg["initial_data"]["profile"] if section else cfg)[name] = value
        rc = main([command, "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config field {name!r} is invalid")
        assert "preflight" not in captured.out

    def test_integral_float_is_an_integer(self, tmp_path):
        cfg = solve_cfg(K=3.0, N_t=4.0, grid={"n": 1.0, "L": TWO_PI, "M": 6.0})
        assert main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 0

    def test_infinite_box_length_refused(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(solve_cfg()).replace(str(TWO_PI), "1e999"))
        rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'grid' is invalid")
        assert "finite" in err

    def test_overflowing_run_is_a_clean_error(self, tmp_path, capsys):
        cfg = solve_cfg(c_hat=0.4, initial_data={
            "kind": "factorized",
            "profile": {"kind": "gaussian", "width": 0.8, "amplitude": 1e200},
        })
        with np.errstate(all="ignore"):
            rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: non-finite")

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--quadrature", "foo"], "invalid choice: 'foo'"),
        (["solve", "--bogus"], "unrecognized arguments: --bogus"),
        (["solve", "--seed", "x"], "invalid int value"),
        ([], "required: command"),
    ])
    def test_usage_errors_exit_1(self, capsys, argv, message):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error: ") and message in err

    @pytest.mark.parametrize("command, flag", [
        *[("verify-lemmas", f) for f in ("--seed", "--override-budget", "--quadrature",
                                         "--closure", "--emit-plots")],
        *[("estimate-constant", f) for f in ("--quadrature", "--closure", "--emit-plots")],
        ("compare-nls", "--emit-plots"),
        ("compare-nls", "--seed"),
    ])
    def test_flags_a_subcommand_ignores_are_refused(self, capsys, command, flag):
        value = {"--seed": ["1"], "--quadrature": ["simpson"], "--closure": ["zero_top"]}
        assert main([command, flag, *value.get(flag, [])]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, argv", [
        ("solve", ["--seed", "1", "--override-budget", "--quadrature", "simpson",
                   "--closure", "zero_top", "--emit-plots"]),
        ("verify-lemmas", []),
        ("compare-nls", ["--override-budget", "--quadrature", "simpson",
                         "--closure", "zero_top"]),
        ("estimate-constant", ["--seed", "1", "--override-budget"]),
    ])
    def test_each_subcommand_takes_the_flags_it_reads(self, command, argv):
        args = cli.build_parser().parse_args([command, "--config", "c.json",
                                              "--out", "o", *argv])
        assert args.handler is getattr(cli, "cmd_" + command.replace("-", "_"))

    def test_module_entry_point(self, tmp_path):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "gphier.cli", "solve"],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 1
        assert "--config" in proc.stderr


class TestVerifyLemmasCommand:
    def test_default_battery_flags_endpoint(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["verify-lemmas", "--out", str(out)])
        assert rc == 2
        header, rows = read_csv_rows(out / "lemma_checks.csv")
        assert header == ["check", "parameters", "value", "reference", "status"]
        by_name = {r[0]: r[4] for r in rows}
        assert by_name["sup_in_p"] == "pass"
        assert by_name["cutoff_stabilization"] == "pass"
        assert by_name["beta_monotonicity"] == "pass"
        assert by_name["endpoint_divergence"] == "flagged"
        assert by_name["binomial_growth"] == "pass"

    def test_failing_endpoint_beta_exits_flagged(self, tmp_path):
        cfg = {"n": 1, "beta": 1.0}
        out = tmp_path / "out"
        rc = main(["verify-lemmas", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
        assert rc == 2
        report = json.loads((out / "report.json").read_text())
        assert report["divergence"]["diverging"] is True
        names = {c["check"] for c in report["checks"]}
        assert "sup_in_p" not in names

    def test_endpoint_can_be_excluded(self, tmp_path):
        cfg = {"n": 1, "include_endpoint": False, "resolution": 320}
        rc = main(["verify-lemmas", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 0


class TestCompareNlsCommand:
    def test_hierarchy_tracks_oracle(self, tmp_path):
        cfg = solve_cfg(grid={"n": 1, "L": TWO_PI, "M": 8}, tolerance=0.05)
        out = tmp_path / "out"
        rc = main(["compare-nls", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv_rows(out / "error_vs_time.csv")
        assert header == ["time", "level", "rel_error"]
        assert len(rows) == 2 * (cfg["N_t"] + 1)
        assert all(np.isfinite(float(r[2])) for r in rows)
        report = json.loads((out / "report.json").read_text())
        assert set(report["max_rel_error"]) == {"1", "2"}
        assert report["passed"] is True

    def test_unreachable_tolerance_flagged(self, tmp_path):
        cfg = solve_cfg(grid={"n": 1, "L": TWO_PI, "M": 8}, tolerance=1e-14)
        rc = main(["compare-nls", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("field, value", [
        ("levels_compared", 0), ("levels_compared", 9), ("oracle_substeps", "many"),
        ("oracle_substeps", 0), ("compare_alpha", "high"), ("tolerance", "tight"),
    ])
    def test_bad_field_rejected_before_solve(self, tmp_path, capsys, monkeypatch,
                                             field, value):
        calls = []
        monkeypatch.setattr(cli, "solve", lambda *a, **kw: calls.append(a))
        cfg = solve_cfg(**{field: value})
        rc = main(["compare-nls", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(field) in err
        assert calls == []


class TestEstimateConstantCommand:
    def cfg(self):
        return {
            "grid": {"n": 1, "L": TWO_PI, "M": 6},
            "alpha": 1.0,
            "k_range": [1, 2],
            "trials": 4,
            "seed": 5,
        }

    def test_reports_constant(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["estimate-constant", "--config", write_cfg(tmp_path, self.cfg()),
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv_rows(out / "ratio_table.csv")
        assert header == ["k", "max_full_ratio", "mean_full_ratio", "max_term_ratio"]
        assert [int(r[0]) for r in rows] == [1, 2]
        report = json.loads((out / "report.json").read_text())
        assert report["c_hat"] > 0

    def test_deterministic_between_runs(self, tmp_path):
        cfg_path = write_cfg(tmp_path, self.cfg())
        out_a, out_b, out_c = (tmp_path / d for d in ("a", "b", "c"))
        assert main(["estimate-constant", "--config", cfg_path,
                     "--out", str(out_a)]) == 0
        assert main(["estimate-constant", "--config", cfg_path,
                     "--out", str(out_b)]) == 0
        assert (out_a / "ratio_table.csv").read_bytes() == \
            (out_b / "ratio_table.csv").read_bytes()
        assert main(["estimate-constant", "--config", cfg_path,
                     "--out", str(out_c), "--seed", "9"]) == 0
        assert (out_a / "ratio_table.csv").read_bytes() != \
            (out_c / "ratio_table.csv").read_bytes()
