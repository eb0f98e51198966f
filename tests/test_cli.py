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
        "m_max": 8,
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
        cfg = solve_cfg(grid={"n": 1, "L": TWO_PI, "M": 8}, K=4, N_t=5)
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "1.363e+09" in captured.out
        assert "override-budget" in captured.err

    def test_small_config_accepted(self, tmp_path, capsys):
        cfg = solve_cfg(grid={"n": 1, "L": TWO_PI, "M": 8}, K=3, N_t=5,
                        m_max=6)
        out = tmp_path / "out"
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "2.130e+07" in captured.out
        assert (out / "report.json").exists()
        # the solver's schedule bound, which this run reaches exactly
        assert "at most 20 collapse applications" in captured.out
        report = json.loads((out / "report.json").read_text())
        assert report["preflight"]["collapse_ops"] == 20

    def test_override_flag_accepts_oversize(self, tmp_path):
        cfg = solve_cfg(grid={"n": 1, "L": TWO_PI, "M": 8}, K=4, N_t=5,
                        m_max=4, tol_cauchy=1e-6)
        out = tmp_path / "out"
        with pytest.warns(UserWarning):
            rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(out), "--override-budget"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["preflight"]["overridden"] is True

    def test_env_var_raises_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "2000000000")
        cfg = solve_cfg(grid={"n": 1, "L": TWO_PI, "M": 8}, K=4, N_t=5,
                        m_max=4, tol_cauchy=1e-6)
        out = tmp_path / "out"
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["preflight"]["budget_bytes"] == 2_000_000_000


class TestSolveCommand:
    def test_zero_initial_data(self, tmp_path):
        cfg = solve_cfg(initial_data={"kind": "zero"})
        out = tmp_path / "out"
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["iterations"] == 1
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
        assert main(["solve", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert main(["solve", "--config", cfg_path, "--out", str(out_b)]) == 0
        assert (out_a / "norm_vs_time.csv").read_bytes() == \
            (out_b / "norm_vs_time.csv").read_bytes()

    def test_emit_plots_writes_tables(self, tmp_path):
        cfg = solve_cfg()
        out = tmp_path / "out"
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out), "--emit-plots"])
        assert rc == 0
        header, rows = read_csv_rows(out / "bound_ratio_vs_jk.csv")
        assert header == ["j", "k", "norm", "bound", "ratio"]
        # cubic K=3: (j,k) with k + j <= 3
        assert {(int(r[0]), int(r[1])) for r in rows} == {(1, 1), (2, 1), (1, 2)}
        assert (out / "cauchy_distances.csv").exists()

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
    ], ids=["empty", "five_bytes", "absurd_k"])
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
