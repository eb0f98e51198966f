"""The four seeded workloads: input generation, operations and result checks.

A workload is built in two steps.  ``setup(seed, workdir)`` makes every input
from the seed (profiles, dense levels, battery seeds, the CLI config file);
gphier receives only those generated inputs.  It returns a list of
operations; each is a ``(name, run, check)`` triple where ``run()`` makes
the timed calls into gphier and ``check(result)`` returns the list of
failed checks (empty when the operation is correct).  Checks use the
acceptance battery's tolerances.

Every gphier function is looked up through its module at call time
(``solver.solve``, not a name imported once), so the traced run sees the
calls through its wrappers.
"""

from __future__ import annotations

import json
import math
import platform

import numpy as np
import scipy

import gphier
from gphier import cli, kernels, nls, norms, solver, verify
from gphier.operators import Interaction
from gphier.spectral import GridSpec

TWO_PI = 2.0 * np.pi
ALPHA = 1.0
XI = 0.5
HORIZON = 0.05
C_HAT = 0.4
SOLVER_BYTES = 4e9
DEFECT_TOL = 1e-9          # acceptance test 09
CUBIC_ORACLE_TOL = 1e-3    # acceptance test 01
QUINTIC_ORACLE_TOL = 3e-3  # acceptance test 02


def versions() -> dict:
    return {"gphier": gphier.__version__, "numpy": np.__version__,
            "scipy": scipy.__version__, "python": platform.python_version()}


def _jitter(rng, centre: float, rel: float) -> float:
    return float(centre * rng.uniform(1.0 - rel, 1.0 + rel))


def _gaussian_params(rng, width: float, amplitude: float) -> dict:
    """Acceptance profile with width and amplitude jittered by 5% and the
    centre moved by at most 0.25; the oracle errors stay well inside the
    acceptance tolerances over that range."""
    return {
        "width": _jitter(rng, width, 0.05),
        "amplitude": _jitter(rng, amplitude, 0.05),
        "center": float(rng.uniform(-0.25, 0.25)),
    }


def _gaussian(grid: GridSpec, p: dict) -> np.ndarray:
    x = grid.positions - p["center"]
    return p["amplitude"] * np.exp(-x**2 / (2.0 * p["width"] ** 2))


def _config(grid, kind, mu, K, quadrature="trapezoid") -> solver.SolverConfig:
    return solver.SolverConfig(
        grid=grid,
        interaction=Interaction(kind, mu),
        params=norms.NormParams(alpha=ALPHA, xi=XI),
        K=K,
        T=HORIZON,
        N_t=8,
        m_max=12,
        closure=solver.ClosureRule("free_top"),
        quadrature=quadrature,
        budget=SOLVER_BYTES,
    )


def _report_failures(report) -> list:
    out = []
    if not report.converged:
        out.append(f"not converged after {report.iterations} iterations")
    herm = max(report.hermiticity_defects.values(), default=0.0)
    symm = max(report.symmetry_defects.values(), default=0.0)
    if not herm <= DEFECT_TOL:
        out.append(f"hermiticity defect {herm:.3e} > {DEFECT_TOL}")
    if not symm <= DEFECT_TOL:
        out.append(f"symmetry defect {symm:.3e} > {DEFECT_TOL}")
    return out


def _oracle_failures(errors: dict, tol: float) -> list:
    out = []
    for k, errs in errors.items():
        worst = float(np.max(errs))
        if not (np.all(np.isfinite(errs)) and worst <= tol):
            out.append(f"level {k} oracle error {worst:.3e} > {tol}")
    return out


def _product_solve(grid, phi, config, levels, tol):
    """One solve from a product state, cross-checked against the oracle."""
    gamma0 = kernels.factorized_sequence(phi, grid, config.K, XI, dense_up_to=0)
    traj, report = solver.solve(gamma0, config, c_hat=C_HAT)
    reference = nls.factorized_trajectory(
        phi, grid, config.interaction, config.K, XI, config.times(), substeps=64)
    errors = {k: nls.compare_marginals(traj, reference, k, alpha=0.0) for k in levels}
    return {"report": report, "errors": errors, "tol": tol}


def _check_product_solve(result) -> list:
    return _report_failures(result["report"]) + _oracle_failures(
        result["errors"], result["tol"])


# -- cubic-m12: the paper's reference cubic run; its 48 MB dense level-3
# kernels exceed the 32 MB L3, so it is memory-bound.

def setup_cubic_m12(seed: int, workdir):
    rng = np.random.default_rng(seed)
    grid = GridSpec(1, TWO_PI, 12)
    phi = _gaussian(grid, _gaussian_params(rng, 1.0, 1.0))
    config = _config(grid, "cubic", 1, 4)

    def run():
        return _product_solve(grid, phi, config, (1, 2), CUBIC_ORACLE_TOL)

    return [("solve", run, _check_product_solve)]


# -- sweep-m8: many short in-cache solves, where per-call overhead, the
# quintic collapse and the dense-top path dominate.

def _dense_levels(grid, K, rng) -> kernels.HierarchySequence:
    """Hermitian, exchange-symmetric random levels, level k scaled to
    H^alpha norm scale**k so deeper levels decay like a product state's."""
    scale = float(rng.uniform(0.4, 0.6))
    levels = []
    for k in range(1, K + 1):
        draw = kernels.random_test_kernel(
            grid, k, alpha=ALPHA, seed=int(rng.integers(2**31)))
        factor = scale**k / norms.sobolev_norm(draw, ALPHA)
        levels.append(kernels.MarginalKernel(grid, k, draw.data * factor))
    return kernels.HierarchySequence(K, XI, tuple(levels))


def setup_sweep_m8(seed: int, workdir):
    rng = np.random.default_rng(seed)
    grid = GridSpec(1, TWO_PI, 8)
    ops = []
    for i in range(6):
        mu = 1 if i % 2 == 0 else -1
        quadrature = "trapezoid" if i < 3 else "simpson"
        phi = _gaussian(grid, _gaussian_params(rng, 1.6, 1.0))
        config = _config(grid, "quintic", mu, 5, quadrature)

        def run(phi=phi, config=config):
            return _product_solve(grid, phi, config, (1,), QUINTIC_ORACLE_TOL)

        ops.append((f"quintic-{i}", run, _check_product_solve))
    for i in range(12):
        mu = 1 if i % 2 == 0 else -1
        quadrature = "trapezoid" if i < 6 else "simpson"
        gamma0 = _dense_levels(grid, 3, rng)
        config = _config(grid, "cubic", mu, 3, quadrature)

        def run(gamma0=gamma0, config=config):
            _, report = solver.solve(gamma0, config, c_hat=C_HAT)
            return report

        ops.append((f"dense-cubic-{i}", run, _report_failures))
    return ops


# -- battery-m16: the M=16 leg of the constant battery; 268 MB random draws
# dominate and the solver never runs.

BATTERY_ALPHAS = (0.6, 1.0, 2.0)


def setup_battery_m16(seed: int, workdir):
    rng = np.random.default_rng(seed)
    grid = GridSpec(1, TWO_PI, 16)
    draw_seed = int(rng.integers(2**31))

    def run():
        return verify.estimate_collapse_battery(
            BATTERY_ALPHAS, grid, k_range=(2,), trials=2, seed=draw_seed,
            budget=SOLVER_BYTES)

    def check(estimates) -> list:
        out = []
        for alpha in BATTERY_ALPHAS:
            for row in estimates[alpha].rows:
                for name in ("max_full_ratio", "mean_full_ratio", "max_term_ratio"):
                    value = row[name]
                    if not (math.isfinite(value) and value > 0.0):
                        out.append(f"alpha={alpha} k={row['k']} {name}={value}")
        return out

    return [("battery", run, check)]


# -- cli-m10: the only path through the CLI (config, preflight, c_hat
# estimation, factorized_top closure, Duhamel terms, artifact writes).

def setup_cli_m10(seed: int, workdir):
    rng = np.random.default_rng(seed)
    cfg = {
        "grid": {"n": 1, "L": TWO_PI, "M": 10},
        "interaction": "cubic",
        "mu": 1,
        "alpha": ALPHA,
        "xi": XI,
        "K": 4,
        "T": HORIZON,
        "N_t": 8,
        "closure": "factorized_top",
        "seed": int(rng.integers(2**31)),
        "tolerance": 1e-3,
        "output": str(workdir / "default_out"),
        "initial_data": {
            "kind": "factorized",
            "profile": {"kind": "gaussian", **_gaussian_params(rng, 1.0, 1.0)},
        },
    }
    config_path = workdir / "cli_m10.json"
    config_path.write_text(json.dumps(cfg, indent=2))
    ops = []
    for sub in ("solve", "compare-nls"):
        out = workdir / sub
        argv = [sub, "--config", str(config_path), "--out", str(out),
                "--override-budget"]
        if sub == "solve":
            argv.append("--emit-plots")

        def run(argv=argv, out=out):
            return {"code": cli.main(argv), "out": out}

        ops.append((f"cli-{sub}", run, _check_cli))
    return ops


def _check_cli(result) -> list:
    if result["code"] != 0:
        return [f"exit code {result['code']}"]
    report = json.loads((result["out"] / "report.json").read_text())
    report = report.get("solver_report", report)
    return [] if report.get("converged") is True else ["report.json: not converged"]


SETUPS = {
    "cubic-m12": setup_cubic_m12,
    "sweep-m8": setup_sweep_m8,
    "battery-m16": setup_battery_m16,
    "cli-m10": setup_cli_m10,
}
