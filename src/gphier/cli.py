"""Command line front end: config-driven runs with persisted artifacts.

Subcommands map one-to-one onto the library workflows:

    solve               mild solution of the truncated hierarchy (Duhamel sweep)
    verify-lemmas       integral-inequality and growth-rate checks
    compare-nls         hierarchy marginals against the split-step oracle
    estimate-constant   empirical collapse-operator constant

Every run writes a config snapshot, a JSON report, and fixed-column CSV
files into the output directory; reruns with the same config and seed
produce byte-identical CSVs.  solve and compare-nls first print the
solver's own plan (solver.plan) and refuse a run whose planned peak is over
the budget (kernels.kernel_budget) unless --override-budget is given.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .kernels import (
    FactorizedKernel,
    HierarchySequence,
    ResourceBudgetError,
    factorized_sequence,
    kernel_budget,
    load_kernel,
    load_wavefunction,
    save_kernel,
    save_wavefunction,
)
from .nls import compare_marginals, factorized_trajectory
from .norms import NormParams, sobolev_norm
from .operators import CUBIC, Interaction
from .solver import (
    ClosureRule,
    SolverConfig,
    duhamel_bound_rows,
    plan,
    solve,
)
from .spectral import GridSpec
from .verify import (
    binomial_growth_check,
    estimate_collapse_constant,
    lemma31_cutoff_ladder,
    lemma31_divergence_check,
    lemma31_integral,
    lemma31_sup_check,
)

UNLIMITED_BUDGET = 2**62

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FLAGGED = 2


class CliError(Exception):
    """Configuration or usage problem; message names the offending field."""


# -- config plumbing ---------------------------------------------------------------

def load_config(path) -> dict:
    if path is None:
        raise CliError("this subcommand requires --config PATH")
    p = Path(path)
    if not p.exists():
        raise CliError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError(f"config file {p} must hold a JSON object")
    return cfg


def _field(cfg: dict, name: str, default=None, required: bool = False):
    if name in cfg:
        return cfg[name]
    if required:
        raise CliError(f"config field {name!r} is missing")
    return default


def _integer(value) -> int:
    """int(value), refusing a number with a fractional part."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _positive(value) -> float:
    """float(value), refusing a value that is not finite and > 0."""
    if not 0 < float(value) < np.inf:
        raise ValueError(f"{value!r} is not a finite positive number")
    return float(value)


def _flag(cfg: dict, name: str, default: bool) -> bool:
    """A field that must be a JSON true or false."""
    value = _field(cfg, name, default)
    if not isinstance(value, bool):
        raise CliError(f"config field {name!r} is invalid: {value!r} is not true or false")
    return value


def _typed(section: dict, name: str, cast, default=None, required: bool = False):
    """Read a field and cast it, naming the field when the type is wrong.  A
    JSON bool, alone or in a list, is no number (float() would read 1 or 0)."""
    value = _field(section, name, default, required)
    if value is None:
        if required:
            raise CliError(f"config field {name!r} is invalid: null")
        return None
    if any(isinstance(v, bool) for v in (value if isinstance(value, list) else [value])):
        raise CliError(f"config field {name!r} is invalid: {value!r} holds a bool")
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise CliError(f"config field {name!r} is invalid: {exc}") from exc


def build_grid(cfg: dict) -> GridSpec:
    section = _field(cfg, "grid", required=True)
    n = _typed(section, "n", _integer, 1)
    L = _typed(section, "L", float, required=True)
    M = _typed(section, "M", _integer, required=True)
    try:
        return GridSpec(n, L, M)
    except (TypeError, ValueError) as exc:
        raise CliError(f"config field 'grid' is invalid: {exc}") from exc


def build_interaction(cfg: dict) -> Interaction:
    kind = _field(cfg, "interaction", CUBIC)
    mu = _typed(cfg, "mu", _integer, 1)
    try:
        return Interaction(kind, mu)
    except ValueError as exc:
        raise CliError(f"config field 'interaction'/'mu' is invalid: {exc}") from exc


def _gaussian_profile(profile: dict, grid: GridSpec) -> np.ndarray:
    width = _typed(profile, "width", _positive, required=True)
    amplitude = _typed(profile, "amplitude", complex, 1.0)
    center = _typed(profile, "center", float, 0.0)
    x = grid.positions - center
    rsq = np.zeros((grid.M,) * grid.n)
    for axis in range(grid.n):
        shape = [1] * grid.n
        shape[axis] = grid.M
        rsq = rsq + (x**2).reshape(shape)
    values = amplitude * np.exp(-rsq / (2.0 * width**2))
    target = _typed(profile, "normalize_mass", _positive)
    if target is not None:
        have = float(np.sum(np.abs(values) ** 2)) * grid.dx
        if have == 0.0:
            raise CliError("cannot mass-normalize an identically zero profile")
        values = values * np.sqrt(target / have)
    return values


def _plane_wave_profile(profile: dict, grid: GridSpec) -> np.ndarray:
    amplitude = _typed(profile, "amplitude", complex, 1.0)
    p0 = _typed(profile, "p0",
                lambda v: np.atleast_1d(np.asarray(v, dtype=float)),
                required=True)
    if p0.shape != (grid.n,):
        raise CliError(f"config field 'initial_data.profile.p0' needs {grid.n} components")
    modes = p0 * grid.L / (2.0 * np.pi)
    if np.max(np.abs(modes - np.round(modes))) > 1e-9:
        raise CliError("config field 'initial_data.profile.p0' is not on the momentum lattice")
    phase = np.zeros((grid.M,) * grid.n)
    for axis in range(grid.n):
        shape = [1] * grid.n
        shape[axis] = grid.M
        phase = phase + (p0[axis] * grid.positions).reshape(shape)
    return amplitude * np.exp(1j * phase)


def build_profile(cfg: dict, grid: GridSpec) -> np.ndarray:
    """Position-space wavefunction from an initial_data.profile section."""
    data = _field(cfg, "initial_data", required=True)
    profile = _field(data, "profile", required=True)
    kind = _field(profile, "kind", required=True)
    if kind == "gaussian":
        return _gaussian_profile(profile, grid)
    if kind == "plane_wave":
        return _plane_wave_profile(profile, grid)
    if kind == "file":
        path = Path(_field(profile, "path", required=True))
        if not path.exists():
            raise CliError(f"initial data file not found: {path}")
        stored_grid, phi_hat = load_wavefunction(path)
        if stored_grid != grid:
            raise CliError(f"initial data file {path} was written for a different grid")
        from .spectral import inverse_transform

        return inverse_transform(phi_hat, grid)
    raise CliError(f"unknown initial_data.profile.kind {kind!r}")


def build_initial_sequence(cfg: dict, grid: GridSpec, K: int, xi: float,
                           budget=None) -> HierarchySequence:
    data = _field(cfg, "initial_data", required=True)
    kind = _field(data, "kind", "factorized")
    if kind == "zero":
        zero = np.zeros((grid.M,) * grid.n, dtype=complex)
        return factorized_sequence(zero, grid, K, xi, dense_up_to=0)
    if kind == "factorized":
        return factorized_sequence(build_profile(cfg, grid), grid, K, xi,
                                   dense_up_to=0)
    if kind == "levels":
        paths = _field(data, "paths", required=True)
        levels = []
        for k in range(1, K + 1):
            key = str(k)
            if key not in paths:
                raise CliError(f"config field 'initial_data.paths' is missing level {k}")
            path = Path(paths[key])
            if not path.exists():
                raise CliError(f"initial data file not found: {path}")
            kernel = load_kernel(path, budget)
            if kernel.grid != grid or kernel.k != k:
                raise CliError(f"kernel file {path} does not match grid/level {k}")
            levels.append(kernel)
        return HierarchySequence(K, xi, tuple(levels))
    raise CliError(f"unknown initial_data.kind {kind!r}")


def build_solver_config(cfg: dict, args) -> SolverConfig:
    grid, interaction = build_grid(cfg), build_interaction(cfg)
    params = NormParams(
        alpha=_typed(cfg, "alpha", float, 1.0),
        xi=_typed(cfg, "xi", float, 0.5),
    )
    closure_kind = args.closure or _field(cfg, "closure", "free_top")
    phi0 = None
    if closure_kind == "factorized_top":
        phi0 = build_profile(cfg, grid)
    closure = ClosureRule(
        kind=closure_kind,
        phi0=phi0,
        substeps=_typed(cfg, "closure_substeps", _integer, 32),
    )
    try:
        return SolverConfig(
            grid=grid,
            interaction=interaction,
            params=params,
            K=_typed(cfg, "K", _integer, required=True),
            T=_typed(cfg, "T", float, required=True),
            N_t=_typed(cfg, "N_t", _integer, required=True),
            closure=closure,
            quadrature=args.quadrature or _field(cfg, "quadrature", "trapezoid"),
            budget=UNLIMITED_BUDGET if args.override_budget else None,
        )
    except ValueError as exc:
        raise CliError(f"solver configuration is invalid: {exc}") from exc


# -- artifact writing --------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def prepare_output(args, cfg: dict, subcommand: str) -> Path:
    out = Path(args.out or _field(cfg, "output", "gphier_out"))
    out.mkdir(parents=True, exist_ok=True)
    snapshot = {
        "subcommand": subcommand,
        "config": cfg,
        "overrides": {
            "out": str(out),
            "seed": getattr(args, "seed", None),
            "quadrature": getattr(args, "quadrature", None),
            "closure": getattr(args, "closure", None),
            "override_budget": getattr(args, "override_budget", False),
            "emit_plots": getattr(args, "emit_plots", False),
        },
    }
    write_json(out / "config_snapshot.json", _jsonable(snapshot))
    return out


# -- preflight ---------------------------------------------------------------------

def preflight(config: SolverConfig, gamma0: HierarchySequence, override: bool) -> dict:
    """Print the solver's plan; refuse a run over the budget without override.

    The plan is solve()'s own (solver.plan), checked against the budget
    solve() checks (kernels.kernel_budget).  With override the run goes on
    with a warning, and solve() runs under an unlimited budget.
    """
    planned = plan(config, gamma0)
    budget = kernel_budget()
    print(f"preflight: planned peak {planned.peak_bytes:.3e} bytes, "
          f"budget {budget:.3e} bytes")
    print(f"preflight: at most {planned.collapses} collapse applications")
    over = planned.peak_bytes > budget
    if over:
        why = f"planned peak {planned.peak_bytes:.3e} bytes exceeds the {budget:.3e}-byte budget"
        if not override:
            raise CliError(f"{why}; rerun with --override-budget to accept")
        warnings.warn(f"{why}; continuing because --override-budget is set", stacklevel=2)
    return {
        "total_bytes": planned.peak_bytes,
        "budget_bytes": budget,
        "collapse_ops": planned.collapses,
        "overridden": over,
    }


# -- subcommands -------------------------------------------------------------------

def _write_trajectory(out: Path, trajectory, config: SolverConfig):
    """norm_vs_time.csv and the final level files of a solve."""
    alpha, grid = config.params.alpha, config.grid
    norm_rows = []
    for i, t in enumerate(trajectory.times):
        for k in range(1, config.K + 1):
            norm_rows.append((t, k, sobolev_norm(trajectory.states[i].level(k), alpha)))
    write_csv(out / "norm_vs_time.csv", ("time", "level", "h_alpha_norm"), norm_rows)

    final = trajectory.states[-1]
    for k in range(1, config.K + 1):
        level = final.level(k)
        if isinstance(level, FactorizedKernel):
            save_wavefunction(out / f"final_level{k}_profile.bin", level.phi_hat, grid)
        else:
            save_kernel(out / f"final_level{k}.bin", level, config.budget)


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    config = build_solver_config(cfg, args)
    emit_plots = _flag(cfg, "emit_plots", False) or args.emit_plots
    grid = config.grid
    out = prepare_output(args, cfg, "solve")
    gamma0 = build_initial_sequence(cfg, grid, config.K, config.params.xi,
                                    config.budget)
    c_hat = _typed(cfg, "c_hat", _positive)
    planned = preflight(config, gamma0, args.override_budget)

    seed = args.seed if args.seed is not None else _typed(cfg, "seed", _integer, 0)
    if c_hat is None:
        c_hat = estimate_collapse_constant(
            config.params.alpha, grid, k_range=(1,), trials=6, seed=seed,
            budget=config.budget,
        ).c_hat

    trajectory, report = solve(gamma0, config, c_hat=c_hat)
    _write_trajectory(out, trajectory, config)
    del trajectory  # the Duhamel expansion below runs without the solve's node lists

    payload = asdict(report)
    payload["preflight"] = planned
    payload["seed"] = seed
    if emit_plots:
        bound_rows = duhamel_bound_rows(gamma0, config, c_hat)
        write_csv(
            out / "bound_ratio_vs_jk.csv", ("j", "k", "norm", "bound", "ratio"),
            [(r["j"], r["k"], r["norm"], r["bound"], r["ratio"]) for r in bound_rows],
        )
        payload["duhamel"] = bound_rows
    write_json(out / "report.json", _jsonable(payload))

    print(f"solve: one sweep, trajectory norm {report.trajectory_norm:.3e}, "
          f"artifacts in {out}")
    return EXIT_OK


def cmd_verify_lemmas(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    n = _typed(cfg, "n", _integer, 1)
    beta = _typed(cfg, "beta", float, n + 1)
    cutoff = _typed(cfg, "cutoff", float, 32.0)
    resolution = _typed(cfg, "resolution", _integer, 640 if n == 1 else 40)
    include_endpoint = _flag(cfg, "include_endpoint", True) or beta == n
    out = prepare_output(args, cfg, "verify-lemmas")

    rows = []
    report = {"n": n, "beta": beta, "cutoff": cutoff, "resolution": resolution}
    flagged = False

    if beta > n:
        sup = lemma31_sup_check(beta, n, cutoff, resolution=resolution)
        rows.append(("sup_in_p", f"beta={beta} n={n} cutoff={cutoff}",
                     sup.max_value, "flat tail within 10%",
                     "pass" if sup.stable else "fail"))
        ladder = lemma31_cutoff_ladder(beta, n, np.zeros(n), (4.0, 8.0, 16.0, 32.0))
        final_change = (ladder[-1] - ladder[-2]) / ladder[-1]
        rows.append(("cutoff_stabilization", f"beta={beta} n={n}",
                     final_change, "relative change < 5%",
                     "pass" if final_change < 0.05 else "fail"))
        hi = lemma31_integral(beta + 1.0, n, np.zeros(n), 8.0, resolution=min(resolution, 200))
        lo = lemma31_integral(beta, n, np.zeros(n), 8.0, resolution=min(resolution, 200))
        rows.append(("beta_monotonicity", f"beta={beta} vs {beta + 1.0}",
                     hi / lo, "ratio < 1", "pass" if hi < lo else "fail"))
        report["sup_check"] = asdict(sup)
        report["cutoff_ladder"] = ladder

    if include_endpoint:
        div = lemma31_divergence_check(n)
        status = "flagged" if div.diverging else "fail"
        rows.append(("endpoint_divergence", f"beta={float(n)} n={n}",
                     div.values[-1], "growth ratio > 1.1 (expected hypothesis failure)",
                     status))
        flagged = flagged or div.diverging
        report["divergence"] = asdict(div)

    growth = binomial_growth_check()
    rows.append(("binomial_growth", "m=1..25", growth.ratio_tail_spread,
                 "tail spread < 10%",
                 "pass" if growth.decaying and growth.ratio_tail_spread < 0.10
                 else "fail"))
    report["binomial"] = asdict(growth)

    write_csv(out / "lemma_checks.csv",
              ("check", "parameters", "value", "reference", "status"), rows)
    report["checks"] = [
        {"check": r[0], "parameters": r[1], "value": r[2], "reference": r[3],
         "status": r[4]} for r in rows
    ]
    write_json(out / "report.json", _jsonable(report))

    failed = any(r[4] == "fail" for r in rows)
    for r in rows:
        print(f"verify-lemmas: {r[0]}: {r[4]}")
    if failed:
        return EXIT_ERROR
    return EXIT_FLAGGED if flagged else EXIT_OK


def cmd_compare_nls(args) -> int:
    cfg = load_config(args.config)
    config = build_solver_config(cfg, args)
    grid = config.grid
    out = prepare_output(args, cfg, "compare-nls")

    data = _field(cfg, "initial_data", required=True)
    if _field(data, "kind", "factorized") != "factorized":
        raise CliError("compare-nls requires factorized initial data")
    phi = build_profile(cfg, grid)
    c_hat = _typed(cfg, "c_hat", _positive)
    substeps = _typed(cfg, "oracle_substeps", _integer, 64)
    if substeps < 1:
        raise CliError("config field 'oracle_substeps' must be >= 1")
    levels = _typed(cfg, "levels_compared", _integer,
                    min(2, len(config.sourced_levels)))
    if not 1 <= levels <= config.K:
        raise CliError("config field 'levels_compared' must lie in 1..K")
    compare_alpha = _typed(cfg, "compare_alpha", float, 0.0)
    tolerance = _typed(cfg, "tolerance", float)
    gamma0 = factorized_sequence(phi, grid, config.K, config.params.xi,
                                 dense_up_to=0)
    preflight(config, gamma0, args.override_budget)

    trajectory, report = solve(gamma0, config, c_hat=c_hat)
    reference = factorized_trajectory(
        phi, grid, config.interaction, config.K, config.params.xi, config.times(),
        substeps=substeps,
    )

    rows = []
    worst = {}
    for k in range(1, levels + 1):
        errs = compare_marginals(trajectory, reference, k, alpha=compare_alpha)
        worst[str(k)] = float(np.max(errs))
        for t, e in zip(trajectory.times, errs):
            rows.append((t, k, e))
    rows.sort(key=lambda r: (r[1], r[0]))
    write_csv(out / "error_vs_time.csv", ("time", "level", "rel_error"), rows)

    passed = tolerance is None or max(worst.values()) <= tolerance
    payload = {
        "max_rel_error": worst,
        "tolerance": tolerance,
        "passed": passed,
        "solver_report": asdict(report),
    }
    write_json(out / "report.json", _jsonable(payload))
    print(f"compare-nls: max relative errors {worst} "
          f"({'pass' if passed else 'flagged'})")
    return EXIT_OK if passed else EXIT_FLAGGED


def cmd_estimate_constant(args) -> int:
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    alpha = _typed(cfg, "alpha", float, 1.0)
    k_range = _typed(cfg, "k_range", lambda v: tuple(_integer(k) for k in v),
                     (1, 2, 3))
    trials = _typed(cfg, "trials", _integer, 50)
    seed = args.seed if args.seed is not None else _typed(cfg, "seed", _integer, 0)
    out = prepare_output(args, cfg, "estimate-constant")

    budget = UNLIMITED_BUDGET if args.override_budget else None
    est = estimate_collapse_constant(alpha, grid, k_range=k_range,
                                     trials=trials, seed=seed, budget=budget)
    write_csv(
        out / "ratio_table.csv",
        ("k", "max_full_ratio", "mean_full_ratio", "max_term_ratio"),
        [(r["k"], r["max_full_ratio"], r["mean_full_ratio"], r["max_term_ratio"])
         for r in est.rows],
    )
    write_json(out / "report.json", _jsonable(asdict(est)))
    print(f"estimate-constant: c_hat={est.c_hat:.6g} "
          f"(k spread {est.k_spread:.3f}, flat={est.flat_in_k})")
    return EXIT_OK if est.flat_in_k else EXIT_FLAGGED


# -- entry point -------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors end like every other error: an error: line and exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gphier",
        description="Truncated hierarchy solver and estimate checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--config": dict(metavar="PATH", help="JSON run configuration"),
        "--out": dict(metavar="DIR", help="output directory"),
        "--seed": dict(type=int, metavar="N", help="seed override"),
        "--override-budget": dict(action="store_true",
                                  help="accept configs beyond the memory budget"),
        "--quadrature": dict(choices=("trapezoid", "simpson")),
        "--closure": dict(choices=("free_top", "zero_top", "factorized_top")),
        "--emit-plots": dict(action="store_true",
                             help="also write plot-ready tabular files"),
    }
    solver_flags = ("--override-budget", "--quadrature", "--closure")
    specs = [
        ("solve", cmd_solve, "iterate the truncated hierarchy from a config",
         ("--seed", *solver_flags, "--emit-plots")),
        ("verify-lemmas", cmd_verify_lemmas, "run the integral and growth checks", ()),
        ("compare-nls", cmd_compare_nls, "compare marginals with the NLS oracle",
         solver_flags),
        ("estimate-constant", cmd_estimate_constant,
         "sample the collapse-operator constant", ("--seed", "--override-budget")),
    ]
    for name, handler, help_text, flags in specs:
        sp = sub.add_parser(name, help=help_text)
        for flag in ("--config", "--out", *flags):
            sp.add_argument(flag, **options[flag])
        sp.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ResourceBudgetError as exc:
        print(f"error: memory budget exceeded: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (TypeError, ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
