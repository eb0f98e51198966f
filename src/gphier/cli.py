"""Command line front end: config-driven runs with persisted artifacts.

Subcommands map one-to-one onto the library workflows:

    solve               Picard iteration of the truncated hierarchy
    verify-lemmas       integral-inequality and growth-rate checks
    compare-nls         hierarchy marginals against the split-step oracle
    estimate-constant   empirical collapse-operator constant

Every run writes a config snapshot, a JSON report, and fixed-column CSV
files into the output directory; reruns with the same config and seed
produce byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .kernels import (
    BUDGET_ENV_VAR,
    FactorizedKernel,
    HierarchySequence,
    ResourceBudgetError,
    factorized_sequence,
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
    planned_collapses,
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

DEFAULT_PREFLIGHT_BUDGET = 1_000_000_000
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


def _typed(section: dict, name: str, cast, default=None, required: bool = False):
    """Read a field and cast it, naming the field when the type is wrong."""
    value = _field(section, name, default, required)
    if value is None:
        return None
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise CliError(f"config field {name!r} is invalid: {exc}") from exc


def build_grid(cfg: dict) -> GridSpec:
    section = _field(cfg, "grid", required=True)
    try:
        return GridSpec(
            int(_field(section, "n", 1)),
            float(_field(section, "L", required=True)),
            int(_field(section, "M", required=True)),
        )
    except (TypeError, ValueError) as exc:
        raise CliError(f"config field 'grid' is invalid: {exc}") from exc


def build_interaction(cfg: dict) -> Interaction:
    kind = _field(cfg, "interaction", CUBIC)
    mu = _field(cfg, "mu", 1)
    try:
        return Interaction(kind, int(mu))
    except ValueError as exc:
        raise CliError(f"config field 'interaction'/'mu' is invalid: {exc}") from exc


def _gaussian_profile(profile: dict, grid: GridSpec) -> np.ndarray:
    width = _typed(profile, "width", float, required=True)
    amplitude = _typed(profile, "amplitude", complex, 1.0)
    center = _typed(profile, "center", float, 0.0)
    if width <= 0:
        raise CliError("config field 'initial_data.profile.width' must be positive")
    x = grid.positions - center
    rsq = np.zeros((grid.M,) * grid.n)
    for axis in range(grid.n):
        shape = [1] * grid.n
        shape[axis] = grid.M
        rsq = rsq + (x**2).reshape(shape)
    values = amplitude * np.exp(-rsq / (2.0 * width**2))
    target = _typed(profile, "normalize_mass", float)
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


def build_solver_config(cfg: dict, args, grid: GridSpec,
                        interaction: Interaction) -> SolverConfig:
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
        substeps=_typed(cfg, "closure_substeps", int, 32),
    )
    budget = None
    if args.override_budget:
        budget = UNLIMITED_BUDGET
    try:
        return SolverConfig(
            grid=grid,
            interaction=interaction,
            params=params,
            K=_typed(cfg, "K", int, required=True),
            T=_typed(cfg, "T", float, required=True),
            N_t=_typed(cfg, "N_t", int, required=True),
            m_max=_typed(cfg, "m_max", int, 10),
            closure=closure,
            quadrature=args.quadrature or _field(cfg, "quadrature", "trapezoid"),
            tol_cauchy=_typed(cfg, "tol_cauchy", float, 1e-10),
            budget=budget,
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
            "seed": args.seed,
            "quadrature": args.quadrature,
            "closure": args.closure,
            "override_budget": bool(args.override_budget),
        },
    }
    write_json(out / "config_snapshot.json", _jsonable(snapshot))
    return out


# -- preflight ---------------------------------------------------------------------

def preflight_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_PREFLIGHT_BUDGET
    try:
        return int(float(raw))
    except ValueError as exc:
        raise CliError(f"environment variable {BUDGET_ENV_VAR} is not a number") from exc


def preflight(config: SolverConfig, override: bool) -> dict:
    """Trajectory-storage estimate; refuses oversize configs without override.

    The estimate counts N_t stored nodes of all K dense levels, which is
    deliberately pessimistic for runs that keep top levels factorized.  The
    collapse count is the solver's own schedule bound, planned_collapses.
    """
    grid, N_t = config.grid, config.N_t
    per_level = [(k, grid.kernel_entries(k), grid.kernel_bytes(k))
                 for k in range(1, config.K + 1)]
    total = N_t * sum(b for _, _, b in per_level)
    collapse_ops = planned_collapses(config)
    budget = preflight_budget()
    print("preflight: per-level kernel sizes")
    for k, entries, nbytes in per_level:
        print(f"  level {k}: {entries} complex entries, {nbytes:.3e} bytes")
    print(f"preflight: trajectory storage {total:.3e} bytes "
          f"({N_t} nodes x all levels), budget {budget:.3e} bytes")
    print(f"preflight: at most {collapse_ops} collapse applications")
    if total > budget:
        if not override:
            raise CliError(
                f"estimated {total:.3e} bytes exceeds the {budget:.3e}-byte "
                "budget; rerun with --override-budget to accept"
            )
        warnings.warn(
            f"estimated {total:.3e} bytes exceeds the budget {budget:.3e}; "
            "continuing because --override-budget is set",
            stacklevel=2,
        )
    return {
        "per_level_bytes": {str(k): b for k, _, b in per_level},
        "total_bytes": total,
        "budget_bytes": budget,
        "collapse_ops": collapse_ops,
        "overridden": bool(override and total > budget),
    }


# -- subcommands -------------------------------------------------------------------

def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    interaction = build_interaction(cfg)
    config = build_solver_config(cfg, args, grid, interaction)
    out = prepare_output(args, cfg, "solve")
    plan = preflight(config, args.override_budget)

    seed = args.seed if args.seed is not None else _typed(cfg, "seed", int, 0)
    gamma0 = build_initial_sequence(cfg, grid, config.K, config.params.xi,
                                    config.budget)

    c_hat = _typed(cfg, "c_hat", float)
    if c_hat is None:
        c_hat = estimate_collapse_constant(
            config.params.alpha, grid, k_range=(1,), trials=6, seed=seed,
            budget=config.budget,
        ).c_hat

    trajectory, report = solve(gamma0, config, c_hat=c_hat)

    alpha = config.params.alpha
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
            save_kernel(out / f"final_level{k}.bin", level)

    payload = report.to_dict()
    payload["preflight"] = plan
    payload["seed"] = seed
    if args.emit_plots or _field(cfg, "emit_plots", False):
        write_csv(
            out / "cauchy_distances.csv", ("iteration", "distance"),
            [(i + 1, d) for i, d in enumerate(report.cauchy_distances)],
        )
        bound_rows = duhamel_bound_rows(gamma0, config, c_hat)
        write_csv(
            out / "bound_ratio_vs_jk.csv", ("j", "k", "norm", "bound", "ratio"),
            [(r["j"], r["k"], r["norm"], r["bound"], r["ratio"]) for r in bound_rows],
        )
        payload["duhamel"] = bound_rows
    write_json(out / "report.json", _jsonable(payload))

    print(f"solve: {report.iterations} iterations, converged={report.converged}, "
          f"artifacts in {out}")
    return EXIT_OK


def cmd_verify_lemmas(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    n = _typed(cfg, "n", int, 1)
    beta = _typed(cfg, "beta", float, n + 1)
    cutoff = _typed(cfg, "cutoff", float, 32.0)
    resolution = _typed(cfg, "resolution", int, 640 if n == 1 else 40)
    include_endpoint = bool(_field(cfg, "include_endpoint", True)) or beta == n
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
        report["sup_check"] = sup.to_dict()
        report["cutoff_ladder"] = ladder

    if include_endpoint:
        div = lemma31_divergence_check(n)
        status = "flagged" if div.diverging else "fail"
        rows.append(("endpoint_divergence", f"beta={float(n)} n={n}",
                     div.values[-1], "growth ratio > 1.1 (expected hypothesis failure)",
                     status))
        flagged = flagged or div.diverging
        report["divergence"] = div.to_dict()

    growth = binomial_growth_check()
    rows.append(("binomial_growth", "m=1..25", growth.ratio_tail_spread,
                 "tail spread < 10%",
                 "pass" if growth.decaying and growth.ratio_tail_spread < 0.10
                 else "fail"))
    report["binomial"] = growth.to_dict()

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
    grid = build_grid(cfg)
    interaction = build_interaction(cfg)
    config = build_solver_config(cfg, args, grid, interaction)
    out = prepare_output(args, cfg, "compare-nls")
    preflight(config, args.override_budget)

    data = _field(cfg, "initial_data", required=True)
    if _field(data, "kind", "factorized") != "factorized":
        raise CliError("compare-nls requires factorized initial data")
    phi = build_profile(cfg, grid)
    gamma0 = factorized_sequence(phi, grid, config.K, config.params.xi,
                                 dense_up_to=0)

    c_hat = _typed(cfg, "c_hat", float)
    trajectory, report = solve(gamma0, config, c_hat=c_hat)
    reference = factorized_trajectory(
        phi, grid, interaction, config.K, config.params.xi, config.times(),
        substeps=_typed(cfg, "oracle_substeps", int, 64),
    )

    levels = _typed(cfg, "levels_compared", int,
                    min(2, len(config.sourced_levels)))
    if not 1 <= levels <= config.K:
        raise CliError("config field 'levels_compared' must lie in 1..K")
    compare_alpha = _typed(cfg, "compare_alpha", float, 0.0)
    rows = []
    worst = {}
    for k in range(1, levels + 1):
        errs = compare_marginals(trajectory, reference, k, alpha=compare_alpha)
        worst[str(k)] = float(np.max(errs))
        for t, e in zip(trajectory.times, errs):
            rows.append((t, k, e))
    rows.sort(key=lambda r: (r[1], r[0]))
    write_csv(out / "error_vs_time.csv", ("time", "level", "rel_error"), rows)

    tolerance = _typed(cfg, "tolerance", float)
    passed = tolerance is None or max(worst.values()) <= tolerance
    payload = {
        "max_rel_error": worst,
        "tolerance": tolerance,
        "passed": passed,
        "solver_report": report.to_dict(),
    }
    write_json(out / "report.json", _jsonable(payload))
    print(f"compare-nls: max relative errors {worst} "
          f"({'pass' if passed else 'flagged'})")
    return EXIT_OK if passed else EXIT_FLAGGED


def cmd_estimate_constant(args) -> int:
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    alpha = _typed(cfg, "alpha", float, 1.0)
    k_range = _typed(cfg, "k_range", lambda v: tuple(int(k) for k in v),
                     (1, 2, 3))
    trials = _typed(cfg, "trials", int, 50)
    seed = args.seed if args.seed is not None else _typed(cfg, "seed", int, 0)
    out = prepare_output(args, cfg, "estimate-constant")

    budget = UNLIMITED_BUDGET if args.override_budget else None
    largest = max(k_range) + 1
    print(f"preflight: largest draw is a level-{largest} kernel, "
          f"{grid.kernel_bytes(largest):.3e} bytes")

    est = estimate_collapse_constant(alpha, grid, k_range=k_range,
                                     trials=trials, seed=seed, budget=budget)
    write_csv(
        out / "ratio_table.csv",
        ("k", "max_full_ratio", "mean_full_ratio", "max_term_ratio"),
        [(r["k"], r["max_full_ratio"], r["mean_full_ratio"], r["max_term_ratio"])
         for r in est.rows],
    )
    write_json(out / "report.json", _jsonable(est.to_dict()))
    print(f"estimate-constant: c_hat={est.c_hat:.6g} "
          f"(k spread {est.k_spread:.3f}, flat={est.flat_in_k})")
    return EXIT_OK if est.flat_in_k else EXIT_FLAGGED


# -- entry point -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gphier",
        description="Truncated hierarchy solver and estimate checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("solve", cmd_solve, "iterate the truncated hierarchy from a config"),
        ("verify-lemmas", cmd_verify_lemmas, "run the integral and growth checks"),
        ("compare-nls", cmd_compare_nls, "compare marginals with the NLS oracle"),
        ("estimate-constant", cmd_estimate_constant,
         "sample the collapse-operator constant"),
    ]
    for name, handler, help_text in specs:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH", help="JSON run configuration")
        sp.add_argument("--out", metavar="DIR", help="output directory")
        sp.add_argument("--seed", type=int, metavar="N", help="seed override")
        sp.add_argument("--override-budget", action="store_true",
                        help="accept configs beyond the memory budget")
        sp.add_argument("--quadrature", choices=("trapezoid", "simpson"))
        sp.add_argument("--closure",
                        choices=("free_top", "zero_top", "factorized_top"))
        sp.add_argument("--emit-plots", action="store_true",
                        help="also write plot-ready tabular files")
        sp.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ResourceBudgetError as exc:
        print(f"error: memory budget exceeded: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (TypeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
