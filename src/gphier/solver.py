"""Picard iteration for the truncated hierarchy in Duhamel form.

The m-th iterate solves

    gamma_m^(k)(t) = U0(t) gamma0^(k)
                     + int_0^t U0(t-s) Btilde^(k) gamma_{m-1}^(k+off)(s) ds

level by level, starting from the convention trajectory gamma_0^(k)(t) ==
gamma0^(k) (constant in t).  Sourced levels are k <= K - off (off = 1 cubic,
2 quintic); the top off levels follow the closure rule: free evolution of
the initial data, identically zero, or the factorized NLS trajectory.

The integral is evaluated by composite quadrature over the stored nodes.
Writing g(s) = U0(-s) Btilde gamma^(k+off)(s), the prefix integrals of g
accumulate in O(N_t) array passes and each node needs only a short window
of g values, so a Picard step never holds a whole level's source list.  The
prefix is updated in place (bitwise the out-of-place trapezoid and Simpson
formulas), so a push allocates no level-sized array, and the integrator
keeps only the integrands its rule reads (2 for trapezoid, 4 for Simpson).
Quadrature updates and the per-node copies and sums run in blocks on the
block pool (gphier.blocks), bitwise as on one worker.  A
source that is the same object at every node (the convention start, a
zero_top closure, the remainder's R_0) is collapsed once and its collapse
copied per node; any other source is collapsed node by node.

The collapse is lower triangular and nilpotent, so iterates stabilize
exactly after about K/off steps.  solve() exploits this with a frozen-level
schedule: at step 1 every sourced level is integrated and the closure
levels replace the convention start; at step m > 1 level k is re-integrated
only if level k+off was re-integrated or replaced at step m-1, and every
other level keeps the previous iterate's kernel objects.  The result is
bitwise that of full Duhamel steps (picard_step), a frozen level costs
nothing in Cauchy distances and residuals, and a step that re-integrates
nothing has distance exactly zero.  The partial sums of Duhamel terms plus
the convention-start remainder reproduce each iterate to rounding, which
the tests use as a cross-check of the whole pipeline.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import blocks, nls
from .kernels import (
    FactorizedKernel,
    HierarchySequence,
    MarginalKernel,
    ResourceBudgetError,
    as_dense,
    hermiticity_defect,
    kernel_budget,
    symmetry_defect,
    trace,
)
from .norms import NormParams, level_diff_norm, sobolev_norm, weighted_distance, weighted_norm
from .operators import CUBIC, QUINTIC, Interaction, apply_btilde, apply_free_phase, free_evolve
from .spectral import GridSpec

FREE_TOP = "free_top"
ZERO_TOP = "zero_top"
FACTORIZED_TOP = "factorized_top"

TRAPEZOID = "trapezoid"
SIMPSON = "simpson"


@dataclass(frozen=True)
class ClosureRule:
    """Treatment of the top level(s) the truncated system cannot source."""

    kind: str = FREE_TOP
    phi0: np.ndarray | None = None
    substeps: int = 32

    def __post_init__(self):
        if self.kind not in (FREE_TOP, ZERO_TOP, FACTORIZED_TOP):
            raise ValueError(f"unknown closure rule {self.kind!r}")
        if self.kind == FACTORIZED_TOP and self.phi0 is None:
            raise ValueError("factorized_top needs the initial wavefunction phi0")


@dataclass(frozen=True)
class SolverConfig:
    grid: GridSpec
    interaction: Interaction
    params: NormParams
    K: int
    T: float
    N_t: int
    m_max: int = 10
    closure: ClosureRule = field(default_factory=ClosureRule)
    quadrature: str = TRAPEZOID
    tol_cauchy: float = 1e-10
    budget: float | None = None

    def __post_init__(self):
        k_min = 2 if self.interaction.kind == CUBIC else 3
        if self.K < k_min:
            raise ValueError(f"{self.interaction.kind} hierarchy needs K >= {k_min}")
        if self.T <= 0:
            raise ValueError("horizon T must be positive")
        if self.N_t < 1:
            raise ValueError("need at least one time interval")
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")
        if self.quadrature not in (TRAPEZOID, SIMPSON):
            raise ValueError(f"unknown quadrature {self.quadrature!r}")
        if self.quadrature == SIMPSON and self.N_t % 2:
            raise ValueError("simpson quadrature needs an even node count N_t")
        if self.params.alpha <= self.grid.n / 2:
            warnings.warn(
                f"alpha={self.params.alpha} <= n/2={self.grid.n / 2}: outside the "
                "regime where the collapse bound is uniform",
                stacklevel=2,
            )

    @property
    def offset(self) -> int:
        return self.interaction.source_offset

    @property
    def sourced_levels(self) -> range:
        return range(1, self.K - self.offset + 1)

    @property
    def closure_levels(self) -> range:
        return range(self.K - self.offset + 1, self.K + 1)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N_t + 1)


@dataclass
class Trajectory:
    """Hierarchy states on uniform time nodes."""

    times: np.ndarray
    states: list

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("one state per time node required")
        if len(self.times) < 2:
            raise ValueError("trajectory needs at least two nodes")
        dt = np.diff(self.times)
        if np.any(dt <= 0) or not np.allclose(dt, dt[0], rtol=1e-12):
            raise ValueError("time nodes must be uniform and increasing")

    def __len__(self):
        return len(self.times)

    @property
    def K(self) -> int:
        return self.states[0].K

    def level_series(self, k: int) -> list:
        return [state.level(k) for state in self.states]


@dataclass
class BoundReport:
    """Outcome of one theorem-bound measurement."""

    name: str
    ratio: float
    factor: float
    passed: bool
    flagged: bool
    eta: float
    delta_K: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ratio": self.ratio,
            "factor": self.factor,
            "passed": self.passed,
            "flagged": self.flagged,
            "eta": self.eta,
            "delta_K": self.delta_K,
            "details": dict(self.details),
        }


@dataclass
class RunReport:
    iterations: int
    converged: bool
    cauchy_distances: list
    stop_weight: float
    residuals: dict
    trace_drift: dict
    hermiticity_defects: dict
    symmetry_defects: dict
    trajectory_norm: float
    initial_norm: float
    c_hat: float | None
    wall_seconds: float
    planned_bytes: int
    quadrature: str
    closure: str
    duhamel: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["residuals"] = {str(k): v for k, v in self.residuals.items()}
        out["trace_drift"] = {str(k): v for k, v in self.trace_drift.items()}
        out["hermiticity_defects"] = {
            str(k): v for k, v in self.hermiticity_defects.items()
        }
        out["symmetry_defects"] = {str(k): v for k, v in self.symmetry_defects.items()}
        return out


# -- quadrature ---------------------------------------------------------------

_BLOCK = 1 << 16  # entries per block of a quadrature update or node copy


def _blockwise(panel, out: np.ndarray, *arrays) -> np.ndarray:
    """panel(out_block, tmp, *blocks) over aligned _BLOCK-entry blocks of the
    flat arrays, spread over the block pool; tmp is per-run scratch."""
    flat = [a.reshape(-1) for a in arrays]
    dest = out.reshape(-1)

    def block(s, tmp):
        e = min(s + _BLOCK, dest.size)
        panel(dest[s:e], tmp[:e - s], *(a[s:e] for a in flat))

    blocks.map_items(block, range(0, dest.size, _BLOCK), dest.size,
                     lambda: np.empty(min(dest.size, _BLOCK), dtype=dest.dtype))
    return out


def _copy_panel(out, tmp, src):
    np.copyto(out, src)


def _add_panel(out, tmp, a, b):
    np.add(a, b, out=out)


def _trapezoid_panel(out, tmp, dt, prefix, g1, g0):
    """out = prefix + (dt / 2) * (g1 + g0)"""
    np.add(g1, g0, out=tmp)
    np.multiply(dt / 2.0, tmp, out=tmp)
    np.add(prefix, tmp, out=out)


def _simpson_panel(out, tmp, dt, even, g2, g1, g0):
    """out = even + (dt / 3) * (g2 + 4 g1 + g0)"""
    np.multiply(4.0, g1, out=tmp)
    np.add(g2, tmp, out=tmp)
    np.add(tmp, g0, out=tmp)
    np.multiply(dt / 3.0, tmp, out=tmp)
    np.add(even, tmp, out=out)


def _three_eighths_panel(out, tmp, dt, even, g3, g2, g1, g0):
    """out = even + (3 dt / 8) * (g3 + 3 g2 + 3 g1 + g0); out must not be even"""
    np.multiply(3.0, g2, out=tmp)
    np.add(g3, tmp, out=tmp)
    np.multiply(3.0, g1, out=out)
    np.add(tmp, out, out=tmp)
    np.add(tmp, g0, out=tmp)
    np.multiply(3.0 * dt / 8.0, tmp, out=tmp)
    np.add(even, tmp, out=out)


class _PrefixIntegrator:
    """Running prefix integrals of a streamed integrand on uniform nodes.

    push(g_i) returns int_0^{t_i} g(s) ds by composite trapezoid, or by
    composite Simpson with a 3/8 closing rule at odd prefixes (plain
    trapezoid for the very first interval, which the even chain never
    propagates).

    The prefix is updated in place, block by block (the blocks spread over
    the block pool), with the same operations in the same order as the
    out-of-place formulas, so the values are bitwise theirs and no temporary
    grows with g.  The returned array is one of the integrator's buffers: it
    is valid until the next push, and callers must not modify it.  Pushed
    arrays are only read, and only the last 2 (trapezoid) or 4 (Simpson)
    are kept.
    """

    def __init__(self, rule: str, dt: float):
        self.rule = rule
        self.dt = dt
        self.i = -1
        self.window = []
        self.keep = 2 if rule == TRAPEZOID else 4
        self.prefix = None  # the trapezoid prefix, or Simpson's even chain
        self.even_prev = None
        self.out = None

    def _update(self, panel, out, *arrays):
        """panel(out, tmp, dt, *arrays) over aligned blocks of the flat arrays."""
        dt = self.dt
        return _blockwise(lambda o, tmp, *a: panel(o, tmp, dt, *a), out, *arrays)

    def push(self, g: np.ndarray) -> np.ndarray:
        self.i += 1
        i, dt = self.i, self.dt
        self.window.append(g)
        if len(self.window) > self.keep:
            self.window.pop(0)
        if i == 0:
            self.prefix = np.zeros(g.shape, dtype=g.dtype)
            return self.prefix
        if self.rule == TRAPEZOID:
            return self._update(_trapezoid_panel, self.prefix, self.prefix,
                                *self.window[-2:])
        if self.out is None:
            self.out = np.empty_like(self.prefix)
        if i == 1:
            np.add(self.window[-2], self.window[-1], out=self.out)
            return np.multiply(dt / 2.0, self.out, out=self.out)
        if i % 2 == 0:
            # the new chain value overwrites the one two even nodes back,
            # which no later prefix needs
            dest = self.even_prev if self.even_prev is not None else np.empty_like(self.prefix)
            self._update(_simpson_panel, dest, self.prefix, *self.window[-3:])
            self.even_prev, self.prefix = self.prefix, dest
            return dest
        return self._update(_three_eighths_panel, self.out, self.even_prev,
                            *self.window[-4:])


def _integrate_duhamel(sources, times, rule, gamma0_data, grid, k, interaction):
    """Per-node U0(t_i)(gamma0 + prefix integral of U0(-s) Btilde src(s)).

    sources lists the (k+offset)-level kernel at each node; gamma0_data is
    the dense level-k initial array or None for the pure integral term.
    """
    dt = times[1] - times[0]
    integ = _PrefixIntegrator(rule, dt)
    constant = None
    if all(src is sources[0] for src in sources):
        constant = apply_btilde(sources[0], interaction).data
    out = []
    for i, src in enumerate(sources):
        if constant is None:
            g = apply_btilde(src, interaction).data
        else:
            g = _blockwise(_copy_panel, np.empty_like(constant), constant)
        apply_free_phase(g, grid, k, -times[i])
        prefix = integ.push(g)
        new = np.empty_like(prefix)
        if gamma0_data is None:
            _blockwise(_copy_panel, new, prefix)
        else:
            _blockwise(_add_panel, new, gamma0_data, prefix)
        apply_free_phase(new, grid, k, times[i])
        out.append(MarginalKernel(grid, k, new))
    return out


# -- closure and start trajectories -----------------------------------------------

def _closure_states(gamma0: HierarchySequence, config: SolverConfig) -> dict:
    """Node lists for every closure level, shared by all iterates."""
    grid, times = config.grid, config.times()
    out = {}
    if config.closure.kind == ZERO_TOP:
        for k in config.closure_levels:
            zero = FactorizedKernel(
                grid, k, np.zeros((grid.M,) * grid.n, dtype=np.complex128)
            )
            out[k] = [zero] * len(times)
    elif config.closure.kind == FREE_TOP:
        for k in config.closure_levels:
            top = gamma0.level(k)
            out[k] = [free_evolve(top, t) for t in times]
    else:
        snapshots = nls.solve_nodes(
            config.closure.phi0, grid, config.interaction, times,
            substeps=config.closure.substeps,
        )
        for k in config.closure_levels:
            out[k] = [FactorizedKernel.from_position(v, grid, k) for v in snapshots]
    return out


def convention_trajectory(gamma0: HierarchySequence, config: SolverConfig) -> Trajectory:
    """The iteration start: the initial sequence frozen at every node."""
    state = HierarchySequence(
        config.K, config.params.xi,
        tuple(gamma0.level(k) for k in range(1, config.K + 1)),
    )
    times = config.times()
    return Trajectory(times, [state] * len(times))


def plan_memory(config: SolverConfig) -> dict:
    """Bytes the solve will hold at peak; raises if over budget."""
    grid = config.grid
    per_state = sum(grid.kernel_bytes(k) for k in config.sourced_levels)
    nodes = config.N_t + 1
    trajectories = 2 * nodes * per_state
    biggest = max(grid.kernel_bytes(k) for k in config.sourced_levels)
    transient = 8 * biggest
    total = trajectories + transient
    budget = kernel_budget(config.budget)
    if total > budget:
        raise ResourceBudgetError(
            f"solve needs ~{total:.3e} bytes "
            f"({nodes} nodes x 2 trajectories x {per_state:.3e} B + workspace), "
            f"over budget {budget:.3e}"
        )
    return {
        "per_state_bytes": per_state,
        "nodes": nodes,
        "trajectory_bytes": trajectories,
        "transient_bytes": transient,
        "total_bytes": total,
        "budget_bytes": budget,
    }


def planned_collapses(config: SolverConfig) -> int:
    """Upper bound on the collapses solve() makes, from its schedule alone.

    Walks the frozen-level schedule without building arrays: at step 1 every
    sourced level integrates the constant convention start (one collapse);
    later a level is re-integrated when its source level changed, at one
    collapse for a zero_top closure source (the same kernel at every node)
    and N_t+1 otherwise.  The walk ends at the first step that re-integrates
    nothing, or after m_max steps, and then adds the residual step.  solve()
    makes exactly this many unless it converges before the schedule runs out.
    """
    off, nodes = config.offset, config.N_t + 1
    closure = set(config.closure_levels)
    constant = closure if config.closure.kind == ZERO_TOP else set()

    def step(changed):
        redone = {k for k in config.sourced_levels if k + off in changed}
        return redone, sum(1 if k + off in constant else nodes for k in redone)

    total = len(config.sourced_levels)
    changed = set(config.sourced_levels) | closure
    for _ in range(config.m_max - 1):
        if not changed:
            break
        changed, cost = step(changed)
        total += cost
    return total + step(changed)[1]


def _frozen_step(times: np.ndarray, levels: dict, changed: set, gamma0_data: dict,
                 closure: dict, config: SolverConfig):
    """One Duhamel step on per-level node lists; returns (levels, changed).

    A sourced level k is re-integrated only if level k+off is in changed;
    otherwise it keeps its node list.  Closure levels take the closure node
    lists and count as changed when they replace a different list.
    """
    off = config.offset
    new_levels, new_changed = {}, set()
    for k in config.sourced_levels:
        if k + off in changed:
            new_levels[k] = _integrate_duhamel(
                levels[k + off], times, config.quadrature, gamma0_data[k],
                config.grid, k, config.interaction,
            )
            new_changed.add(k)
        else:
            new_levels[k] = levels[k]
    for k in config.closure_levels:
        new_levels[k] = closure[k]
        if levels[k] is not closure[k]:
            new_changed.add(k)
    return new_levels, new_changed


def _as_trajectory(times: np.ndarray, levels: dict, config: SolverConfig) -> Trajectory:
    states = [
        HierarchySequence(
            config.K, config.params.xi,
            tuple(levels[k][i] for k in range(1, config.K + 1)),
        )
        for i in range(len(times))
    ]
    return Trajectory(times, states)


def picard_step(prev: Trajectory, gamma0: HierarchySequence,
                config: SolverConfig) -> Trajectory:
    """One application of the Duhamel map to a stored trajectory."""
    if len(prev.times) != config.N_t + 1 or not np.allclose(
        prev.times, config.times(), rtol=1e-12, atol=1e-15
    ):
        raise ValueError("trajectory nodes do not match the configuration")
    gamma0_data = {
        k: as_dense(gamma0.level(k), config.budget).data
        for k in config.sourced_levels
    }
    levels = {k: prev.level_series(k) for k in range(1, config.K + 1)}
    new_levels, _ = _frozen_step(
        prev.times, levels, set(levels), gamma0_data,
        _closure_states(gamma0, config), config,
    )
    return _as_trajectory(prev.times, new_levels, config)


# -- Duhamel expansion terms -----------------------------------------------------

def duhamel_term(j: int, k: int, gamma0: HierarchySequence,
                 config: SolverConfig) -> list:
    """Trajectory of the j-th expansion term at level k.

    Xi_0 is the free evolution of gamma0^(k); Xi_j integrates the collapsed
    (j-1)-th term one level up.  The j=0 output keeps the representation of
    the initial data (possibly factorized); deeper terms are dense.
    """
    off = config.offset
    top = k + j * off
    if j < 0 or top > config.K:
        raise ValueError(
            f"term (j={j}, k={k}) needs level {top} but truncation is K={config.K}"
        )
    times = config.times()
    current = [free_evolve(gamma0.level(top), t) for t in times]
    for lvl in range(top - off, k - off, -off):
        current = _integrate_duhamel(
            current, times, config.quadrature, None, config.grid, lvl,
            config.interaction,
        )
    return current


def duhamel_remainder(m: int, k: int, gamma0: HierarchySequence,
                      config: SolverConfig) -> list:
    """Convention-start remainder: iterate m minus the first m expansion terms.

    R_0 is the constant trajectory; R_m integrates R_{m-1} one level up and
    vanishes at closure levels from m=1 on.  Only meaningful for the
    free_top closure, where closure levels carry exactly the j=0 term.
    """
    if config.closure.kind != FREE_TOP:
        raise ValueError("remainder bookkeeping is defined for the free_top closure")
    times = config.times()
    grid, off = config.grid, config.offset

    def recurse(m_left: int, lvl: int):
        if m_left == 0:
            return [gamma0.level(lvl)] * len(times)
        if lvl in config.closure_levels:
            return None
        src = recurse(m_left - 1, lvl + off)
        if src is None:
            return None
        return _integrate_duhamel(
            src, times, config.quadrature, None, grid, lvl,
            config.interaction,
        )

    out = recurse(m, k)
    if out is None:
        zero = MarginalKernel.zeros(grid, k, budget=config.budget)
        return [zero] * len(times)
    return out


# -- the solver -------------------------------------------------------------------

def _max_node_distance(a: Trajectory, b: Trajectory, params: NormParams) -> float:
    return max(
        weighted_distance(sa, sb, params) for sa, sb in zip(a.states, b.states)
    )


def solve(gamma0: HierarchySequence, config: SolverConfig,
          c_hat: float | None = None):
    """Iterate to the mild solution; returns (Trajectory, RunReport).

    Cauchy distances between successive iterates are measured in the
    weighted norm with weight eta = xi - c_hat*T when a collapse constant
    is supplied (and eta > 0), otherwise with xi itself.
    """
    t_start = time.perf_counter()
    if gamma0.grid != config.grid:
        raise ValueError("initial data grid differs from configuration grid")
    if gamma0.K != config.K:
        raise ValueError("initial data depth differs from configuration K")
    plan = plan_memory(config)

    xi, alpha = config.params.xi, config.params.alpha
    stop_weight = xi
    if c_hat is not None:
        eta = xi - c_hat * config.T
        if eta > 0:
            stop_weight = eta
        else:
            warnings.warn("eta = xi - c_hat*T is not positive; stopping in xi norm",
                          stacklevel=2)
    stop_params = NormParams(alpha=alpha, xi=stop_weight)

    closure = _closure_states(gamma0, config)
    gamma0_data = {
        k: as_dense(gamma0.level(k), config.budget).data
        for k in config.sourced_levels
    }

    prev = convention_trajectory(gamma0, config)
    levels = {k: prev.level_series(k) for k in range(1, config.K + 1)}
    changed = set(levels)  # the convention start differs from every iterate
    distances = []
    converged = False
    iterations = 0
    last_norms = {}  # level -> norm of its last-node kernel, for the stop scale
    for _ in range(config.m_max):
        levels, changed = _frozen_step(
            prev.times, levels, changed, gamma0_data, closure, config
        )
        new = _as_trajectory(prev.times, levels, config)
        iterations += 1
        d = _max_node_distance(new, prev, stop_params)
        if not math.isfinite(d):
            raise FloatingPointError(
                f"non-finite Cauchy distance at iteration {iterations}"
            )
        distances.append(d)
        prev = new
        for k in changed:
            last_norms[k] = sobolev_norm(levels[k][-1], alpha)
        scale = max(1.0, math.fsum(
            stop_weight**k * last_norms[k] for k in range(1, config.K + 1)
        ))
        if d <= config.tol_cauchy * scale:
            converged = True
            break

    final = prev
    if not converged:
        warnings.warn(
            f"Picard iteration did not reach tol_cauchy in {config.m_max} steps "
            f"(last distance {distances[-1]:.3e})",
            stacklevel=2,
        )

    # self-consistency residual: one more Duhamel step, level by level
    extra, _ = _frozen_step(final.times, levels, changed, gamma0_data, closure, config)
    # every final kernel normed once, for the residuals and the trajectory norm
    norms = {k: [sobolev_norm(kern, alpha) for kern in levels[k]]
             for k in range(1, config.K + 1)}
    residuals = {}
    for k in config.sourced_levels:
        denom = max(norms[k], default=0.0)
        gap = max(
            level_diff_norm(a, b, alpha) for a, b in zip(levels[k], extra[k])
        )
        residuals[k] = gap / denom if denom > 0 else gap

    trace_drift = {}
    hermiticity = {}
    symmetry = {}
    for k in config.sourced_levels:
        t0 = trace(final.states[0].level(k))
        drift = max(abs(trace(s.level(k)) - t0) for s in final.states)
        trace_drift[k] = drift / max(1.0, abs(t0))
        hermiticity[k] = max(hermiticity_defect(s.level(k)) for s in final.states)
        symmetry[k] = max(symmetry_defect(s.level(k)) for s in final.states)

    report = RunReport(
        iterations=iterations,
        converged=converged,
        cauchy_distances=distances,
        stop_weight=stop_weight,
        residuals=residuals,
        trace_drift=trace_drift,
        hermiticity_defects=hermiticity,
        symmetry_defects=symmetry,
        trajectory_norm=max(
            math.fsum(stop_weight**k * norms[k][i] for k in range(1, config.K + 1))
            for i in range(len(final.times))
        ),
        initial_norm=weighted_norm(gamma0, config.params),
        c_hat=c_hat,
        wall_seconds=time.perf_counter() - t_start,
        planned_bytes=plan["total_bytes"],
        quadrature=config.quadrature,
        closure=config.closure.kind,
    )
    return final, report


def duhamel_bound_rows(gamma0: HierarchySequence, config: SolverConfig,
                       c_hat: float, j_max: int = 3, k_max: int = 3) -> list:
    """Norm-vs-bound table for the expansion terms at the final time."""
    alpha = config.params.alpha
    rows = []
    for k in range(1, min(k_max, config.K) + 1):
        for j in range(1, j_max + 1):
            top = k + j * config.offset
            if top > config.K:
                continue
            term = duhamel_term(j, k, gamma0, config)
            value = sobolev_norm(term[-1], alpha)
            bound = (
                math.comb(k + j - 1, j)
                * (c_hat * config.T) ** j
                * sobolev_norm(gamma0.level(top), alpha)
            )
            rows.append({
                "j": j,
                "k": k,
                "norm": value,
                "bound": bound,
                "ratio": value / bound if bound > 0 else math.inf,
            })
    return rows


# -- theorem bound checks ----------------------------------------------------------

def _eta_or_raise(config: SolverConfig, c_hat: float) -> float:
    eta = config.params.xi - c_hat * config.T
    if eta <= 0:
        raise ValueError(
            f"eta = xi - c_hat*T = {eta:.3e} <= 0: horizon too long for this constant"
        )
    return eta


def apriori_bound_check(traj: Trajectory, gamma0: HierarchySequence,
                        config: SolverConfig, c_hat: float,
                        delta_K: float = 0.0) -> BoundReport:
    """Solution growth against the eta/xi (cubic) or 1/(eta xi) (quintic) factor."""
    eta = _eta_or_raise(config, c_hat)
    alpha, xi = config.params.alpha, config.params.xi
    num = max(weighted_norm(s, NormParams(alpha, eta)) for s in traj.states)
    den = weighted_norm(gamma0, NormParams(alpha, xi))
    ratio = num / den if den > 0 else 0.0
    cubic_style = eta / xi
    factor = cubic_style if config.interaction.kind == CUBIC else 1.0 / (eta * xi)
    passed = ratio <= factor + delta_K
    flagged = (
        config.interaction.kind == QUINTIC
        and passed
        and ratio > cubic_style + delta_K
    )
    return BoundReport(
        name="apriori",
        ratio=ratio,
        factor=factor,
        passed=passed,
        flagged=flagged,
        eta=eta,
        delta_K=delta_K,
        details={"numerator": num, "denominator": den, "cubic_style": cubic_style},
    )


def contraction_factor_check(gamma0_a: HierarchySequence,
                             gamma0_b: HierarchySequence,
                             config: SolverConfig, c_hat: float,
                             delta_K: float = 0.0) -> BoundReport:
    """Lipschitz factor of the data-to-solution map at the special horizon.

    The quoted factors (4/5 cubic, 5/(4 xi^2) quintic) assume T = xi/(5 c_hat);
    the report records how far the configured horizon is from that."""
    eta = _eta_or_raise(config, c_hat)
    alpha, xi = config.params.alpha, config.params.xi
    traj_a, _ = solve(gamma0_a, config, c_hat=c_hat)
    traj_b, _ = solve(gamma0_b, config, c_hat=c_hat)
    num = max(
        weighted_distance(sa, sb, NormParams(alpha, eta))
        for sa, sb in zip(traj_a.states, traj_b.states)
    )
    den = weighted_distance(gamma0_a, gamma0_b, NormParams(alpha, xi))
    cubic_style = 0.8
    factor = cubic_style if config.interaction.kind == CUBIC else 1.25 / xi**2
    special_T = xi / (5.0 * c_hat)
    if den == 0.0:
        return BoundReport(
            name="contraction", ratio=0.0, factor=factor, passed=num == 0.0,
            flagged=False, eta=eta, delta_K=delta_K,
            details={"numerator": num, "denominator": den,
                     "special_T": special_T, "exact_equality": True},
        )
    ratio = num / den
    passed = ratio <= factor + delta_K
    flagged = (
        config.interaction.kind == QUINTIC
        and passed
        and ratio > cubic_style + delta_K
    )
    return BoundReport(
        name="contraction",
        ratio=ratio,
        factor=factor,
        passed=passed,
        flagged=flagged,
        eta=eta,
        delta_K=delta_K,
        details={
            "numerator": num,
            "denominator": den,
            "special_T": special_T,
            "T_matches_special": bool(abs(config.T - special_T)
                                      <= 1e-9 * max(1.0, special_T)),
            "cubic_style": cubic_style,
        },
    )
