"""The truncated hierarchy in Duhamel form, solved by one sweep.

The Duhamel map takes a trajectory gamma to

    gamma^(k)(t) = U0(t) gamma0^(k)
                   + int_0^t U0(t-s) Btilde^(k) gamma^(k+off)(s) ds

level by level; its Picard iterates start from the convention trajectory
gamma_0^(k)(t) == gamma0^(k) (constant in t).  Sourced levels are
k <= K - off (off = 1 cubic, 2 quintic); the top off levels follow the
closure rule: free evolution of the initial data, identically zero, or the
factorized NLS trajectory.

The integral is evaluated by composite quadrature over the stored nodes.
Writing g(s) = U0(-s) Btilde gamma^(k+off)(s), the prefix integrals of g
accumulate in O(N_t) array passes and each node needs only a short window
of g values, so a step never holds a whole level's list of integrands.  The
prefix is updated in place (bitwise the out-of-place trapezoid and Simpson
formulas), so a push allocates no level-sized array, and between pushes
the integrator keeps only the integrands its next push reads (1 for
trapezoid, 3 for Simpson).
Quadrature updates run in the row blocks of blocks.rows on the block pool,
bitwise as on one worker.  Each node is written once, by the free phase
pass that also sums gamma0 and the prefix into it (apply_free_phase's
terms).  A source that is the same object at every node (the convention
start, a zero_top closure) is collapsed once, and each node's integrand is
copied from that collapse in its own phase pass; any other source is
collapsed node by node.

Levels come in the four representations of kernels.  Closure levels are
factorized, or evolved when free_top evolves dense initial data.  A sourced
level is dense or low rank, as plan() decides: low rank when its initial
data and its source (a closure level) are factorized and its nodes' factors
stay narrow.  The collapse of a factorized source is then a rank-two
LowRankKernel, and node i is the initial data's column plus the quadrature-
weighted integrand columns, phased by scaling the factors' rows, with no
level-sized pass (_low_rank_nodes).  A dense level sourced by a low-rank one
collapses each node from its factors (operators._collapse_low_rank, 2 T r
columns) and multiplies only that integrand out.  The H^alpha norm of a
low-rank node comes from a thin QR of its factors.  Its defects come from
its level's column stack (kernels.LowRankLevel, which the sweep returns):
every node is a prefix of it, so one QR per stack serves the whole level.
No low-rank node is ever multiplied out.

The collapse is lower triangular and nilpotent, so the fixed point of the
Duhamel map is a back substitution: level k = D_k(level k+off), from the
closure down to level 1.  solve() is that one sweep (_step), which fills
the levels in descending order: the closure lists first, then each
sourced level k integrates the new level k+off (a Gauss-Seidel sweep).  Its levels are bitwise those that full Duhamel
steps (picard_step, the Jacobi map, which reads every source from the
previous iterate) reach after about K/off steps.  A sweep has no
successive iterates, so solve() measures no distance between them; the
contraction estimates are checked on picard_step's iterates instead.
plan() is the one resource model: it walks the same sweep without arrays,
picking each sourced level's representation from the initial data, and
yields the collapse count, the peak bytes and the low-rank levels.
solve() and the CLI check that peak against one budget,
kernels.kernel_budget.

Term j of the Duhamel expansion below level top is level top - j off of the
same sweep on the data (0, .., 0, gamma0^(top)), with no closure and the free
evolution of gamma0^(top) as the top list (_expansion), so plan() picks its
levels' representations too.  duhamel_bound_rows runs that sweep once per top
level and reads each level's last node.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import blocks, nls
from .kernels import (
    FactorizedKernel,
    HierarchySequence,
    LowRankKernel,
    LowRankLevel,
    MarginalKernel,
    apply_free_phase,
    as_dense,
    check_budget,
    frobenius_norm,
    hermiticity_defect,
    symmetry_defect,
    trace,
)
# solve() takes no level_diff_norm; the name stays bound for perfbench/spans.py
from .norms import NormParams, level_diff_norm, sobolev_norm, weighted_distance, weighted_norm
from .operators import (CUBIC, QUINTIC, Interaction, apply_btilde, contraction_bytes,
                        free_evolve)
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
    """A solve: grid, interaction, norm weights, depth K, horizon T on N_t
    intervals, closure, quadrature and budget.  solve() makes one sweep and
    does not read m_max; the field stays, checked >= 1, for callers that
    still pass it."""

    grid: GridSpec
    interaction: Interaction
    params: NormParams
    K: int
    T: float
    N_t: int
    m_max: int = 10
    closure: ClosureRule = field(default_factory=ClosureRule)
    quadrature: str = TRAPEZOID
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


@dataclass
class RunReport:
    """What solve() measured.  The sweep lands on the fixed point of the
    Duhamel map, so iterations is 1 and converged is True; trajectory_norm
    is the largest weighted norm over the nodes, in the weight stop_weight."""

    iterations: int
    converged: bool
    stop_weight: float
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


# -- quadrature ---------------------------------------------------------------

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
    arrays are only read; between pushes only the last 1 (trapezoid) or 3
    (Simpson) are kept, the ones the next push reads.
    """

    def __init__(self, rule: str, dt: float):
        self.rule = rule
        self.dt = dt
        self.i = -1
        self.window = []
        self.keep = 1 if rule == TRAPEZOID else 3
        self.prefix = None  # the trapezoid prefix, or Simpson's even chain
        self.even_prev = None
        self.out = None

    def _update(self, panel, out, *arrays):
        """panel(out, tmp, dt, *arrays) over aligned row blocks of the arrays."""
        dt = self.dt
        dest, *mats = (a.reshape(-1, a.shape[-1]) for a in (out, *arrays))
        blocks.rows(lambda r, tmp: panel(dest[r], tmp, dt, *(a[r] for a in mats)), dest)
        return out

    def push(self, g: np.ndarray) -> np.ndarray:
        self.i += 1
        self.window.append(g)
        prefix = self._advance(g)
        del self.window[:-self.keep]  # keep only what the next push reads
        return prefix

    def _advance(self, g: np.ndarray) -> np.ndarray:
        i, dt = self.i, self.dt
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


def _integrands(sources, times, interaction, dense: bool):
    """Yields g_i = U0(-t_i) Btilde src_i, node by node: a dense array if
    dense, else the LowRankKernel of a factorized source (any other source
    is a TypeError, raised as it arrives).  A list source that is the same
    object at every node is collapsed once."""
    constant = None
    if isinstance(sources, list) and all(src is sources[0] for src in sources):
        constant = apply_btilde(sources[0], interaction)
    for i, src in enumerate(sources):
        if not (dense or isinstance(src, FactorizedKernel)):
            raise TypeError("a low-rank level needs a factorized source at every node")
        # no local holds a collapse output or its phased copy through the
        # next node's collapse
        yield _integrand(constant if constant is not None else apply_btilde(src, interaction),
                         -times[i], constant is not None, dense)


def _integrand(out, t: float, shared: bool, dense: bool):
    """U0(t) of a collapse output: the factors' rows phased (then multiplied
    out if dense), or a dense array phased in place (into a copy if shared)."""
    if isinstance(out, LowRankKernel):
        g = free_evolve(out, t)
        return g.dense() if dense else g
    if not shared:
        return apply_free_phase(out.data, out.grid, out.k, t)
    return apply_free_phase(np.empty_like(out.data), out.grid, out.k, t, out.data)


def _duhamel_nodes(sources, times, rule, start, grid, k, interaction):
    """Yields U0(t_i)(gamma0 + prefix integral of U0(-s) Btilde src(s)), node by node.

    sources gives the (k+offset)-level kernel at each node: a list, or an
    iterator such as another level's _duhamel_nodes, read one node at a
    time.  start is the level-k initial data: the dense arrays the phase
    pass adds to each prefix (gamma0's, or none for zero data), or a
    LowRankLevel holding only its start (then every node is low rank and the
    level keeps their column stack, _low_rank_nodes).  Node i is yielded
    before source i+1 is collapsed, and the generator keeps no reference to
    it, so a caller that drops or stores it controls when the node it
    replaces is released.
    """
    if isinstance(start, LowRankLevel):
        yield from _low_rank_nodes(sources, times, rule, start, interaction)
        return
    integ = _PrefixIntegrator(rule, times[1] - times[0])
    for i, g in enumerate(_integrands(sources, times, interaction, dense=True)):
        prefix = integ.push(g)
        yield MarginalKernel(
            grid, k, apply_free_phase(np.empty_like(prefix), grid, k, times[i], *start, prefix))


def _low_rank_nodes(sources, times, rule, level, interaction):
    """_duhamel_nodes for a low-rank level and a list of factorized sources.

    Node i is U0(t_i) of the factors [start.U, w_i0 U_0, w_i1 U_1, ..] and
    [start.V, V_0, V_1, ..], with g_j = U_j V_j^H and w_i the quadrature
    weights of node i: _PrefixIntegrator's own rule, run on one-hot
    integrands.  Zero weights are left out, so node i has at most 2i+3
    columns (node 0 only start's).  level (a LowRankLevel) keeps the
    integrands until the last node and each node's weights, from which
    solve() takes the level's defects.
    """
    weights = _PrefixIntegrator(rule, times[1] - times[0])
    onehot = np.eye(len(times))
    for i, g in enumerate(_integrands(sources, times, interaction, dense=False)):
        node = level.add(g, weights.push(onehot[i])[:i + 1])
        yield free_evolve(node, times[i])


# -- closure and start trajectories -----------------------------------------------

def _zero(grid: GridSpec, k: int) -> FactorizedKernel:
    return FactorizedKernel(grid, k, np.zeros((grid.M,) * grid.n, dtype=np.complex128))


def _closure_states(gamma0: HierarchySequence, config: SolverConfig) -> dict:
    """Node lists for every closure level, shared by all iterates."""
    grid, times = config.grid, config.times()
    out = {}
    if config.closure.kind == ZERO_TOP:
        for k in config.closure_levels:
            out[k] = [_zero(grid, k)] * len(times)
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


def _initial_data(gamma0: HierarchySequence, config: SolverConfig, low_rank) -> dict:
    """Level -> the start _duhamel_nodes takes at every sourced level: the
    rank-one factors of a level in low_rank (factorized in gamma0), else
    the terms each node adds to its prefix: gamma0's dense array."""
    return {k: LowRankKernel.from_factorized(gamma0.level(k)) if k in low_rank
            else (as_dense(gamma0.level(k), config.budget).data,)
            for k in config.sourced_levels}


@dataclass(frozen=True)
class SolvePlan:
    """What solve() will do at most: collapses made and bytes held at peak,
    and the sourced levels whose nodes it stores as low-rank factors."""

    collapses: int
    peak_bytes: int
    low_rank: frozenset = frozenset()


def _pass_bytes(grid: GridSpec, k: int, buffers: int = 1) -> int:
    """Transient bytes of one blocks.rows pass or streamed norm over level-k
    kernels, a bound on the measured ones on one pool run: per row-block
    entry 16 per complex buffer and 8 for temporaries or a norm's real
    buffer, the norm weights and rank-one factors (64 per row), and an
    allowance for interpreter objects and the iterator buffers numpy fills
    for broadcast operands (the norm's row and column weights, the phase's
    outer product): 8 kB plus 32 per block entry, at most 120 kB.  Those
    buffers hold no more than a block's entries, so on small levels the
    allowance shrinks with the block.  A low-rank side's V^H is the
    caller's."""
    R = grid.M ** (k * grid.n)
    entries = min(R * R, max(R, blocks.BLOCK))
    return (8 + 16 * buffers) * entries + 64 * R + min(120_000, 8_192 + 32 * entries)


def _qr_bytes(rows: int, columns: int) -> int:
    """Transient bytes of a low-rank level's defects, with columns the
    width of the interleaved stack of both column stacks: that stack, its
    QR's copy and update buffer, reflector and R (kernels.thin_r) and
    numpy's two iterator buffers for a broadcast product.  The symmetry
    defect's stacks, swapped stack, sum and one half-width QR at a time
    hold less."""
    entries = rows * columns
    return 16 * (3 * entries + 2 * rows + columns**2 + 2 * min(entries, np.getbufsize()))


def plan(config: SolverConfig, gamma0: HierarchySequence) -> SolvePlan:
    """Walk solve()'s sweep once, without building arrays.

    This is the one place that picks a level's representation.  A sourced
    level k is stored low rank when its initial data are factorized, its
    source level k+off is a closure level with factorized initial data (so
    every source the level sees is factorized: the closure list or the
    convention start), and its nodes' factors, at most 2N_t+3 columns each,
    are narrower than half the M^(kn) rows.  Every other sourced level is
    dense, so dense starts stay on the dense path.

    The closure lists fill their slots first; then each sourced level k,
    in descending order, is integrated once from the new level k+off, at
    one collapse for a zero_top source and N_t+1 otherwise, so solve()
    makes exactly these collapses.  The bytes held are the dense copies of
    factorized sourced levels of gamma0 that are not low rank and the node
    lists of the levels integrated so far (a free_top list over dense data
    holds no array).  While a dense level k is integrated its new list
    grows to N_t+1 nodes, the last one in flight (solve()'s slots start
    empty).  Beside them are the integrator's buffers (2 trapezoid, 6
    Simpson) and, at a node's collapse, the collapse output, a dense
    collapse's contractions and a pass's block buffers (with the group
    buffer an evolved source's rows are phased into), or the node's phase
    pass (both _pass_bytes).  The collapse of a low-rank source node is low
    rank, 2 T r columns for T lattice-index sums: its factors, their phased
    copy and the conjugate V^H that multiplies the dense integrand out.  A
    low-rank level holds its factors, its integrands' factors and one node
    in the making; after it, its nodes, whose last one is the column stack
    its defects are taken from.  The final norms of a dense sourced level,
    or of a closure level with dense initial data, hold a streamed norm's
    buffers (with a complex one for an evolved node); the final defects of
    a low-rank level, one thin QR's workspace on the interleaved stack
    (_qr_bytes), the widest of its QRs, which run one at a time.  The
    trajectory's own interpreter objects, about 2 kB per node and level,
    count at the end, with a 32 kB floor.  Each further pool run over a
    level of 2^19 entries or more holds up to 1.6 MB of block scratch, or
    2.6 MB of norm buffers, that the plan leaves out, so that the plan does
    not depend on the worker count.
    """
    grid, off, nodes = config.grid, config.offset, config.N_t + 1
    size = grid.kernel_bytes
    sourced, closure = set(config.sourced_levels), set(config.closure_levels)

    def dense(k):
        return not isinstance(gamma0.level(k), FactorizedKernel)

    def rows(k):
        return grid.M ** (k * grid.n)

    widest = 2 * config.N_t + 3  # columns of the last node of a low-rank level
    # lattice-index sums of the contracted variables (operators._collapse_low_rank)
    groups = (grid.M if off == 1 else 2 * grid.M - 1) ** grid.n
    low_rank = frozenset(k for k in sourced if k + off in closure and not dense(k)
                         and not dense(k + off) and 2 * widest < rows(k))

    def factors(k, columns):
        return 32 * rows(k) * columns  # U and V

    dense_closure = {k for k in closure if config.closure.kind == FREE_TOP and dense(k)}
    buffers = 2 if config.quadrature == TRAPEZOID else 6  # kept integrands, prefixes
    held = sum(size(k) for k in sourced if not dense(k) and k not in low_rank)
    peak, collapses = held, 0
    for k in sorted(sourced, reverse=True):
        src = k + off
        collapses += 1 if config.closure.kind == ZERO_TOP and src in closure else nodes
        if k in low_rank:
            kept = factors(k, 1 + sum(2 * i + 3 for i in range(1, nodes)))
            # the list and integrands, then a node built and phased
            top = (kept + factors(k, 2 * nodes) + 2 * factors(k, widest)
                   + factors(k, widest) // 2)
            peak = max(peak, held + top)
            held += kept
            continue
        if src in low_rank:
            # the collapse's factors (2 T r columns), their phased copy and
            # the conjugate V^H the dense integrand is multiplied out with
            work = 5 * factors(k, 2 * groups * widest) // 2 + _pass_bytes(grid, k)
        elif src in sourced | dense_closure:
            # a dense collapse passes over the source level, an evolved
            # one phasing its rows into the group buffer
            work = (_pass_bytes(grid, src, int(src not in dense_closure))
                    + contraction_bytes(grid, src, off, src in dense_closure))
        else:
            work = _pass_bytes(grid, k)
        # the buffers and the growing new list, then each node's passes
        body = (buffers + nodes) * size(k)
        if config.closure.kind == ZERO_TOP and src in closure:
            # collapsed once, then copied per node
            top = size(k) + max(work, body + _pass_bytes(grid, k))
        else:
            top = body + max(work, _pass_bytes(grid, k))
        peak = max(peak, held + top)
        held += nodes * size(k)
    # the final norms of the solution and of gamma0 (a dense norm needs no
    # complex buffer; closure levels of factorized data stay factorized, in
    # closed form; a low-rank node's norm is a narrower QR than its
    # level's defects) and the low-rank levels' defects, one level at a time
    objects = 2048 * config.K * nodes  # the trajectory's interpreter objects
    peak = max(peak, held + objects + 32_768,
               *(held + _pass_bytes(grid, k, int(k in sourced | dense_closure))
                 for k in range(1, config.K + 1)
                 if (k in sourced or dense(k)) and k not in low_rank),
               *(held + objects + _qr_bytes(rows(k), 2 * widest) for k in low_rank))
    return SolvePlan(collapses, peak, low_rank)


def _step(levels: dict, sources: dict, times: np.ndarray, start: dict,
          closure: dict, config: SolverConfig) -> dict:
    """One Duhamel step: replace every level's node list in place.

    Levels are replaced in descending order.  A closure level takes its
    closure list; a sourced level k integrates sources[k+off] from start[k]
    (_initial_data).  With sources=levels, level k reads the new level
    k+off, and the step is the descending sweep that lands on the fixed
    point; with the previous iterate's lists it is the Jacobi Duhamel map.
    Each new node takes the old one's slot as it is produced.  Returns the
    LowRankLevel of each low-rank level (start[k] a LowRankKernel), closed
    on its last node: the column stack its nodes are prefixes of.
    """
    stacks = {}
    for k in sorted(levels, reverse=True):
        if k in closure:
            stream = iter(closure[k])
        else:
            begin = start[k]
            if isinstance(begin, LowRankKernel):
                begin = stacks[k] = LowRankLevel(begin)
            stream = _duhamel_nodes(
                sources[k + config.offset], times, config.quadrature, begin,
                config.grid, k, config.interaction,
            )
        # slot by slot: slice assignment, enumerate, zip or a loop variable
        # would hold a node through the next node's collapse
        nodes = levels[k]
        for i in range(len(nodes)):
            nodes[i] = next(stream)
        if k in stacks:
            stacks[k].close(nodes[-1])
    return stacks


def _trajectory(times: np.ndarray, levels: dict, config: SolverConfig) -> Trajectory:
    """The trajectory whose level-k node list is levels[k]."""
    return Trajectory(times, [
        HierarchySequence(
            config.K, config.params.xi,
            tuple(levels[k][i] for k in range(1, config.K + 1)),
        )
        for i in range(len(times))
    ])


def picard_step(prev: Trajectory, gamma0: HierarchySequence,
                config: SolverConfig) -> Trajectory:
    """One application of the Duhamel map to a stored trajectory: every
    level reads its source from prev (Jacobi), never from the new levels."""
    if len(prev.times) != config.N_t + 1 or not np.allclose(
        prev.times, config.times(), rtol=1e-12, atol=1e-15
    ):
        raise ValueError("trajectory nodes do not match the configuration")
    sources = {k: prev.level_series(k) for k in range(1, config.K + 1)}
    levels = {k: list(nodes) for k, nodes in sources.items()}
    start = _initial_data(gamma0, config, plan(config, gamma0).low_rank)
    _step(levels, sources, prev.times, start, _closure_states(gamma0, config), config)
    return _trajectory(prev.times, levels, config)


# -- Duhamel expansion terms -----------------------------------------------------

def _expansion(gamma_top, nodes, bottom: int, config: SolverConfig) -> dict:
    """The Duhamel chain below level top = gamma_top.k: level k -> the node
    list of expansion term (top - k)/off, for k = top-off, top-2 off, ..,
    bottom.  They are those levels of _step's sweep on the data (0, .., 0,
    gamma_top) with level-top nodes `nodes` (a list, or an iterator read
    once) and no closure, each stored as plan() picks for those data.  The
    zero data start a low-rank level as zero factors and add no term to a
    dense level's nodes."""
    top, off = gamma_top.k, config.offset
    sub = replace(config, K=top, closure=ClosureRule())
    zeros = tuple(_zero(config.grid, k) for k in range(1, top))
    low_rank = plan(sub, HierarchySequence(top, config.params.xi, zeros + (gamma_top,))).low_rank
    start = {k: LowRankKernel.from_factorized(zeros[k - 1]) if k in low_rank else ()
             for k in sub.sourced_levels}
    levels = {k: [None] * (config.N_t + 1) for k in range(top - off, bottom - 1, -off)}
    _step(levels, {**levels, top: nodes}, config.times(), start, {}, sub)
    return levels


# -- the solver -------------------------------------------------------------------

def _defects(kernel) -> tuple:
    """(hermiticity, symmetry) defect of one dense node, both divided by one
    frobenius_norm."""
    scale = frobenius_norm(kernel)
    return hermiticity_defect(kernel, scale), symmetry_defect(kernel, scale)


def solve(gamma0: HierarchySequence, config: SolverConfig,
          c_hat: float | None = None):
    """Sweep to the mild solution; returns (Trajectory, RunReport).

    The one descending sweep lands on the fixed point.  Every node's
    H^alpha norm is taken once; a non-finite one is a FloatingPointError.
    The trajectory norm weighs them with eta = xi - c_hat*T when a collapse
    constant is supplied (and eta > 0), otherwise with xi itself.
    """
    t_start = time.perf_counter()
    if gamma0.grid != config.grid:
        raise ValueError("initial data grid differs from configuration grid")
    if gamma0.K != config.K:
        raise ValueError("initial data depth differs from configuration K")
    planned = plan(config, gamma0)
    check_budget(planned.peak_bytes, config.budget, what="solve")

    xi, alpha = config.params.xi, config.params.alpha
    stop_weight = xi
    if c_hat is not None:
        eta = xi - c_hat * config.T
        if eta > 0:
            stop_weight = eta
        else:
            warnings.warn("eta = xi - c_hat*T is not positive; measuring in xi norm",
                          stacklevel=2)

    times = config.times()
    closure = _closure_states(gamma0, config)
    start = _initial_data(gamma0, config, planned.low_rank)
    levels = {k: [None] * len(times) for k in range(1, config.K + 1)}
    stacks = _step(levels, levels, times, start, closure, config)
    norms = {k: [sobolev_norm(kern, alpha) for kern in levels[k]] for k in levels}
    if not all(math.isfinite(v) for values in norms.values() for v in values):
        raise FloatingPointError("non-finite trajectory norm")

    trace_drift = {}
    hermiticity = {}
    symmetry = {}
    for k in config.sourced_levels:
        t0 = trace(levels[k][0])
        drift = max(abs(trace(kern) - t0) for kern in levels[k])
        trace_drift[k] = drift / max(1.0, abs(t0))
        if k in stacks:  # every node at once, from the level's column stack
            hermiticity[k] = hermiticity_defect(stacks[k])
            symmetry[k] = symmetry_defect(stacks[k])
        else:
            herm, symm = zip(*(_defects(kern) for kern in levels[k]))
            hermiticity[k] = max(herm)
            symmetry[k] = max(symm)

    report = RunReport(
        iterations=1,
        converged=True,
        stop_weight=stop_weight,
        trace_drift=trace_drift,
        hermiticity_defects=hermiticity,
        symmetry_defects=symmetry,
        trajectory_norm=max(
            math.fsum(stop_weight**k * norms[k][i] for k in range(1, config.K + 1))
            for i in range(len(times))
        ),
        initial_norm=weighted_norm(gamma0, config.params),
        c_hat=c_hat,
        wall_seconds=time.perf_counter() - t_start,
        planned_bytes=planned.peak_bytes,
        quadrature=config.quadrature,
        closure=config.closure.kind,
    )
    return _trajectory(times, levels, config), report


BOUND_TERMS = 3   # duhamel_bound_rows' deepest term j
BOUND_LEVELS = 3  # and its highest level k


def duhamel_bound_rows(gamma0: HierarchySequence, config: SolverConfig,
                       c_hat: float) -> list:
    """Norm-vs-bound table for the expansion terms (j, k), j <= BOUND_TERMS
    and k <= BOUND_LEVELS, at the final time, rows sorted by k, then j.
    Each top level's chain is integrated once (_expansion) and holds the
    terms (j, top - j*off) for j = 1, 2, ..., read at their last node."""
    alpha, off = config.params.alpha, config.offset
    rows = []
    for top in range(1 + off, config.K + 1):
        bottom = top - min(BOUND_TERMS, (top - 1) // off) * off
        if bottom > BOUND_LEVELS:
            continue
        top_norm = sobolev_norm(gamma0.level(top), alpha)
        free = (free_evolve(gamma0.level(top), t) for t in config.times())
        last = {k: nodes[-1] for k, nodes in
                _expansion(gamma0.level(top), free, bottom, config).items()
                if k <= BOUND_LEVELS}
        for k, node in last.items():
            j = (top - k) // off
            value = sobolev_norm(node, alpha)
            bound = math.comb(k + j - 1, j) * (c_hat * config.T) ** j * top_norm
            rows.append({
                "j": j,
                "k": k,
                "norm": value,
                "bound": bound,
                "ratio": value / bound if bound > 0 else math.inf,
            })
    return sorted(rows, key=lambda row: (row["k"], row["j"]))


# -- theorem bound checks ----------------------------------------------------------

def _eta_or_raise(config: SolverConfig, c_hat: float) -> float:
    eta = config.params.xi - c_hat * config.T
    if eta <= 0:
        raise ValueError(
            f"eta = xi - c_hat*T = {eta:.3e} <= 0: horizon too long for this constant"
        )
    return eta


def _bound_report(name: str, config: SolverConfig, ratio: float, factor: float,
                  cubic_style: float, eta: float, delta_K: float,
                  details: dict) -> BoundReport:
    """A measured ratio against its factor: passed within factor + delta_K; a
    quintic pass is flagged when it would fail the cubic-style factor, which
    details record last."""
    passed = ratio <= factor + delta_K
    flagged = (
        config.interaction.kind == QUINTIC
        and passed
        and ratio > cubic_style + delta_K
    )
    return BoundReport(
        name=name,
        ratio=ratio,
        factor=factor,
        passed=passed,
        flagged=flagged,
        eta=eta,
        delta_K=delta_K,
        details={**details, "cubic_style": cubic_style},
    )


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
    return _bound_report("apriori", config, ratio, factor, cubic_style, eta, delta_K,
                         {"numerator": num, "denominator": den})


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
    details = {
        "numerator": num,
        "denominator": den,
        "special_T": special_T,
        "T_matches_special": bool(abs(config.T - special_T)
                                  <= 1e-9 * max(1.0, special_T)),
    }
    return _bound_report("contraction", config, num / den, factor, cubic_style, eta,
                         delta_K, details)
