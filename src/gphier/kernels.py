"""Marginal density kernels on the momentum lattice.

A k-particle kernel gamma(p_1..p_k; p'_1..p'_k) is stored as a complex128
array with 2*k*n axes of length M: the first k*n axes are the unprimed
variables (n consecutive axes per particle), the last k*n the primed ones.
Index order per axis follows GridSpec.modes (m = -M/2 .. M/2-1).

A kernel has one of four representations:

- dense (MarginalKernel): the whole array;
- evolved (EvolvedKernel): U0(t) of a dense kernel, never written; its
  readers phase its rows as they take them (matrix_rows);
- factorized (FactorizedKernel): the lazy product prod_j phi(p_j)
  conj(phi(p'_j)), which stores only the one-particle profile; free
  evolution, norms, traces and collapses all have exact closed forms for it,
  which is what makes deep hierarchy levels affordable;
- low rank (LowRankKernel): the (unprimed x primed) matrix as U V^H, with
  every column kept as built.  A collapse of a factorized or low-rank
  kernel is one, and so is a Duhamel node sourced by a factorized closure.
  Free evolution scales the rows of the factors and traces pair their
  rows; distances stream the matrix row slice by row slice.  The Frobenius
  and H^alpha norms use ||X Y^H|| = ||R Y^H|| with R from a Householder QR
  of X (thin_r), and no level-sized array is built.  The defects take a
  whole low-rank level at once (LowRankLevel, the column stack its nodes
  are prefixes of; a lone kernel is a one-node level): one QR per stack
  serves every node, since R(X W) = R(X) W and R has the prefix property.
  LowRankKernel.dense multiplies the factors out for a caller that needs
  the array: the solver's dense integrands, or a kernel saved to a file
  (as_dense).

The projections hermitize and symmetrize work in place in their
argument's array and spread their passes over the block pool: hermitize
averages pairs of 64 x 64 tiles in one tile buffer per pool run, and
symmetrize works through the particle-permutation orbits of boxes of the
kernel, one orbit at a time per pool run, in two buffers of the orbit's
size (symmetrize_bytes; 3 MB each at M = 16, k = 3).  So a
random_test_kernel draw holds one kernel-sized array and the larger of
the two projections' buffers (draw_bytes).  Every result is bitwise that
of the whole-array passes, on any number of workers.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import blocks
from .spectral import GridSpec, forward_transform, variable_bracket, variable_psq

DEFAULT_KERNEL_BUDGET = 2_000_000_000
BUDGET_ENV_VAR = "GPHIER_BUDGET_BYTES"


class ResourceBudgetError(RuntimeError):
    """Raised when a requested allocation exceeds the configured budget."""


def kernel_budget(budget=None) -> int:
    """The memory budget in bytes: the most a run may hold.

    solve() refuses a run whose planned peak is above it, and any single
    allocation above it is refused outright.  An explicit budget wins over
    the GPHIER_BUDGET_BYTES environment variable, which wins over
    DEFAULT_KERNEL_BUDGET; a value that is not a number raises ValueError.
    """
    if budget is not None:
        return int(budget)
    env = os.environ.get(BUDGET_ENV_VAR)
    if not env:
        return DEFAULT_KERNEL_BUDGET
    try:
        return int(float(env))
    except (ValueError, OverflowError):
        raise ValueError(f"environment variable {BUDGET_ENV_VAR}={env!r} "
                         "is not a number of bytes") from None


def check_budget(nbytes: int, budget=None, what: str = "kernel"):
    limit = kernel_budget(budget)
    if nbytes > limit:
        raise ResourceBudgetError(
            f"{what} needs {nbytes} bytes, over the budget of {limit}; "
            f"raise it explicitly or via {BUDGET_ENV_VAR}"
        )


@dataclass(frozen=True)
class MarginalKernel:
    """Dense k-particle kernel in the momentum representation."""

    grid: GridSpec
    k: int
    data: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("particle number k must be >= 1")
        expect = self.grid.kernel_shape(self.k)
        if self.data.shape != expect:
            raise ValueError(f"kernel data has shape {self.data.shape}, expected {expect}")
        if self.data.dtype != np.complex128:
            object.__setattr__(self, "data", np.ascontiguousarray(self.data, dtype=np.complex128))


@dataclass(frozen=True)
class FactorizedKernel:
    """Lazy rank-one kernel prod_j phi(p_j) conj(phi(p'_j)).

    phi_hat is the one-particle momentum profile, shape (M,)*n.
    """

    grid: GridSpec
    k: int
    phi_hat: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("particle number k must be >= 1")
        expect = (self.grid.M,) * self.grid.n
        if self.phi_hat.shape != expect:
            raise ValueError("phi_hat must have shape (M,)*n")
        if self.phi_hat.dtype != np.complex128:
            object.__setattr__(self, "phi_hat", np.ascontiguousarray(self.phi_hat, dtype=np.complex128))

    @classmethod
    def from_position(cls, phi, grid: GridSpec, k: int) -> "FactorizedKernel":
        return cls(grid, k, forward_transform(np.asarray(phi, dtype=complex), grid))

    def free_evolved(self, t: float) -> "FactorizedKernel":
        phase = np.exp(-1j * t * variable_psq(self.grid))
        return FactorizedKernel(self.grid, self.k, self.phi_hat * phase)

    def mass(self) -> float:
        return float(np.sum(np.abs(self.phi_hat) ** 2).real) * self.grid.measure_weight

    def materialize(self, budget=None) -> MarginalKernel:
        check_budget(self.grid.kernel_bytes(self.k), budget, what=f"k={self.k} kernel")
        blocks = [self.phi_hat] * self.k + [np.conj(self.phi_hat)] * self.k
        data = np.array(1.0 + 0.0j)
        for b in blocks:
            data = np.multiply.outer(data, b)
        return MarginalKernel(self.grid, self.k, data)


def prefix_products(v: np.ndarray, k: int) -> list:
    """[P_0, .., P_k] with P_i the flat i-fold outer power of v (P_0 = [1])."""
    out = [np.ones(1, dtype=np.complex128)]
    for _ in range(k):
        out.append(np.multiply.outer(out[-1], v).reshape(-1))
    return out


def free_phase_vector(grid: GridSpec, k: int, t: float) -> np.ndarray:
    """exp(-i t sum_j |p_j|^2) over the k unprimed variables, flat: the free
    evolution U0(t) multiplies a kernel's (unprimed x primed) matrix by
    P[:, None] * conj(P)."""
    return prefix_products(np.exp(-1j * t * variable_psq(grid)).reshape(-1), k)[k]


def apply_free_phase(data: np.ndarray, grid: GridSpec, k: int, t: float,
                     *terms: np.ndarray) -> np.ndarray:
    """Free-evolution phase on a C-contiguous raw kernel array; returns data.

    One pass over the (unprimed x primed) matrix view: row block r is first
    set to the sum of the terms' blocks (in term order) if terms are given,
    then multiplied by P[r, None] * conj(P) with P the phase vector of k
    particle variables.  Without terms data is phased in place.
    """
    if t == 0.0 and not terms:
        return data
    rows = grid.M ** (k * grid.n)
    mat = data.reshape(rows, rows, copy=False)
    mats = [term.reshape(rows, rows) for term in terms]
    ph = free_phase_vector(grid, k, t)
    ph_conj = np.conj(ph)

    def phase_block(r, phase):
        block = mat[r]
        if len(mats) == 1:
            np.copyto(block, mats[0][r])
        elif mats:
            np.add(mats[0][r], mats[1][r], out=block)
            for m in mats[2:]:
                block += m[r]
        if t != 0.0:
            block *= np.multiply.outer(ph[r], ph_conj, out=phase)

    blocks.rows(phase_block, mat)
    return data


@dataclass(frozen=True)
class EvolvedKernel:
    """U0(t) applied to the dense kernel base, whose array it shares; free
    evolution only moves t.  matrix_rows and materialize() both multiply
    the base's rows by P[r, None] * conj(P), so they agree bitwise."""

    base: MarginalKernel
    t: float
    grid = property(lambda self: self.base.grid)
    k = property(lambda self: self.base.k)

    def free_evolved(self, t: float) -> "EvolvedKernel":
        return EvolvedKernel(self.base, self.t + t)

    def materialize(self, budget=None) -> MarginalKernel:
        check_budget(self.grid.kernel_bytes(self.k), budget, what=f"k={self.k} kernel")
        return MarginalKernel(self.grid, self.k, apply_free_phase(
            np.empty_like(self.base.data), self.grid, self.k, self.t, self.base.data))


def matrix_rows(kernel):
    """read(r, out): rows r of the (unprimed x primed) matrix of a dense,
    evolved or low-rank kernel, written into out (r's rows by all columns):
    U[r] V^H, or at t != 0 the base's rows times P[r, None] * conj(P); a
    dense kernel's, or an evolved one's at t = 0, are a view instead."""
    if isinstance(kernel, LowRankKernel):
        vh = np.conj(kernel.V.T)
        return lambda r, out: np.matmul(kernel.U[r], vh, out=out)
    base, t = (kernel.base, kernel.t) if isinstance(kernel, EvolvedKernel) else (kernel, 0.0)
    R = kernel.grid.M ** (kernel.k * kernel.grid.n)
    mat = base.data.reshape(R, R)
    if t == 0.0:
        return lambda r, out: mat[r]
    ph = free_phase_vector(kernel.grid, kernel.k, t)
    ph_conj = np.conj(ph)

    def read(r, out):
        np.multiply.outer(ph[r], ph_conj, out=out)
        return np.multiply(mat[r], out, out=out)

    return read


@dataclass(frozen=True)
class LowRankKernel:
    """Kernel whose (unprimed x primed) matrix is U @ V.conj().T.

    U and V have shape (M^(kn), r).  The columns are kept as built, with no
    compression, so r is the number of terms that made the kernel.
    """

    grid: GridSpec
    k: int
    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("particle number k must be >= 1")
        rows = self.grid.M ** (self.k * self.grid.n)
        if self.U.ndim != 2 or self.U.shape[0] != rows or self.V.shape != self.U.shape:
            raise ValueError(f"factors have shapes {self.U.shape} and {self.V.shape}, "
                             f"expected two ({rows}, r) arrays")
        for name in ("U", "V"):
            if getattr(self, name).dtype != np.complex128:
                object.__setattr__(self, name, getattr(self, name).astype(np.complex128))

    @classmethod
    def from_factorized(cls, kernel: FactorizedKernel) -> "LowRankKernel":
        """The rank-one factors P, P of prod phi(p_j) conj(phi(p'_j)), P = phi^(x k)."""
        p = prefix_products(kernel.phi_hat.reshape(-1), kernel.k)[kernel.k][:, None]
        return cls(kernel.grid, kernel.k, p, p.copy())

    @property
    def rank(self) -> int:
        """The number of columns (an upper bound on the matrix rank)."""
        return self.U.shape[1]

    def free_evolved(self, t: float) -> "LowRankKernel":
        ph = free_phase_vector(self.grid, self.k, t)[:, None]
        return LowRankKernel(self.grid, self.k, self.U * ph, self.V * ph)

    def dense(self) -> np.ndarray:
        """U V^H as a dense kernel array, one matrix product per row block of
        blocks.rows; no budget check."""
        rows = self.U.shape[0]
        out = np.empty((rows, rows), dtype=np.complex128)
        vh = np.conj(self.V.T)
        blocks.rows(lambda r: np.matmul(self.U[r], vh, out=out[r]), out, lambda shape: ())
        return out.reshape(self.grid.kernel_shape(self.k))

    def materialize(self, budget=None) -> MarginalKernel:
        check_budget(self.grid.kernel_bytes(self.k), budget, what=f"k={self.k} kernel")
        return MarginalKernel(self.grid, self.k, self.dense())


class LowRankLevel:
    """The nodes of a low-rank level as prefixes of one column stack.

    Let C_U (C_V) hold the start's U (V), then each integrand g_j's factor
    U_j (V_j) in the order add() received them.  Node i is U0(t_i) of
    (C_U[:, :m_i] diag(W_i)) C_V[:, :m_i]^H: weight 1 on the start's
    columns and the node's quadrature weight w_ij on g_j's, m_i one past
    the last nonzero weight.  The last node n weighs every column, so its
    own factors are such a stack: U0(t_n) C_U diag(W_n) and U0(t_n) C_V,
    with node i's weights W_i / W_n.  U0 scales both factors' rows by one
    phase, which commutes with the adjoint and with every particle swap,
    so it leaves a node's defects alone.  close() takes the last node's
    factors as the stacks, and the level keeps no copy of its own.
    """

    def __init__(self, start: LowRankKernel):
        self.grid, self.k, self.start = start.grid, start.k, start
        self.integrands = []  # g_j, LowRankKernel, until close()
        self.weights = []     # node i: w_ij for j <= i
        self.stacks = None    # (C_U, C_V, W) after close()

    def add(self, g: LowRankKernel, w) -> LowRankKernel:
        """Append integrand g and a node with weights w (one per integrand,
        g's last); returns that node unphased: the start's columns, then
        w_j U_j against V_j for each nonzero w_j."""
        self.integrands.append(g)
        self.weights.append(np.array(w, dtype=np.float64))
        kept = [j for j, x in enumerate(w) if x != 0.0]
        return LowRankKernel(
            self.grid, self.k,
            np.column_stack([self.start.U] + [w[j] * self.integrands[j].U for j in kept]),
            np.column_stack([self.start.V] + [self.integrands[j].V for j in kept]))

    def close(self, last: LowRankKernel) -> None:
        """Set stacks to (last.U, last.V, W), last the final node as stored
        (phased or not) and row i of W node i's column weights relative to
        its own, zero past node i's columns; release the integrands."""
        first = self.start.rank
        widths = [g.rank for g in self.integrands]
        W = np.zeros((len(self.weights), first + sum(widths)))
        W[:, :first] = 1.0
        for i, w in enumerate(self.weights):
            W[i, first:first + sum(widths[:len(w)])] = np.repeat(w, widths[:len(w)])
        if not W[-1].all():
            raise ValueError("the last node of a low-rank level must weigh every column")
        self.stacks = (last.U, last.V, W / W[-1])
        self.integrands = None


def as_dense(kernel, budget=None) -> MarginalKernel:
    """The kernel itself if dense, else its materialized copy."""
    if isinstance(kernel, (FactorizedKernel, LowRankKernel, EvolvedKernel)):
        return kernel.materialize(budget)
    return kernel


@dataclass(frozen=True)
class HierarchySequence:
    """Levels gamma^(1..K) with the weight xi used for the combined norm."""

    K: int
    xi: float
    levels: tuple

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if not 0 < self.xi < 1:
            raise ValueError("xi must lie in (0, 1)")
        if len(self.levels) != self.K:
            raise ValueError("need exactly K levels")
        grid = self.levels[0].grid
        for i, lv in enumerate(self.levels):
            if lv.k != i + 1:
                raise ValueError("levels must carry k = 1..K in order")
            if lv.grid != grid:
                raise ValueError("all levels must share one grid")
        object.__setattr__(self, "levels", tuple(self.levels))

    @property
    def grid(self) -> GridSpec:
        return self.levels[0].grid

    def level(self, k: int):
        """The k-th marginal, 1-based."""
        return self.levels[k - 1]


def factorized_sequence(phi, grid: GridSpec, K: int, xi: float,
                        dense_up_to: int = None) -> HierarchySequence:
    """Factorized hierarchy from one profile; levels above dense_up_to stay
    lazy, the others are materialized under the default budget."""
    if dense_up_to is None:
        dense_up_to = K
    base = FactorizedKernel.from_position(phi, grid, 1)
    levels = []
    for k in range(1, K + 1):
        fk = FactorizedKernel(grid, k, base.phi_hat)
        levels.append(fk.materialize() if k <= dense_up_to else fk)
    return HierarchySequence(K, xi, tuple(levels))


# -- symmetry operations ----------------------------------------------------

_TILE = 64  # side of the square tiles hermitize and hermiticity_defect work in


def hermitize(kernel: MarginalKernel) -> MarginalKernel:
    """(gamma + gamma^*) / 2, in place: overwrites kernel.data and returns a
    kernel over that array.

    In matrix form (unprimed rows, primed columns) the adjoint is the
    conjugate transpose.  Tiles A = (i, j) and B = (j, i), j >= i, of
    _TILE x _TILE (ragged at the edges) are averaged together: t =
    (conj(B^T) + A) * 0.5 goes to A and, off the diagonal, conj(t^T) to B.
    That is bitwise the whole-array (conj(x^T) + x) * 0.5, since addition
    commutes and conjugation commutes with rounding.  Tile row i owns the
    pairs with j >= i, so the tile rows go to the block pool with one tile
    buffer per run.
    """
    rows = kernel.grid.M ** (kernel.k * kernel.grid.n)
    mat = kernel.data.reshape(rows, rows)

    def tile_row(i, buf):
        for j in range(i, rows, _TILE):
            a, b = mat[i:i + _TILE, j:j + _TILE], mat[j:j + _TILE, i:i + _TILE]
            t = buf[:a.size].reshape(a.shape)
            np.conjugate(b.T, out=t)
            t += a
            t *= 0.5
            a[...] = t
            if j != i:
                np.conjugate(t.T, out=b)

    blocks.map_items(tile_row, range(0, rows, _TILE), mat.size,
                     lambda: np.empty(_TILE * _TILE, dtype=mat.dtype))
    return MarginalKernel(kernel.grid, kernel.k, mat.reshape(kernel.data.shape))


def _sigma_axes(sigma, k: int, n: int) -> list:
    axes = []
    for j in sigma:
        axes.extend(range(j * n, (j + 1) * n))
    for j in sigma:
        axes.extend(range((k + j) * n, (k + j + 1) * n))
    return axes


def _box_cut(grid: GridSpec, k: int) -> list:
    """The P contiguous ranges symmetrize cuts each particle's M^n unprimed
    indices into: the smallest P whose largest box (one range per particle,
    every primed index) holds at most blocks.BLOCK entries, or P = M^n
    (a box is one matrix row) when no P does."""
    side = grid.M ** grid.n
    parts = next((p for p in range(1, side)
                  if -(-side // p) ** k * side ** k <= blocks.BLOCK), side)
    bounds = [side * i // parts for i in range(parts + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _orbit_entries(cut: list, grid: GridSpec, orbit: tuple) -> int:
    """Entries of an orbit's boxes: its distinct permutations, each box
    holding the product of its ranges' lengths times every primed index."""
    boxes = math.factorial(len(orbit)) // math.prod(
        math.factorial(orbit.count(c)) for c in set(orbit))
    return boxes * math.prod(cut[c].stop - cut[c].start for c in orbit) * grid.M ** (
        len(orbit) * grid.n)


def _orbits(grid: GridSpec, k: int) -> tuple:
    """(cut, orbits, entries): _box_cut, the S_k orbits of the boxes as sorted
    tuples of range indices, and the entries of the largest orbit's boxes."""
    cut = _box_cut(grid, k)
    orbits = list(itertools.combinations_with_replacement(range(len(cut)), k))
    return cut, orbits, max(_orbit_entries(cut, grid, o) for o in orbits)


def symmetrize_bytes(grid: GridSpec, k: int) -> int:
    """What symmetrize holds beside the kernel (nothing for k = 1): per
    block-pool run two buffers, each the size of the largest orbit's boxes,
    and numpy's iterator buffer for the transposed adds (128 kB); and 256 kB
    of interpreter objects, the boxes' index tuples."""
    if k == 1:
        return 0
    _, orbits, entries = _orbits(grid, k)
    runs = len(blocks.deal(orbits, grid.M ** (2 * k * grid.n)))
    return runs * (2 * 16 * entries + 2**17) + 2**18


def symmetrize(kernel: MarginalKernel) -> MarginalKernel:
    """Project onto the bosonic (permutation-symmetric) subspace, in place:
    overwrites kernel.data and returns kernel.

    Uses the coset recursion P_i = (1/i) sum_{j<=i} swap(j,i) P_{i-1}, which
    needs 2+3+..+k transposed adds instead of k! of them.  Each particle's
    unprimed indices are cut into the same ranges (_box_cut); a box takes
    one range per particle and every primed index.  A particle permutation
    maps boxes onto boxes, so the boxes fall into disjoint S_k orbits, and
    every step of the recursion reads and writes within one orbit.  The
    orbits go to the block pool: each is copied into the run's first
    buffer, the steps ping-pong between the run's two buffers box by box
    (swap(j, i) of box b is the box with b's ranges j and i swapped,
    transposed), and the result is copied back.  A step is the whole-array
    adds and division, entry by entry in the same order, so the result is
    bitwise theirs.  k > 6 is refused; beyond that the dense tensors would
    not fit any reasonable budget anyway.
    """
    k, grid = kernel.k, kernel.grid
    if k > 6:
        raise ResourceBudgetError("symmetrize supports k <= 6")
    if k == 1:
        return kernel
    side = grid.M ** grid.n
    data = kernel.data.reshape((side,) * (2 * k))
    cut, orbits, entries = _orbits(grid, k)

    def swapped(b, j, i):
        b = list(b)
        b[j], b[i] = b[i], b[j]
        return tuple(b)

    # a box has one axis per particle variable, as data has
    swap_axes = {(j, i): _sigma_axes(swapped(range(k), j, i), k, 1)
                 for i in range(1, k) for j in range(i)}

    def run_orbit(orbit, bufs):
        boxes = sorted(set(itertools.permutations(orbit)))
        index = {b: x for x, b in enumerate(boxes)}
        size = _orbit_entries(cut, grid, orbit) // len(boxes)
        src, dst = ([buf[x * size:(x + 1) * size].reshape(
            tuple(cut[c].stop - cut[c].start for c in b) + (side,) * k)
            for x, b in enumerate(boxes)] for buf in bufs)
        for b, box in zip(boxes, src):
            np.copyto(box, data[tuple(cut[c] for c in b)])
        for i in range(1, k):
            for b, box, out in zip(boxes, src, dst):
                views = [src[index[swapped(b, j, i)]].transpose(swap_axes[j, i])
                         for j in range(i)]
                np.add(box, views[0], out=out)
                for view in views[1:]:
                    out += view
                out /= i + 1
            src, dst = dst, src
        for b, box in zip(boxes, src):
            data[tuple(cut[c] for c in b)] = box

    blocks.map_items(run_orbit, orbits, data.size,
                     lambda: (np.empty(entries, dtype=data.dtype),
                              np.empty(entries, dtype=data.dtype)))
    return kernel


def _sq_norm(a: np.ndarray, out: np.ndarray) -> float:
    """sum |a|^2 of a C-contiguous block, squared into out (a's shape, may
    be a).  numpy's own pairwise sum, not BLAS, so the value does not
    depend on the BLAS thread count."""
    return float(np.sum(np.square(a.view(np.float64), out=out.view(np.float64))))


def thin_r(x: np.ndarray) -> np.ndarray:
    """R of a Householder QR of the tall matrix x (rows x c): c x c, upper
    triangular, with x = Q R for some Q with orthonormal columns.

    Every reduction over the long axis (column norms and the reflectors'
    inner products) is numpy's pairwise sum, not BLAS, so R does not depend
    on the BLAS thread count (LAPACK's does).
    """
    m, c = x.shape
    a = np.array(x.T, dtype=np.complex128, order="C")  # row j is column j of x
    r = np.zeros((c, c), dtype=np.complex128)
    buf = np.empty_like(a)
    v = np.zeros(m, dtype=np.complex128)
    for j in range(min(m, c)):
        # whole rows, so that every operand is contiguous; v is 0 before j
        tail, t = a[j + 1:], buf[:c - j - 1]
        norm = math.sqrt(_sq_norm(a[j, j:], buf[-1, j:]))
        if norm != 0.0:
            # H = I - v v^H / (norm (norm + |x0|)) maps column j to alpha e_j
            x0 = a[j, j]
            alpha = -(x0 / abs(x0) if x0 != 0 else 1.0) * norm
            v[:j] = 0.0
            v[j:] = a[j, j:]
            v[j] -= alpha
            np.multiply(tail, np.conj(v), out=t)
            w = np.sum(t, axis=1) / (norm * (norm + abs(x0)))
            np.multiply(w[:, None], v, out=t)
            tail -= t
            r[j, j] = alpha
        r[j, j + 1:] = tail[:, j]
    return r


def product_norm(x: np.ndarray, y: np.ndarray) -> float:
    """||x y^H||_F for tall x and y of one shape, as ||R y^H||_F with R =
    thin_r(x): a product of inner dimension x.shape[1], never the rows x
    rows matrix, and no Gram matrix (x^H x loses half the digits).  It is
    formed as its entrywise conjugate conj(R) y^T."""
    prod = np.conj(thin_r(x)) @ y.T
    return math.sqrt(_sq_norm(prod, prod))


def _swapped_rows(kernel, factor: np.ndarray, i: int) -> np.ndarray:
    """Theta_i applied to the rows of a factor: particles 0 and i swapped."""
    k, n, M = kernel.k, kernel.grid.n, kernel.grid.M
    sigma = list(range(k))
    sigma[0], sigma[i] = sigma[i], sigma[0]
    axes = _sigma_axes(sigma, k, n)[:k * n] + [k * n]
    return factor.reshape((M,) * (k * n) + (-1,)).transpose(axes).reshape(factor.shape)


def frobenius_norm(kernel: MarginalKernel) -> float:
    """||gamma||_F of a dense kernel, the scale both defects divide by: the
    row-block sums of the (unprimed x primed) matrix added in block order."""
    rows = kernel.grid.M ** (kernel.k * kernel.grid.n)
    mat = kernel.data.reshape(rows, rows)
    return math.sqrt(sum(blocks.rows(lambda r, buf: _sq_norm(mat[r], buf), mat)))


# -- low-rank defects, one level at a time -------------------------------------
#
# Up to a row phase that leaves its defects alone, node i of a LowRankLevel
# is (C_U[:, :m] diag(w)) C_V[:, :m]^H, (C_U, C_V, W) = level.stacks, w =
# W[i] and m = _node_columns(W)[i].  With C = Q R from thin_r,
# R(C[:, :m] diag(w)) = R[:m, :m] diag(w), so each stack is factored once
# and every node's norms are products of m x m blocks of R with at most
# m x rows factors.  A lone LowRankKernel is the one-node level of its own
# factors, all weights 1.

def _level_stacks(kernel) -> tuple:
    """(C_U, C_V, W) of a closed LowRankLevel, or of a lone LowRankKernel."""
    if isinstance(kernel, LowRankKernel):
        return kernel.U, kernel.V, np.ones((1, kernel.rank))
    return kernel.stacks


def _node_columns(W: np.ndarray) -> list:
    """m_i, one past the last nonzero weight of node i (row i of W)."""
    return [int(np.flatnonzero(w)[-1]) + 1 if w.any() else 0 for w in W]


def _node_sq_norms(r: np.ndarray, y: np.ndarray, W: np.ndarray, columns: list) -> list:
    """||(R[:m, :m] diag(w)) y[:, :m]^H||^2 for each node (w = W[i, :m],
    m = columns[i]), formed as its entrywise conjugate."""
    yt = np.ascontiguousarray(y.T)
    out = []
    for w, m in zip(W, columns):
        prod = np.conj(r[:m, :m] * w[:m]) @ yt[:m]
        out.append(_sq_norm(prod, prod))
    return out


def _hermiticity_defects(kernel) -> list:
    """Each node's ||gamma - gamma^*|| / ||gamma|| (0.0 for a zero node).

    One thin_r of the interleaved stack [u_0, v_0, u_1, v_1, ..] (columns
    of C_U and C_V alternating): node i's columns are its first 2m, so with
    R_u, R_v the even and odd columns of that block of R, A = R_u W R_v^H
    is gamma in an orthonormal basis.  ||gamma|| = ||A|| and
    ||gamma - gamma^*|| = ||A - A^H||, from 2m x 2m products only.
    """
    U, V, W = _level_stacks(kernel)
    stack = np.empty((U.shape[0], 2 * U.shape[1]), dtype=np.complex128)
    stack[:, 0::2], stack[:, 1::2] = U, V
    r = thin_r(stack)
    del stack
    out = []
    for w, m in zip(W, _node_columns(W)):
        block = r[:2 * m, :2 * m]
        a = (block[:, 0::2] * w[:m]) @ np.conj(block[:, 1::2].T)
        norm = math.sqrt(_sq_norm(a, np.empty_like(a)))
        diff = a - np.conj(a.T)
        out.append(math.sqrt(_sq_norm(diff, diff)) / norm if norm != 0.0 else 0.0)
    return out


def _symmetry_defects(kernel) -> list:
    """Each node's largest ||gamma - Theta gamma Theta|| / ||gamma|| over
    the swaps Theta of particles 0 and s (0.0 for a zero node).

    Theta is an involution, so with the row projections P+- = (1 +-
    Theta) / 2 the difference is 2 (P+ gamma P- + P- gamma P+), two
    orthogonal terms: (C_U + Theta C_U) W (C_V - Theta C_V)^H / 2 and
    (C_U - Theta C_U) W (C_V + Theta C_V)^H / 2.  One thin_r of each of
    C_U +- Theta C_U per swap serves every node.  ||gamma||^2 = ||P+
    gamma||^2 + ||P- gamma||^2 comes from the first swap's two R.  The
    swapped and summed stacks are made one QR at a time.
    """
    U, V, W = _level_stacks(kernel)
    columns = _node_columns(W)
    worst = [0.0] * len(W)
    for s in range(1, kernel.k):
        su = _swapped_rows(kernel, U, s)
        r_plus, r_minus = thin_r(U + su), thin_r(U - su)
        del su
        if s == 1:
            scales = [math.sqrt(a + b) / 2.0 for a, b in zip(
                _node_sq_norms(r_plus, V, W, columns), _node_sq_norms(r_minus, V, W, columns))]
        sv = _swapped_rows(kernel, V, s)
        totals = list(zip(_node_sq_norms(r_plus, V - sv, W, columns),
                          _node_sq_norms(r_minus, V + sv, W, columns)))
        del sv
        worst = [max(x, math.sqrt(a + b) / (2.0 * norm)) if norm != 0.0 else 0.0
                 for x, (a, b), norm in zip(worst, totals, scales)]
    return worst


def symmetry_defect(kernel, scale: float | None = None) -> float:
    """Largest relative deviation from Theta_sigma invariance over swaps.

    A dense kernel's scale is frobenius_norm(kernel), computed here if not
    given; its swap difference is formed one leading-axis slice at a time,
    in a buffer per run of slices, the runs spread over the block pool; the
    slice sums are added in slice order.  A LowRankLevel gives the largest
    over its nodes, and a LowRankKernel its own, each divided by its own
    norm from the factors (_symmetry_defects); scale is not read.
    """
    k, n = kernel.k, kernel.grid.n
    if isinstance(kernel, (LowRankKernel, LowRankLevel)):
        return max(_symmetry_defects(kernel), default=0.0)
    if scale is None:
        scale = frobenius_norm(kernel)
    if scale == 0.0:
        return 0.0
    data = kernel.data
    worst = 0.0
    for i in range(1, k):
        sigma = list(range(k))
        sigma[0], sigma[i] = sigma[i], sigma[0]
        swapped = data.transpose(_sigma_axes(sigma, k, n))

        def slice_sum(a, diff):
            return _sq_norm(np.subtract(data[a], swapped[a], out=diff), diff)

        total = sum(blocks.map_items(slice_sum, range(data.shape[0]), data.size,
                                     lambda: np.empty(data.shape[1:], dtype=data.dtype)))
        worst = max(worst, math.sqrt(total) / scale)
    return worst


def hermiticity_defect(kernel, scale: float | None = None) -> float:
    """||gamma - gamma^*|| / ||gamma||, without forming the adjoint.

    A dense kernel's scale is ||gamma|| = frobenius_norm(kernel), computed
    here if not given.  A LowRankLevel gives the largest over its nodes, and
    a LowRankKernel its own, each divided by its own norm from the factors
    (_hermiticity_defects); scale is not read.  For a dense kernel the
    squared difference is summed over _TILE x _TILE tiles of the (unprimed,
    primed) matrix; tile (j, i) of gamma - gamma^* is minus the conjugate
    transpose of tile (i, j), so only tiles with j >= i are formed.
    A row of full tiles is differenced in two passes into a buffer that
    holds each tile contiguously, squared in place and summed per tile by
    numpy (not BLAS); ragged edge tiles go one at a time.  Tile rows go to
    the block pool, each run with one strip buffer, and the tile sums are
    added in row-major tile order.
    """
    if isinstance(kernel, (LowRankKernel, LowRankLevel)):
        return max(_hermiticity_defects(kernel), default=0.0)
    rows = kernel.grid.M ** (kernel.k * kernel.grid.n)
    mat = kernel.data.reshape(rows, rows)
    if scale is None:
        scale = frobenius_norm(kernel)
    if scale == 0.0:
        return 0.0

    def tile_row_sums(i, buf):
        full = (rows - i) // _TILE if i + _TILE <= rows else 0
        diffs = buf[:full * _TILE * _TILE].reshape(full, _TILE, _TILE)
        if full:
            strip = slice(i, i + full * _TILE)
            below = mat[strip, i:i + _TILE].reshape(full, _TILE, _TILE)
            right = mat[i:i + _TILE, strip].reshape(_TILE, full, _TILE)
            np.conjugate(below.transpose(0, 2, 1), out=diffs)
            np.subtract(right.transpose(1, 0, 2), diffs, out=diffs)
        squares = np.square(diffs.view(np.float64), out=diffs.view(np.float64))
        sums = np.sum(squares.reshape(full, 2 * _TILE * _TILE), axis=1).tolist()
        for j in range(i + full * _TILE, rows, _TILE):
            tile = mat[i:i + _TILE, j:j + _TILE]
            diff = buf[:tile.size].reshape(tile.shape)
            np.conjugate(mat[j:j + _TILE, i:i + _TILE].T, out=diff)
            np.subtract(tile, diff, out=diff)
            sums.append(_sq_norm(diff, diff))
        return [s * (1.0 if t == 0 else 2.0) for t, s in enumerate(sums)]

    row_sums = blocks.map_items(tile_row_sums, range(0, rows, _TILE), mat.size,
                                lambda: np.empty(_TILE * rows, dtype=mat.dtype))
    return math.sqrt(sum(x for sums in row_sums for x in sums)) / scale


# -- traces ------------------------------------------------------------------

def trace(kernel) -> complex:
    """Diagonal sum with weight 1/L^(kn); matches sum_x gamma(x;x) (L/M)^(kn)."""
    if isinstance(kernel, FactorizedKernel):
        return complex(kernel.mass() ** kernel.k)
    if isinstance(kernel, LowRankKernel):
        # diagonal entry i of U V^H is row i of U against row i of V
        diagonal = np.einsum("ic,ic->i", kernel.U, np.conj(kernel.V))
        return complex(np.sum(diagonal) * kernel.grid.measure_weight ** kernel.k)
    size = kernel.grid.lattice_size ** kernel.k
    flat = as_dense(kernel).data.reshape(size, size)
    return complex(np.trace(flat) * kernel.grid.measure_weight ** kernel.k)


# -- random test kernels ------------------------------------------------------

def bracket_envelope(grid: GridSpec, k: int, exponent: float) -> np.ndarray:
    """k-fold outer power of variable_bracket(grid) ** exponent: the weight
    of one variable group (all unprimed, or all primed, variables)."""
    w = variable_bracket(grid) ** exponent
    half = np.array(1.0)
    for _ in range(k):
        half = np.multiply.outer(half, w)
    return half


def damp(data: np.ndarray, half: np.ndarray) -> None:
    """data damped in place by the weight half (a bracket_envelope) on both
    variable groups: the rows of the (unprimed x primed) matrix scaled by
    half, then its columns, in one blocks.rows pass."""
    half = half.reshape(-1)
    mat = data.reshape(half.size, half.size)

    def rows(r):
        block = mat[r]
        block *= half[r, None]
        block *= half

    blocks.rows(rows, mat, lambda shape: ())


DRAW_DECAY = 1.0  # s: random_test_kernel's extra decay beyond H^alpha


def draw_bytes(grid: GridSpec, k: int) -> int:
    """What random_test_kernel holds: the draw, and beside it the larger of
    symmetrize_bytes and what hermitize holds (the projections run one after
    the other): per block-pool run its tile buffer and numpy's iterator
    buffers for the two transposed tiles, and 32 kB of interpreter objects."""
    rows = grid.M ** (k * grid.n)
    runs = len(blocks.deal(range(0, rows, _TILE), rows * rows))
    return grid.kernel_bytes(k) + max(runs * 48 * _TILE**2 + 2**15, symmetrize_bytes(grid, k))


def random_test_kernel(grid: GridSpec, k: int, alpha: float, seed: int,
                       budget=None) -> MarginalKernel:
    """Seeded random kernel with enough momentum decay to have finite H^alpha norms.

    Independent complex Gaussians, damped in place by prod <p_j>^-(alpha+s)
    <p'_j>^-(alpha+s) (s = DRAW_DECAY), then hermitized and symmetrized in
    place, so the draw holds one kernel-sized array and the projections'
    buffers; the budget check covers all of it (draw_bytes).
    """
    check_budget(draw_bytes(grid, k), budget, what=f"k={k} test kernel")
    rng = np.random.default_rng(seed)
    shape = grid.kernel_shape(k)
    data = rng.standard_normal(shape + (2,)).view(np.complex128).reshape(shape)
    damp(data, bracket_envelope(grid, k, -(alpha + DRAW_DECAY)))
    return symmetrize(hermitize(MarginalKernel(grid, k, data)))


# -- serialization ------------------------------------------------------------

_HEADER = struct.Struct("<idii")  # n, L, M, k (k = 0 marks a rank-1 array)


def _write_momentum_file(path, grid: GridSpec, k: int, parts):
    """Header (n, L, M, k), then each array of parts in turn, row-major
    '<c16', written from its buffer (not a copy) before the next is taken."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(grid.n, grid.L, grid.M, k))
        for part in parts:
            fh.write(np.ascontiguousarray(part, dtype="<c16").data)


def save_momentum_array(path, arr: np.ndarray, grid: GridSpec, k: int):
    """Flat binary layout: header (n, L, M, k) then row-major '<c16' payload,
    written from the array's buffer, not a copy."""
    _write_momentum_file(path, grid, k, (arr,))


def load_momentum_array(path, budget=None):
    """Inverse of save_momentum_array; returns (grid, k, array)."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError("truncated kernel file header")
        n, L, M, k = _HEADER.unpack(header)
        if n < 1 or M < 1 or k < 0:
            raise ValueError(f"invalid kernel file header (n={n}, M={M}, k={k})")
        grid = GridSpec(n, L, M)
        ndim = n if k == 0 else 2 * k * n
        count = 1
        for _ in range(ndim):  # stops at the budget, so absurd headers cost nothing
            count *= M
            check_budget(16 * count, budget, what=f"array of {ndim} axes of length {M}")
        shape = (M,) * ndim
        payload = np.frombuffer(fh.read(16 * count), dtype="<c16")
        if payload.size != count:
            raise ValueError("truncated kernel file")
        return grid, k, payload.astype(np.complex128).reshape(shape)


def save_kernel(path, kernel, budget=None):
    """save_momentum_array of the kernel's dense array.  An evolved or
    low-rank kernel is written one row slice of blocks.rows' size at a
    time (matrix_rows), never multiplied out whole; it is refused where
    as_dense would refuse it, and the file is the same byte for byte."""
    if not isinstance(kernel, (EvolvedKernel, LowRankKernel)):
        dense = as_dense(kernel, budget)
        save_momentum_array(path, dense.data, dense.grid, dense.k)
        return
    grid, k = kernel.grid, kernel.k
    check_budget(grid.kernel_bytes(k), budget, what=f"k={k} kernel")
    rows = grid.M ** (k * grid.n)
    step = max(1, blocks.BLOCK // rows)
    read, buf = matrix_rows(kernel), np.empty((min(step, rows), rows), dtype=np.complex128)
    _write_momentum_file(path, grid, k, (read(slice(s, s + step), buf[:min(step, rows - s)])
                                         for s in range(0, rows, step)))


def load_kernel(path, budget=None) -> MarginalKernel:
    grid, k, data = load_momentum_array(path, budget)
    if k == 0:
        raise ValueError("file holds a rank-1 array, not a kernel")
    return MarginalKernel(grid, k, data)


def save_wavefunction(path, phi_hat: np.ndarray, grid: GridSpec):
    save_momentum_array(path, phi_hat, grid, 0)


def load_wavefunction(path):
    grid, k, data = load_momentum_array(path)
    if k != 0:
        raise ValueError("file holds a kernel, not a rank-1 array")
    return grid, data
