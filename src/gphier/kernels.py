"""Marginal density kernels on the momentum lattice.

A k-particle kernel gamma(p_1..p_k; p'_1..p'_k) is stored as a complex128
array with 2*k*n axes of length M: the first k*n axes are the unprimed
variables (n consecutive axes per particle), the last k*n the primed ones.
Index order per axis follows GridSpec.modes (m = -M/2 .. M/2-1).

A kernel has one of three representations:

- dense (MarginalKernel): the whole array;
- factorized (FactorizedKernel): the lazy product prod_j phi(p_j)
  conj(phi(p'_j)), which stores only the one-particle profile; free
  evolution, norms, traces and collapses all have exact closed forms for it,
  which is what makes deep hierarchy levels affordable;
- low rank (LowRankKernel): the (unprimed x primed) matrix as U V^H, with
  every column kept as built.  A collapse of a factorized kernel is one, and
  so is a Duhamel node sourced by a factorized closure.  Free evolution
  scales the rows of the factors; norms, distances and traces stream the
  matrix row slice by row slice; everything else materializes one kernel
  at a time (as_dense) and runs the dense code.
"""

from __future__ import annotations

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

    @classmethod
    def zeros(cls, grid: GridSpec, k: int, budget=None) -> "MarginalKernel":
        check_budget(grid.kernel_bytes(k), budget)
        return cls(grid, k, np.zeros(grid.kernel_shape(k), dtype=np.complex128))


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


def as_dense(kernel, budget=None) -> MarginalKernel:
    """The kernel itself if dense, else its materialized copy."""
    if isinstance(kernel, (FactorizedKernel, LowRankKernel)):
        return kernel.materialize(budget)
    return kernel


def factorized(phi, grid: GridSpec, k: int, budget=None) -> MarginalKernel:
    """Dense factorized kernel built from a one-particle position profile."""
    return FactorizedKernel.from_position(phi, grid, k).materialize(budget)


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


def factorized_sequence(phi, grid: GridSpec, K: int, xi: float, dense_up_to: int = None,
                        budget=None) -> HierarchySequence:
    """Factorized hierarchy from one profile; levels above dense_up_to stay lazy."""
    if dense_up_to is None:
        dense_up_to = K
    base = FactorizedKernel.from_position(phi, grid, 1)
    levels = []
    for k in range(1, K + 1):
        fk = FactorizedKernel(grid, k, base.phi_hat)
        levels.append(fk.materialize(budget) if k <= dense_up_to else fk)
    return HierarchySequence(K, xi, tuple(levels))


# -- symmetry operations ----------------------------------------------------

_TILE = 64  # side of the square blocks the adjoint is copied in


def adjoint(kernel: MarginalKernel) -> MarginalKernel:
    """Hermitian adjoint: conj and swap of unprimed/primed variable groups.

    In matrix form (unprimed rows, primed columns) this is the conjugate
    transpose, copied tile by tile so that reads and writes both stay
    within a few pages; a plain transposed copy strides across the whole
    array on one side.
    """
    rows = kernel.grid.M ** (kernel.k * kernel.grid.n)
    mat = kernel.data.reshape(rows, rows)
    out = np.empty_like(mat)
    for i in range(0, rows, _TILE):
        for j in range(0, rows, _TILE):
            np.conjugate(mat[j:j + _TILE, i:i + _TILE].T, out=out[i:i + _TILE, j:j + _TILE])
    return MarginalKernel(kernel.grid, kernel.k, out.reshape(kernel.data.shape))


def hermitize(kernel: MarginalKernel) -> MarginalKernel:
    """(gamma + gamma^*) / 2, built in the adjoint's array."""
    data = adjoint(kernel).data
    data += kernel.data
    data *= 0.5
    return MarginalKernel(kernel.grid, kernel.k, data)


def _sigma_axes(sigma, k: int, n: int) -> list:
    axes = []
    for j in sigma:
        axes.extend(range(j * n, (j + 1) * n))
    for j in sigma:
        axes.extend(range((k + j) * n, (k + j + 1) * n))
    return axes


def permute_particles(kernel: MarginalKernel, sigma) -> MarginalKernel:
    """Theta_sigma: simultaneous permutation of primed and unprimed variables.

    sigma is a 0-based tuple; entry j names the input variable placed at
    output slot j.
    """
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(kernel.k)):
        raise ValueError("sigma must be a permutation of 0..k-1")
    axes = _sigma_axes(sigma, kernel.k, kernel.grid.n)
    return MarginalKernel(kernel.grid, kernel.k, kernel.data.transpose(axes).copy())


def symmetrize(kernel: MarginalKernel) -> MarginalKernel:
    """Project onto the bosonic (permutation-symmetric) subspace.

    Uses the coset recursion P_i = (1/i) sum_{j<=i} swap(j,i) P_{i-1}, which
    needs 2+3+..+k transposed adds instead of k! of them.  k > 6 is refused;
    beyond that the dense tensors would not fit any reasonable budget anyway.
    """
    k, n = kernel.k, kernel.grid.n
    if k > 6:
        raise ResourceBudgetError("symmetrize supports k <= 6")
    out = kernel.data
    for i in range(1, k):
        views = []
        for j in range(i):
            sigma = list(range(k))
            sigma[j], sigma[i] = sigma[i], sigma[j]
            views.append(out.transpose(_sigma_axes(sigma, k, n)))
        acc = out + views[0]
        for view in views[1:]:
            acc += view
        acc /= i + 1
        out = acc
    return MarginalKernel(kernel.grid, kernel.k, out)


def _sq_norm(a: np.ndarray, out: np.ndarray) -> float:
    """sum |a|^2 of a C-contiguous block, squared into out (a's shape, may
    be a).  numpy's own pairwise sum, not BLAS, so the value does not
    depend on the BLAS thread count."""
    return float(np.sum(np.square(a.view(np.float64), out=out.view(np.float64))))


def frobenius_norm(kernel: MarginalKernel) -> float:
    """||data||, the row-block sums of the (unprimed x primed) matrix added
    in block order: the scale both defects divide by."""
    rows = kernel.grid.M ** (kernel.k * kernel.grid.n)
    mat = kernel.data.reshape(rows, rows)
    return math.sqrt(sum(blocks.rows(lambda r, buf: _sq_norm(mat[r], buf), mat)))


def symmetry_defect(kernel: MarginalKernel, scale: float | None = None) -> float:
    """Largest relative deviation from Theta_sigma invariance over swaps.

    scale is frobenius_norm(kernel), computed here if not given.  Each swap
    difference is formed one leading-axis slice at a time, in a buffer per
    run of slices, the runs spread over the block pool; the slice sums are
    added in slice order.
    """
    k, n = kernel.k, kernel.grid.n
    data = kernel.data
    if scale is None:
        scale = frobenius_norm(kernel)
    if scale == 0.0:
        return 0.0
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


def hermiticity_defect(kernel: MarginalKernel, scale: float | None = None) -> float:
    """||gamma - gamma^*|| / ||gamma||, without forming the adjoint.

    scale is ||gamma|| = frobenius_norm(kernel), computed here if not given.
    The squared difference is summed over _TILE x _TILE tiles of the
    (unprimed, primed) matrix; tile (j, i) of gamma - gamma^* is minus the
    conjugate transpose of tile (i, j), so only tiles with j >= i are formed.
    A row of full tiles is differenced in two passes into a buffer that
    holds each tile contiguously, squared in place and summed per tile by
    numpy (not BLAS); ragged edge tiles go one at a time.  Tile rows go to
    the block pool, each run with one strip buffer, and the tile sums are
    added in row-major tile order.
    """
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
    flat = kernel.data.reshape(size, size)
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


def random_test_kernel(grid: GridSpec, k: int, alpha: float, seed: int,
                       s: float = 1.0, budget=None) -> MarginalKernel:
    """Seeded random kernel with enough momentum decay to have finite H^alpha norms.

    Independent complex Gaussians, damped by prod <p_j>^-(alpha+s) <p'_j>^-(alpha+s),
    then hermitized and symmetrized.
    """
    check_budget(grid.kernel_bytes(k), budget, what=f"k={k} test kernel")
    rng = np.random.default_rng(seed)
    shape = grid.kernel_shape(k)
    data = rng.standard_normal(shape + (2,)).view(np.complex128).reshape(shape)
    half = bracket_envelope(grid, k, -(alpha + s))
    data *= half.reshape(half.shape + (1,) * (k * grid.n))
    data *= half
    kern = MarginalKernel(grid, k, data)
    return symmetrize(hermitize(kern))


# -- serialization ------------------------------------------------------------

_HEADER = struct.Struct("<idii")  # n, L, M, k (k = 0 marks a rank-1 array)


def save_momentum_array(path, arr: np.ndarray, grid: GridSpec, k: int):
    """Flat binary layout: header (n, L, M, k) then row-major '<c16' payload."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(grid.n, grid.L, grid.M, k))
        fh.write(np.ascontiguousarray(arr, dtype="<c16").tobytes())


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
    dense = as_dense(kernel, budget)
    save_momentum_array(path, dense.data, dense.grid, dense.k)


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
