"""Marginal density kernels on the momentum lattice.

A k-particle kernel gamma(p_1..p_k; p'_1..p'_k) is stored as a complex128
array with 2*k*n axes of length M: the first k*n axes are the unprimed
variables (n consecutive axes per particle), the last k*n the primed ones.
Index order per axis follows GridSpec.modes (m = -M/2 .. M/2-1).

Besides dense kernels there is a lazy factorized representation
prod_j phi(p_j) conj(phi(p'_j)) that only stores the one-particle profile;
free evolution, norms, traces and collapses all have exact closed forms for
it, which is what makes deep hierarchy levels affordable.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from itertools import permutations
from math import factorial

import numpy as np

from . import blocks
from .spectral import GridSpec, forward_transform, variable_bracket

DEFAULT_KERNEL_BUDGET = 2_000_000_000
BUDGET_ENV_VAR = "GPHIER_BUDGET_BYTES"


class ResourceBudgetError(RuntimeError):
    """Raised when a requested allocation exceeds the configured budget."""


def kernel_budget(budget=None) -> int:
    """Effective single-allocation budget in bytes."""
    if budget is not None:
        return int(budget)
    env = os.environ.get(BUDGET_ENV_VAR)
    if env:
        return int(float(env))
    return DEFAULT_KERNEL_BUDGET


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

    def copy(self) -> "MarginalKernel":
        return MarginalKernel(self.grid, self.k, self.data.copy())

    def block_axes(self, j: int, primed: bool) -> list:
        """Axis indices of particle variable j (1-based)."""
        n = self.grid.n
        base = (self.k + j - 1) * n if primed else (j - 1) * n
        return list(range(base, base + n))


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
        from .spectral import variable_psq

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


Kernel = (MarginalKernel, FactorizedKernel)


def prefix_products(v: np.ndarray, k: int) -> list:
    """[P_0, .., P_k] with P_i the flat i-fold outer power of v (P_0 = [1])."""
    out = [np.ones(1, dtype=np.complex128)]
    for _ in range(k):
        out.append(np.multiply.outer(out[-1], v).reshape(-1))
    return out


def as_dense(kernel, budget=None) -> MarginalKernel:
    if isinstance(kernel, FactorizedKernel):
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


def symmetrize_bruteforce(kernel: MarginalKernel) -> MarginalKernel:
    """Straight group average, for cross-checking symmetrize on small k."""
    k, n = kernel.k, kernel.grid.n
    acc = np.zeros_like(kernel.data)
    for sigma in permutations(range(k)):
        acc += kernel.data.transpose(_sigma_axes(sigma, k, n))
    return MarginalKernel(kernel.grid, kernel.k, acc / factorial(k))


def _sq_norm(a: np.ndarray) -> float:
    """sum |a|^2 of a block."""
    return float(np.vdot(a, a).real)


def symmetry_defect(kernel: MarginalKernel) -> float:
    """Largest relative deviation from Theta_sigma invariance over swaps.

    Each swap difference is formed one leading-axis slice at a time, in a
    buffer per run of slices, the runs spread over the block pool; the
    slice sums are added in slice order.
    """
    k, n = kernel.k, kernel.grid.n
    data = kernel.data
    scale = float(np.linalg.norm(data.ravel()))
    if scale == 0.0:
        return 0.0
    worst = 0.0
    for i in range(1, k):
        sigma = list(range(k))
        sigma[0], sigma[i] = sigma[i], sigma[0]
        swapped = data.transpose(_sigma_axes(sigma, k, n))

        def slice_sum(a, diff):
            return _sq_norm(np.subtract(data[a], swapped[a], out=diff))

        total = sum(blocks.map_items(slice_sum, range(data.shape[0]), data.size,
                                     lambda: np.empty(data.shape[1:], dtype=data.dtype)))
        worst = max(worst, math.sqrt(total) / scale)
    return worst


def hermiticity_defect(kernel: MarginalKernel) -> float:
    """||gamma - gamma^*|| / ||gamma||, without forming the adjoint.

    The squared difference is summed over _TILE x _TILE tiles of the
    (unprimed, primed) matrix; tile (j, i) of gamma - gamma^* is minus the
    conjugate transpose of tile (i, j), so only tiles with j >= i are formed.
    A row of full tiles is differenced in two passes into a buffer that
    holds each tile contiguously; ragged edge tiles go one at a time.  Tile
    rows go to the block pool, each run with one strip buffer, and the tile
    sums are added in row-major tile order.
    """
    rows = kernel.grid.M ** (kernel.k * kernel.grid.n)
    mat = kernel.data.reshape(rows, rows)
    scale = float(np.linalg.norm(mat.ravel()))
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
        sums = [_sq_norm(diff) for diff in diffs]
        for j in range(i + full * _TILE, rows, _TILE):
            tile = mat[i:i + _TILE, j:j + _TILE]
            diff = buf[:tile.size].reshape(tile.shape)
            np.conjugate(mat[j:j + _TILE, i:i + _TILE].T, out=diff)
            np.subtract(tile, diff, out=diff)
            sums.append(_sq_norm(diff))
        return [s * (1.0 if t == 0 else 2.0) for t, s in enumerate(sums)]

    total = 0.0
    for sums in blocks.map_items(tile_row_sums, range(0, rows, _TILE), mat.size,
                                 lambda: np.empty(_TILE * rows, dtype=mat.dtype)):
        for x in sums:
            total += x
    return math.sqrt(total) / scale


def is_symmetric(kernel, tol: float = 1e-10) -> bool:
    if isinstance(kernel, FactorizedKernel):
        return True
    return symmetry_defect(kernel) <= tol


def is_hermitian(kernel, tol: float = 1e-10) -> bool:
    if isinstance(kernel, FactorizedKernel):
        return True
    return hermiticity_defect(kernel) <= tol


# -- traces ------------------------------------------------------------------

def trace(kernel) -> complex:
    """Diagonal sum with weight 1/L^(kn); matches sum_x gamma(x;x) (L/M)^(kn)."""
    if isinstance(kernel, FactorizedKernel):
        return complex(kernel.mass() ** kernel.k)
    size = kernel.grid.lattice_size ** kernel.k
    flat = kernel.data.reshape(size, size)
    return complex(np.trace(flat) * kernel.grid.measure_weight ** kernel.k)


def partial_trace_last(kernel) -> "MarginalKernel | FactorizedKernel":
    """Contract the last particle pair on its diagonal, weight 1/L^n."""
    if isinstance(kernel, FactorizedKernel):
        if kernel.k < 2:
            raise ValueError("partial trace needs k >= 2")
        scale = kernel.mass() ** (1.0 / (2 * (kernel.k - 1)))
        # fold the contracted pair's mass into the remaining profile
        return FactorizedKernel(kernel.grid, kernel.k - 1, kernel.phi_hat * scale)
    k, n = kernel.k, kernel.grid.n
    if k < 2:
        raise ValueError("partial trace needs k >= 2")
    out = kernel.data
    for i in range(n):
        out = np.trace(out, axis1=k * n - 1 - i, axis2=out.ndim - 1)
    return MarginalKernel(kernel.grid, k - 1, out * kernel.grid.measure_weight)


# -- random test kernels ------------------------------------------------------

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
    w = variable_bracket(grid) ** (-(alpha + s))
    half = np.array(1.0)
    for _ in range(k):
        half = np.multiply.outer(half, w)
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
        limit = kernel_budget(budget)
        count = 1
        for _ in range(ndim):  # stops at the budget, so absurd headers cost nothing
            count *= M
            if 16 * count > limit:
                raise ResourceBudgetError(
                    f"deserialized array of {ndim} axes of length {M} is over "
                    f"the budget of {limit} bytes; raise it via {BUDGET_ENV_VAR}"
                )
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
