"""Fourier lattice helpers for the periodic box.

All momentum-space tensors in this package live on the lattice

    { 2*pi*m/L : m = -M/2, ..., M/2 - 1 }   (per axis)

with positions sampled at L*i/M - L/2.  The transform pair carries weight
(L/M)^n on forward sums and 1/L^n on inverse sums, so the constant function
1 maps to a delta of height L^n at p = 0 and Parseval holds exactly on the
lattice (to rounding).  Unprimed kernel variables transform with
exp(-i p.x), primed ones with exp(+i p'.x'); both are provided here as the
"forward"/"dual" pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GridSpec:
    """Periodic box [-L/2, L/2)^n sampled on M points per axis.

    Parameters
    ----------
    n : spatial dimension (>= 1)
    L : box side length (positive and finite)
    M : grid points per axis, even and >= 4.  The mode -M/2 is kept
        unpaired, as usual for even-length real FFT lattices.
    """

    n: int
    L: float
    M: int

    def __post_init__(self):
        if int(self.n) < 1:
            raise ValueError("dimension n must be a positive integer")
        if not 0 < self.L < np.inf:
            raise ValueError("box length L must be positive and finite")
        if int(self.M) < 4 or int(self.M) % 2 != 0:
            raise ValueError("M must be an even integer >= 4")

    @property
    def modes(self) -> np.ndarray:
        """Integer mode numbers m = -M/2 .. M/2-1 (monotone order)."""
        return np.arange(self.M) - self.M // 2

    @property
    def momenta(self) -> np.ndarray:
        """Momentum lattice 2*pi*m/L along one axis, same order as modes."""
        return TWO_PI * self.modes / self.L

    @property
    def positions(self) -> np.ndarray:
        """Position lattice L*i/M - L/2 along one axis."""
        return self.L * np.arange(self.M) / self.M - self.L / 2.0

    @property
    def lattice_size(self) -> int:
        """Number of momentum points per particle variable, M**n."""
        return self.M ** self.n

    @property
    def dx(self) -> float:
        """Position quadrature weight (L/M)^n."""
        return (self.L / self.M) ** self.n

    @property
    def measure_weight(self) -> float:
        """Momentum-sum weight per variable, dq/(2*pi)^n = 1/L^n."""
        return self.L ** (-self.n)

    def kernel_shape(self, k: int) -> tuple:
        """Array shape of a k-particle kernel: 2*k*n axes of length M."""
        return (self.M,) * (2 * k * self.n)

    def kernel_entries(self, k: int) -> int:
        return self.lattice_size ** (2 * k)

    def kernel_bytes(self, k: int) -> int:
        """complex128 storage for one k-particle kernel."""
        return 16 * self.kernel_entries(k)


def axis_sum(vectors) -> np.ndarray:
    """sum_a vectors[a] laid along axis a, of shape (len(v) for v in
    vectors): added in axis order onto zeros."""
    out = np.zeros([len(v) for v in vectors])
    for axis, v in enumerate(vectors):
        out = out + v.reshape([-1 if a == axis else 1 for a in range(out.ndim)])
    return out


@lru_cache(maxsize=64)
def _variable_bracket_cached(n: int, L: float, M: int) -> np.ndarray:
    return np.sqrt(1.0 + axis_sum([GridSpec(n, L, M).momenta ** 2] * n))


def variable_bracket(grid: GridSpec) -> np.ndarray:
    """<p> over one particle variable: array of shape (M,)*n."""
    return _variable_bracket_cached(grid.n, grid.L, grid.M)


def variable_psq(grid: GridSpec) -> np.ndarray:
    """|p|^2 over one particle variable: array of shape (M,)*n."""
    b = variable_bracket(grid)
    return b * b - 1.0


def _alternating(grid: GridSpec) -> np.ndarray:
    """(-1)^m in mode order, the phase from the -L/2 lattice offset."""
    return np.where(grid.modes % 2 == 0, 1.0, -1.0)


def _axis_phase(grid: GridSpec, ndim: int, axis: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = grid.M
    return _alternating(grid).reshape(shape)


def axis_to_momentum(arr: np.ndarray, grid: GridSpec, axis: int, primed: bool = False) -> np.ndarray:
    """One-axis transform position -> momentum (mode order, weight L/M).

    Unprimed axes use exp(-i p x); primed axes the conjugate convention.
    """
    if primed:
        t = np.fft.ifft(arr, axis=axis) * grid.M
    else:
        t = np.fft.fft(arr, axis=axis)
    t = np.fft.fftshift(t, axes=axis)
    return t * ((grid.L / grid.M) * _axis_phase(grid, arr.ndim, axis))


def axis_to_position(arr: np.ndarray, grid: GridSpec, axis: int, primed: bool = False) -> np.ndarray:
    """One-axis transform momentum -> position (weight 1/L), inverse of above."""
    t = arr * _axis_phase(grid, arr.ndim, axis)
    t = np.fft.ifftshift(t, axes=axis)
    if primed:
        t = np.fft.fft(t, axis=axis)
    else:
        t = np.fft.ifft(t, axis=axis) * grid.M
    return t / grid.L


def forward_transform(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Transform a one-particle grid function to the momentum lattice.

    Sum weight (L/M)^n, kernel exp(-i p.x).  The constant 1 maps to a
    delta of height L^n at p = 0.
    """
    values = np.asarray(values, dtype=complex)
    if values.shape != (grid.M,) * grid.n:
        raise ValueError("values must have shape (M,)*n")
    out = values
    for axis in range(grid.n):
        out = axis_to_momentum(out, grid, axis)
    return out

def inverse_transform(values_hat: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Inverse of :func:`forward_transform` (sum weight 1/L^n)."""
    values_hat = np.asarray(values_hat, dtype=complex)
    if values_hat.shape != (grid.M,) * grid.n:
        raise ValueError("values must have shape (M,)*n")
    out = values_hat
    for axis in range(grid.n):
        out = axis_to_position(out, grid, axis)
    return out
