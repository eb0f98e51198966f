"""Reference lattice functions that only the tests use.

Whole-kernel Fourier transforms, the momentum cell volume, the Japanese
bracket of scalar and n-dimensional points, and the NLS mass and energy:
definitions the tests check gphier's lattice conventions and the split step
against, with no caller in gphier itself.
"""

import numpy as np

from gphier.nls import _fft_psq, _power
from gphier.norms import accurate_sum
from gphier.operators import Interaction
from gphier.spectral import TWO_PI, GridSpec, axis_to_momentum, axis_to_position


def cell_volume(grid: GridSpec) -> float:
    """Momentum cell volume (2*pi/L)^n."""
    return (TWO_PI / grid.L) ** grid.n


def bracket(p):
    """Japanese bracket <p> = sqrt(1 + p^2), elementwise.

    Intended for scalar momenta / per-component use (n = 1 lattices).  Over
    one particle variable of an n-dimensional lattice use
    gphier.spectral.variable_bracket.
    """
    p = np.asarray(p, dtype=float)
    return np.sqrt(1.0 + p * p)


def bracket_nd(p):
    """Japanese bracket of n-dimensional points; last axis holds components."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        return np.sqrt(1.0 + p * p)
    return np.sqrt(1.0 + np.sum(p * p, axis=-1))


def kernel_to_momentum(arr: np.ndarray, grid: GridSpec, k: int) -> np.ndarray:
    """Position-space k-particle kernel -> momentum representation.

    The first k*n axes (unprimed variables) use exp(-i p.x); the last k*n
    (primed) use exp(+i p'.x').
    """
    arr = np.asarray(arr, dtype=complex)
    if arr.shape != grid.kernel_shape(k):
        raise ValueError("kernel has wrong shape for this grid and k")
    out = arr
    for axis in range(k * grid.n):
        out = axis_to_momentum(out, grid, axis, primed=False)
    for axis in range(k * grid.n, 2 * k * grid.n):
        out = axis_to_momentum(out, grid, axis, primed=True)
    return out


def kernel_to_position(arr: np.ndarray, grid: GridSpec, k: int) -> np.ndarray:
    """Momentum-space k-particle kernel -> position representation."""
    arr = np.asarray(arr, dtype=complex)
    if arr.shape != grid.kernel_shape(k):
        raise ValueError("kernel has wrong shape for this grid and k")
    out = arr
    for axis in range(k * grid.n):
        out = axis_to_position(out, grid, axis, primed=False)
    for axis in range(k * grid.n, 2 * k * grid.n):
        out = axis_to_position(out, grid, axis, primed=True)
    return out


def mass(values: np.ndarray, grid: GridSpec) -> float:
    """Conserved L^2 mass, the quadrature sum of |phi|^2 dx."""
    return accurate_sum(np.abs(values) ** 2) * grid.dx


def energy(values: np.ndarray, grid: GridSpec, interaction: Interaction) -> float:
    """Conserved Hamiltonian: kinetic plus mu/(s+1) |phi|^(2s+2)."""
    phi_hat = np.fft.fftn(values)
    psq = _fft_psq(grid.n, grid.L, grid.M)
    kinetic = accurate_sum(psq * np.abs(phi_hat) ** 2) * grid.dx / grid.lattice_size
    s = _power(interaction)
    potential = (
        interaction.mu / (s + 1.0)
        * accurate_sum(np.abs(values) ** (2 * s + 2)) * grid.dx
    )
    return kinetic + potential
