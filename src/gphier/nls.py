"""Strang split-step solver for the focusing/defocusing NLS on the torus.

    i d/dt phi = -Lap phi + mu |phi|^(2s) phi,   s = 1 (cubic) or 2 (quintic)

One step of size dt: half kinetic, full nonlinear, half kinetic, each
substep exact.  The scheme conserves mass to rounding and is second order
in dt.  Trajectories of factorized hierarchy sequences built from the
solution provide reference data for the hierarchy solver.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .kernels import FactorizedKernel, HierarchySequence
from .operators import CUBIC, Interaction
from .spectral import GridSpec, axis_sum


@lru_cache(maxsize=32)
def _fft_psq(n: int, L: float, M: int) -> np.ndarray:
    """|p|^2 on the unshifted FFT lattice, shape (M,)*n."""
    return axis_sum([(2.0 * np.pi * np.fft.fftfreq(M, d=L / M)) ** 2] * n)


@lru_cache(maxsize=32)
def _kinetic_half(n: int, L: float, M: int, dt: float) -> np.ndarray:
    """exp(-0.5i dt |p|^2), the kinetic half step, made once per step size."""
    return np.exp(-0.5j * dt * _fft_psq(n, L, M))


def _power(interaction: Interaction) -> int:
    return 1 if interaction.kind == CUBIC else 2


def split_step(values: np.ndarray, grid: GridSpec, interaction: Interaction,
               dt: float) -> np.ndarray:
    """One Strang step on position-space samples; returns a new array."""
    half = _kinetic_half(grid.n, grid.L, grid.M, dt)
    fft, ifft = (np.fft.fft, np.fft.ifft) if grid.n == 1 else (np.fft.fftn, np.fft.ifftn)
    s = _power(interaction)
    out = ifft(half * fft(values))
    out *= np.exp(-1j * dt * interaction.mu * np.abs(out) ** (2 * s))
    return ifft(half * fft(out))


def evolve(values: np.ndarray, grid: GridSpec, interaction: Interaction,
           t_final: float, steps: int) -> np.ndarray:
    """Propagate from 0 to t_final with the given number of uniform steps."""
    if steps < 1:
        raise ValueError("need at least one step")
    out = np.asarray(values, dtype=np.complex128)
    dt = t_final / steps
    for _ in range(steps):
        out = split_step(out, grid, interaction, dt)
    return out


def solve_nodes(values: np.ndarray, grid: GridSpec, interaction: Interaction,
                times, substeps: int = 16) -> list:
    """Solution samples at increasing times starting from t=0."""
    times = list(times)
    if not times or times[0] != 0.0:
        raise ValueError("time nodes must start at 0")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("time nodes must increase")
    out = [np.asarray(values, dtype=np.complex128)]
    for a, b in zip(times, times[1:]):
        out.append(evolve(out[-1], grid, interaction, b - a, substeps))
    return out


def factorized_trajectory(values: np.ndarray, grid: GridSpec,
                          interaction: Interaction, K: int, xi: float,
                          times, substeps: int = 16) -> list:
    """Hierarchy sequences F(phi_t, k), k=1..K, at each time node (all lazy)."""
    nodes = solve_nodes(values, grid, interaction, times, substeps)
    out = []
    for snapshot in nodes:
        levels = tuple(
            FactorizedKernel.from_position(snapshot, grid, k) for k in range(1, K + 1)
        )
        out.append(HierarchySequence(K, xi, levels))
    return out


def _states(trajectory):
    return getattr(trajectory, "states", trajectory)


def compare_marginals(trajectory, reference, k: int, alpha: float = 0.0) -> np.ndarray:
    """Per-node relative H^alpha gap of level k against a reference trajectory.

    Both arguments are node sequences of hierarchy states (a solver Trajectory
    or a plain list of HierarchySequence); the denominator is the reference.
    """
    from .norms import level_diff_norm, sobolev_norm

    states_a, states_b = list(_states(trajectory)), list(_states(reference))
    if len(states_a) != len(states_b):
        raise ValueError("node counts differ")
    gaps = []
    for seq_a, seq_b in zip(states_a, states_b):
        ref = seq_b.level(k)
        denom = sobolev_norm(ref, alpha)
        gap = level_diff_norm(seq_a.level(k), ref, alpha)
        gaps.append(gap / denom if denom else np.inf)
    return np.array(gaps)
