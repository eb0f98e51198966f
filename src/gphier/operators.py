"""Free evolution and collapse operators in the momentum representation.

free_evolve multiplies by exp(-i t (sum |p_j|^2 - sum |p'_j|^2)), the kernel
conjugation e^{it Lap} gamma e^{-it Lap}.

The cubic collapse terms act on a (k+1)-particle kernel as

    (B1_j gamma)(p; p') = (1/L^2n) sum_{q, q'} gamma(p_1, .., p_j - q + q', .., p_k, q; p'_1..p'_k, q')
    (B2_j gamma)(p; p') = (1/L^2n) sum_{q, q'} gamma(p_1..p_k, q; p'_1, .., p'_j + q - q', .., p'_k, q')

with shifted arguments outside the lattice dropped (band-limit truncation,
no wrap-around).  The double sum carries the dq/(2pi)^n measure weight 1/L^n
per variable, which is what makes B1_1 on a factorized pair kernel equal the
position-space product |phi(x)|^2 phi(x) conj(phi(x')).  The quintic
operators contract two particle pairs and shift by -(q_1+q_2-q'_1-q'_2),
weight 1/L^4n.

Factorized kernels take a fast path: the collapse of prod phi phi' is again
an outer product whose modified one-particle factor is a truncated
convolution of profiles; it matches the dense path to rounding and never
materializes the input level.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.signal import convolve as _nd_convolve

from .kernels import FactorizedKernel, MarginalKernel, check_budget
from .spectral import GridSpec

CUBIC = "cubic"
QUINTIC = "quintic"


@dataclass(frozen=True)
class Interaction:
    """Coupling sign mu and arity of the nonlinearity."""

    kind: str = CUBIC
    mu: int = 1

    def __post_init__(self):
        if self.kind not in (CUBIC, QUINTIC):
            raise ValueError("interaction kind must be 'cubic' or 'quintic'")
        if self.mu not in (1, -1):
            raise ValueError("coupling mu must be +1 or -1")

    @property
    def source_offset(self) -> int:
        """Hierarchy depth the collapse reaches down: 1 for cubic, 2 for quintic."""
        return 1 if self.kind == CUBIC else 2


# -- free evolution -----------------------------------------------------------

def _phase_1d(grid: GridSpec, t: float) -> np.ndarray:
    q = grid.momenta
    return np.exp(-1j * t * q * q)


def apply_free_phase(data: np.ndarray, grid: GridSpec, k: int, t: float) -> np.ndarray:
    """In-place free-evolution phase on a raw kernel array; returns data."""
    if t == 0.0:
        return data
    ph = _phase_1d(grid, t)
    ph_conj = np.conj(ph)
    n = grid.n
    for axis in range(2 * k * n):
        shape = [1] * (2 * k * n)
        shape[axis] = grid.M
        data *= (ph if axis < k * n else ph_conj).reshape(shape)
    return data


def free_evolve(kernel, t: float):
    """U0(t) applied to a dense or factorized kernel (new object)."""
    if isinstance(kernel, FactorizedKernel):
        return kernel.free_evolved(t)
    out = kernel.data.copy()
    apply_free_phase(out, kernel.grid, kernel.k, t)
    return MarginalKernel(kernel.grid, kernel.k, out)


def free_evolve_wavefunction(phi_hat: np.ndarray, grid: GridSpec, t: float) -> np.ndarray:
    """exp(it Lap) on a one-particle momentum profile."""
    from .spectral import variable_psq

    return phi_hat * np.exp(-1j * t * variable_psq(grid))


# -- dense collapse machinery ---------------------------------------------------

def _offset_ranges(M: int, c: int):
    """Slices (out, src) adding src[i - c] into out[i] over the valid overlap."""
    return slice(max(0, c), M + min(0, c)), slice(max(0, -c), M + min(0, -c))


def _trace_last_pair(data: np.ndarray, u_end: int, c) -> np.ndarray:
    """Offset trace of the last primed variable against the variable whose
    axes end at u_end (exclusive), component offsets c (length n)."""
    n = len(c)
    t = data
    for i in range(n):
        t = np.trace(t, offset=-c[n - 1 - i], axis1=u_end - 1 - i, axis2=t.ndim - 1)
    return t


def _cubic_contractions(kernel: MarginalKernel):
    """Yield (c, C_c) over all shift vectors for the last-pair contraction."""
    grid = kernel.grid
    kp, n, M = kernel.k, grid.n, grid.M
    for c in product(range(-(M - 1), M), repeat=n):
        yield c, _trace_last_pair(kernel.data, kp * n, c)


def cubic_contractions(kernel: MarginalKernel) -> list:
    """All (c, C_c) of a dense kernel, for several collapse terms to share.

    The contractions are the expensive part of a dense cubic collapse; they
    take about 2/M of the kernel's memory.
    """
    return list(_cubic_contractions(kernel))


def _shift_add(out: np.ndarray, src: np.ndarray, block: int, n: int, M: int, c, sign: int,
               direction: int, scale=1.0):
    """out[block idx] += scale * sign * src[idx - direction*c], truncated."""
    if any(abs(direction * ca) >= M for ca in c):
        return
    sl_out = [slice(None)] * out.ndim
    sl_src = [slice(None)] * src.ndim
    for a in range(n):
        o, s = _offset_ranges(M, direction * c[a])
        sl_out[block * n + a] = o
        sl_src[block * n + a] = s
    if sign > 0:
        out[tuple(sl_out)] += scale * src[tuple(sl_src)]
    else:
        out[tuple(sl_out)] -= scale * src[tuple(sl_src)]


def _validate_collapse_args(kernel, j: int, offset: int):
    k = kernel.k - offset
    if k < 1:
        raise ValueError(f"collapse needs at least {offset + 1} particles, got k={kernel.k}")
    if not 1 <= j <= k:
        raise ValueError(f"term index j={j} outside 1..{k}")
    return k


def _collapse_cubic_dense(kernel: MarginalKernel, terms, contractions=None) -> MarginalKernel:
    """Shared driver: terms is a list of (j, side, sign), side 1 unprimed, 2 primed."""
    grid = kernel.grid
    k, n, M = kernel.k - 1, grid.n, grid.M
    out = np.zeros(grid.kernel_shape(k), dtype=np.complex128)
    if contractions is None:
        contractions = _cubic_contractions(kernel)
    for c, C in contractions:
        for j, side, sign in terms:
            block = (j - 1) if side == 1 else (k + j - 1)
            direction = 1 if side == 1 else -1
            _shift_add(out, C, block, n, M, c, sign, direction)
    out *= grid.measure_weight ** 2
    return MarginalKernel(grid, k, out)


def collapse_b1(j: int, kernel, contractions=None) -> MarginalKernel:
    """B1_{j,k} term applied to a (k+1)-particle kernel.

    contractions, if given, is cubic_contractions(kernel) for a dense kernel.
    """
    _validate_collapse_args(kernel, j, 1)
    if isinstance(kernel, FactorizedKernel):
        return _collapse_factorized(kernel, [(j, 1, 1)], cubic_collapse_profile)
    return _collapse_cubic_dense(kernel, [(j, 1, 1)], contractions)


def collapse_b2(j: int, kernel, contractions=None) -> MarginalKernel:
    """B2_{j,k} term (primed-side mirror); contractions as in collapse_b1."""
    _validate_collapse_args(kernel, j, 1)
    if isinstance(kernel, FactorizedKernel):
        return _collapse_factorized(kernel, [(j, 2, 1)], cubic_collapse_profile)
    return _collapse_cubic_dense(kernel, [(j, 2, 1)], contractions)


def collapse_sum_cubic(kernel) -> MarginalKernel:
    """Un-prefixed B^(k) = sum_j (B1_j - B2_j)."""
    k = kernel.k - 1
    if k < 1:
        raise ValueError("collapse needs at least 2 particles")
    terms = [(j, 1, 1) for j in range(1, k + 1)] + [(j, 2, -1) for j in range(1, k + 1)]
    if isinstance(kernel, FactorizedKernel):
        return _collapse_factorized(kernel, terms, cubic_collapse_profile)
    return _collapse_cubic_dense(kernel, terms)


def collapse_cubic(kernel, interaction: Interaction) -> MarginalKernel:
    """Btilde^(k) = -i mu B^(k), the source operator of the cubic hierarchy."""
    if interaction.kind != CUBIC:
        raise ValueError("collapse_cubic needs a cubic interaction")
    out = collapse_sum_cubic(kernel)
    np.multiply(out.data, -1j * interaction.mu, out=out.data)
    return out


# -- quintic collapse -----------------------------------------------------------

def _quintic_contractions(kernel: MarginalKernel):
    """Yield (c_total, C) over shift vectors for the double-pair contraction.

    The two (q_i, q'_i) pairs are traced one after the other; the shift in
    the j-th slot only sees the sum of the two per-pair offsets.
    """
    grid = kernel.grid
    kp, n, M = kernel.k, grid.n, grid.M
    for c2 in product(range(-(M - 1), M), repeat=n):
        t2 = _trace_last_pair(kernel.data, kp * n, c2)
        for c1 in product(range(-(M - 1), M), repeat=n):
            C = _trace_last_pair(t2, (kp - 1) * n, c1)
            yield tuple(a + b for a, b in zip(c1, c2)), C


def _collapse_quintic_dense(kernel: MarginalKernel, terms) -> MarginalKernel:
    grid = kernel.grid
    k, n, M = kernel.k - 2, grid.n, grid.M
    out = np.zeros(grid.kernel_shape(k), dtype=np.complex128)
    for c, C in _quintic_contractions(kernel):
        if any(abs(ca) >= M for ca in c):
            continue
        for j, side, sign in terms:
            block = (j - 1) if side == 1 else (k + j - 1)
            direction = 1 if side == 1 else -1
            _shift_add(out, C, block, n, M, c, sign, direction)
    out *= grid.measure_weight ** 4
    return MarginalKernel(grid, k, out)


def collapse_q1(j: int, kernel) -> MarginalKernel:
    """Unprimed quintic term on a (k+2)-particle kernel."""
    _validate_collapse_args(kernel, j, 2)
    if isinstance(kernel, FactorizedKernel):
        return _collapse_factorized(kernel, [(j, 1, 1)], quintic_collapse_profile, offset=2)
    return _collapse_quintic_dense(kernel, [(j, 1, 1)])


def collapse_q2(j: int, kernel) -> MarginalKernel:
    _validate_collapse_args(kernel, j, 2)
    if isinstance(kernel, FactorizedKernel):
        return _collapse_factorized(kernel, [(j, 2, 1)], quintic_collapse_profile, offset=2)
    return _collapse_quintic_dense(kernel, [(j, 2, 1)])


def collapse_sum_quintic(kernel) -> MarginalKernel:
    """Un-prefixed Q^(k) = sum_j (Q1_j - Q2_j) on a (k+2)-particle kernel."""
    k = kernel.k - 2
    if k < 1:
        raise ValueError("quintic collapse needs at least 3 particles")
    terms = [(j, 1, 1) for j in range(1, k + 1)] + [(j, 2, -1) for j in range(1, k + 1)]
    if isinstance(kernel, FactorizedKernel):
        return _collapse_factorized(kernel, terms, quintic_collapse_profile, offset=2)
    return _collapse_quintic_dense(kernel, terms)


def collapse_quintic(kernel, interaction: Interaction) -> MarginalKernel:
    """Qtilde^(k) = -i mu Q^(k)."""
    if interaction.kind != QUINTIC:
        raise ValueError("collapse_quintic needs a quintic interaction")
    out = collapse_sum_quintic(kernel)
    np.multiply(out.data, -1j * interaction.mu, out=out.data)
    return out


def apply_btilde(kernel, interaction: Interaction) -> MarginalKernel:
    """The prefixed collapse matching the interaction arity."""
    if interaction.kind == CUBIC:
        return collapse_cubic(kernel, interaction)
    return collapse_quintic(kernel, interaction)


# -- factorized fast path ---------------------------------------------------------

def _reverse_all(a: np.ndarray) -> np.ndarray:
    return a[(slice(None, None, -1),) * a.ndim]


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim == 1:
        return np.convolve(a, b)
    return _nd_convolve(a, b, mode="full", method="direct")


def _center_slice(arr: np.ndarray, off: int, M: int) -> np.ndarray:
    return arr[(slice(off, off + M),) * arr.ndim]


def cubic_collapse_profile(phi_hat: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Modified one-particle factor of B1_j on a factorized kernel.

    h(p) = (1/L^2n) sum_{q,q' in lattice, p-q+q' in lattice}
           phi(p-q+q') phi(q) conj(phi(q')),
    the band-limited counterpart of the |phi|^2 phi profile.
    """
    W = _convolve(phi_hat, np.conj(_reverse_all(phi_hat)))
    h = _center_slice(_convolve(W, phi_hat), grid.M - 1, grid.M)
    return h * grid.measure_weight ** 2


def quintic_collapse_profile(phi_hat: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Same with two contracted pairs: band-limited |phi|^4 phi profile."""
    u = _convolve(phi_hat, phi_hat)
    W = _convolve(u, np.conj(_reverse_all(u)))
    h = _center_slice(_convolve(W, phi_hat), 2 * (grid.M - 1), grid.M)
    return h * grid.measure_weight ** 4


def _outer(blocks) -> np.ndarray:
    out = np.array(1.0 + 0.0j)
    for b in blocks:
        out = np.multiply.outer(out, b)
    return out


def _collapse_factorized(kernel: FactorizedKernel, terms, profile_fn, offset: int = 1,
                         budget=None) -> MarginalKernel:
    grid = kernel.grid
    k = kernel.k - offset
    check_budget(grid.kernel_bytes(k), budget, what=f"k={k} collapse output")
    phi = kernel.phi_hat
    h = profile_fn(phi, grid)
    base = [phi] * k + [np.conj(phi)] * k
    out = np.zeros(grid.kernel_shape(k), dtype=np.complex128)
    for j, side, sign in terms:
        blocks = list(base)
        if side == 1:
            blocks[j - 1] = h
        else:
            blocks[k + j - 1] = np.conj(h)
        term = _outer(blocks)
        if sign > 0:
            out += term
        else:
            out -= term
    return MarginalKernel(grid, k, out)
