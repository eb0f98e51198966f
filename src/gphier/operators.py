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

Factorized kernels take a fast path that never materializes the input
level.  Each collapse term of prod phi phi' replaces one factor by a
modified one-particle profile h, a truncated convolution of profiles.
Summing the terms of one side over j gives the one-level vector
S = sum_j sign_j phi x .. h (slot j) .. x phi of size M^(kn), built from the
prefix products P_i = phi^(x i); the output is then the two outer products
S_1 x conj(P_k) + P_k x conj(S_2).  It matches the dense path to rounding.

Full-size passes (the free phase, both outer products) run over the
(unprimed x primed) matrix view of a kernel in row blocks of about
_BLOCK entries, so that no temporary grows with the kernel, and the row
blocks are spread over the block pool.  The dense collapse builds each
contraction C_c plane by plane, adding t[.., p, .., p - c] over ascending
p (the order np.trace adds in), with the shifts spread over the pool and
the shift-adds into the output made serially in shift order.  Every output
is bitwise that of one worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.signal import convolve as _nd_convolve

from . import blocks
from .kernels import FactorizedKernel, MarginalKernel, check_budget, prefix_products
from .spectral import GridSpec, variable_psq

CUBIC = "cubic"
QUINTIC = "quintic"

_BLOCK = 1 << 16  # entries per row block of a full-size pass


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

def _row_step(rows: int) -> int:
    return max(1, _BLOCK // rows)


def apply_free_phase(data: np.ndarray, grid: GridSpec, k: int, t: float) -> np.ndarray:
    """In-place free-evolution phase on a C-contiguous raw kernel array; returns data.

    One pass over the (unprimed x primed) matrix view: row block r is
    multiplied by P[r, None] * conj(P) with P the phase vector of k
    particle variables.
    """
    if t == 0.0:
        return data
    one = np.exp(-1j * t * variable_psq(grid)).reshape(-1)
    ph = prefix_products(one, k)[k]
    ph_conj = np.conj(ph)
    rows = ph.size
    mat = data.reshape(rows, rows, copy=False)
    step = _row_step(rows)

    def phase_block(r, phase):
        block = mat[r:r + step]
        block *= np.multiply.outer(ph[r:r + step], ph_conj, out=phase[:len(block)])

    blocks.map_items(phase_block, range(0, rows, step), data.size,
                     lambda: np.empty((min(step, rows), rows), dtype=np.complex128))
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
    return phi_hat * np.exp(-1j * t * variable_psq(grid))


# -- dense collapse machinery ---------------------------------------------------

def _offset_ranges(M: int, c: int):
    """Slices (out, src) adding src[i - c] into out[i] over the valid overlap."""
    return slice(max(0, c), M + min(0, c)), slice(max(0, -c), M + min(0, -c))


def _offset_traces(t: np.ndarray, axis: int, offsets, outs) -> None:
    """outs[i] = np.trace(t, offset=-offsets[i], axis1=axis, axis2=-1), every i.

    Summed plane by plane: outs[i] accumulates t[.., p, .., p - offsets[i]]
    over ascending p, the order np.trace adds in whenever axes are left
    over.  The planes of all offsets at one p are taken together, so t is
    read once for all of them.
    """
    M = t.shape[-1]
    lead = (slice(None),) * axis
    started = [False] * len(offsets)
    for p in range(M):
        slab = t[lead + (p,)]
        for i, c in enumerate(offsets):
            if 0 <= p - c < M:
                if started[i]:
                    outs[i] += slab[..., p - c]
                else:
                    np.copyto(outs[i], slab[..., p - c])
                    started[i] = True


def _trace_last_pairs(t: np.ndarray, u_end: int, shifts, outs) -> None:
    """outs[i] = offset trace of the last primed variable against the
    variable whose axes end at u_end (exclusive), component offsets
    shifts[i] (length n).  Components are traced last first; shifts that
    share a last component share its trace."""
    if len(shifts[0]) == 1:
        _offset_traces(t, u_end - 1, [c[0] for c in shifts], outs)
        return
    lasts = sorted({c[-1] for c in shifts})
    partial = [np.empty(t.shape[:u_end - 1] + t.shape[u_end:-1], dtype=t.dtype)
               for _ in lasts]
    _offset_traces(t, u_end - 1, lasts, partial)
    for last, part in zip(lasts, partial):
        idx = [i for i, c in enumerate(shifts) if c[-1] == last]
        _trace_last_pairs(part, u_end - 1, [shifts[i][:-1] for i in idx],
                          [outs[i] for i in idx])


def _shifts(M: int, n: int) -> list:
    return list(product(range(-(M - 1), M), repeat=n))


def _by_last_component(shifts, entries: int) -> list:
    """Shift indices in runs for the block pool (blocks.deal over a kernel
    of that many entries), each last component in one run."""
    runs = blocks.deal(sorted({c[-1] for c in shifts}), entries)
    return [[i for i, c in enumerate(shifts) if c[-1] in run] for run in runs]


def _contracted(shape: tuple, pairs: int, n: int) -> np.ndarray:
    """Output array of a contraction removing `pairs` variable pairs."""
    return np.empty(shape[:len(shape) - 2 * pairs * n], dtype=np.complex128)


def cubic_contractions(kernel: MarginalKernel) -> list:
    """[(c, C_c)] over all shift vectors for the last-pair contraction of a
    dense kernel, for several collapse terms to share.

    The contractions are the expensive part of a dense cubic collapse; they
    take about 2/M of the kernel's memory.  The shifts are spread over the
    block pool; the outputs are allocated here, on the calling thread.
    """
    grid = kernel.grid
    kp, n, M = kernel.k, grid.n, grid.M
    shifts = _shifts(M, n)
    outs = [_contracted(kernel.data.shape, 1, n) for _ in shifts]

    def run(idx):
        _trace_last_pairs(kernel.data, kp * n, [shifts[i] for i in idx],
                          [outs[i] for i in idx])

    blocks.map_blocks(run, _by_last_component(shifts, kernel.data.size))
    return list(zip(shifts, outs))


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
        contractions = cubic_contractions(kernel)
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

def _quintic_contractions(kernel: MarginalKernel) -> list:
    """[(c_total, C)] over shift vectors for the double-pair contraction.

    The two (q_i, q'_i) pairs are traced one after the other; the shift in
    the j-th slot only sees the sum of the two per-pair offsets, and totals
    with a component of size >= M (which every shift-add drops) are skipped.
    The first pair's shifts are spread over the block pool; outputs and the
    one-pair traces are allocated here, on the calling thread.
    """
    grid = kernel.grid
    kp, n, M = kernel.k, grid.n, grid.M
    shifts = _shifts(M, n)
    first = [_contracted(kernel.data.shape, 1, n) for _ in shifts]
    second = [[c1 for c1 in shifts if all(abs(a + b) < M for a, b in zip(c1, c2))]
              for c2 in shifts]
    outs = [[_contracted(kernel.data.shape, 2, n) for _ in c1s] for c1s in second]

    def run(idx):
        _trace_last_pairs(kernel.data, kp * n, [shifts[i] for i in idx],
                          [first[i] for i in idx])
        for i in idx:
            _trace_last_pairs(first[i], (kp - 1) * n, second[i], outs[i])

    blocks.map_blocks(run, _by_last_component(shifts, kernel.data.size))
    return [(tuple(a + b for a, b in zip(c1, c2)), C)
            for c2, c1s, Cs in zip(shifts, second, outs) for c1, C in zip(c1s, Cs)]


def _collapse_quintic_dense(kernel: MarginalKernel, terms) -> MarginalKernel:
    grid = kernel.grid
    k, n, M = kernel.k - 2, grid.n, grid.M
    out = np.zeros(grid.kernel_shape(k), dtype=np.complex128)
    for c, C in _quintic_contractions(kernel):
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


def _collapse_factorized(kernel: FactorizedKernel, terms, profile_fn, offset: int = 1,
                         budget=None) -> MarginalKernel:
    grid = kernel.grid
    k = kernel.k - offset
    check_budget(grid.kernel_bytes(k), budget, what=f"k={k} collapse output")
    phi = kernel.phi_hat.reshape(-1)
    h = profile_fn(kernel.phi_hat, grid).reshape(-1)
    prefix = prefix_products(phi, k)
    sums = {}  # side -> sum_j sign_j phi x .. h (slot j) .. x phi
    for j, side, sign in terms:
        term = np.multiply.outer(np.multiply.outer(prefix[j - 1], h), prefix[k - j])
        term = term.reshape(-1)
        if side not in sums:
            sums[side] = term if sign > 0 else -term
        elif sign > 0:
            sums[side] += term
        else:
            sums[side] -= term
    p = prefix[k]
    rows = p.size
    out = np.zeros((rows, rows), dtype=np.complex128)
    p_conj = np.conj(p)
    s2_conj = np.conj(sums[2]) if 2 in sums else None
    step = _row_step(rows)

    def outer_block(r, term):
        block = out[r:r + step]
        if 1 in sums:
            np.multiply.outer(sums[1][r:r + step], p_conj, out=block)
        if s2_conj is not None:
            block += np.multiply.outer(p[r:r + step], s2_conj, out=term[:len(block)])

    blocks.map_items(outer_block, range(0, rows, step), out.size,
                     lambda: np.empty((min(step, rows), rows), dtype=np.complex128))
    return MarginalKernel(grid, k, out.reshape(grid.kernel_shape(k)))
