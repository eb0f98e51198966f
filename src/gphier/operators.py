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

One driver, collapse(kernel, interaction, terms), computes every sum of
(j, side, sign) terms for both arities; its default is the un-prefixed
B^(k) = sum_j (T1_j - T2_j).  collapse_b1, collapse_b2 and apply_btilde
(which multiplies by -i mu) are one-line calls into it.  On a dense kernel
it traces the last pair (cubic) or the last two pairs (quintic) once per
total shift c, shift-adds each contraction C_c into the output for every
term (contraction order first, then term order) and scales by the measure
weight once at the end.

The three kernel representations (kernels: dense, factorized, low rank)
flow through these operators as follows.  Factorized kernels take a fast
path that never materializes the input level.  Each collapse term of
prod phi phi' replaces one factor by a modified one-particle profile h, a
truncated convolution of profiles.  Summing the terms of one side over j
gives the one-level vector S = sum_j sign_j phi x .. h (slot j) .. x phi of
size M^(kn), built from the prefix products P_i = phi^(x i); the output is
the low-rank kernel S_1 x conj(P_k) + P_k x conj(S_2), with factors
U = [S_1, P_k] and V = [P_k, S_2].  It matches the dense path to rounding.
A low-rank input U V^H is collapsed from its factors, into a LowRankKernel
too: each factor's rows are summed over the contracted variables of one
lattice-index sum sigma (U_bar, V_bar), and the shift of particle j by
tau - sigma acts on U_bar (unprimed terms) or V_bar (primed terms), with
2 T r output columns for T index sums (_collapse_low_rank); no
level-sized array is built.  free_evolve keeps the representation: it
scales the profile of a factorized kernel, the rows of both factors of a
low-rank one and the whole array of a dense one.

Full-size passes (the free phase) run over the (unprimed x primed) matrix
view of a kernel in the row blocks of blocks.rows, spread over the block
pool.  The free phase can first write a sum of arrays into its target in
the same pass, so a Duhamel node or a free-evolved copy is written once.
The dense collapse builds each contraction C_c plane by plane, adding
t[.., p, .., p - c] over ascending p (the order np.trace adds in), with the
shifts spread over the pool and the shift-adds into the output made
serially in shift order.  Every output is bitwise that of one worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.signal import convolve as _nd_convolve

from . import blocks
from .kernels import (
    FactorizedKernel,
    LowRankKernel,
    MarginalKernel,
    free_phase_vector,
    prefix_products,
)
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


def free_evolve(kernel, t: float):
    """U0(t) applied to a kernel of any representation (new object, same
    representation)."""
    if isinstance(kernel, (FactorizedKernel, LowRankKernel)):
        return kernel.free_evolved(t)
    out = apply_free_phase(np.empty_like(kernel.data), kernel.grid, kernel.k, t, kernel.data)
    return MarginalKernel(kernel.grid, kernel.k, out)


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


def _shift_add(out: np.ndarray, src: np.ndarray, shifts, sign: int):
    """out[idx] += sign * src[idx - c], with idx shifted by c along each
    (axis, c) of shifts and truncated to the overlap (_offset_ranges)."""
    sl_out = [slice(None)] * out.ndim
    sl_src = [slice(None)] * src.ndim
    for axis, c in shifts:
        sl_out[axis], sl_src[axis] = _offset_ranges(out.shape[axis], c)
    if sign > 0:
        out[tuple(sl_out)] += src[tuple(sl_src)]
    else:
        out[tuple(sl_out)] -= src[tuple(sl_src)]


def _quintic_contractions(kernel: MarginalKernel) -> list:
    """[(c_total, C)] over shift vectors for the double-pair contraction.

    The two (q_i, q'_i) pairs are traced one after the other; the shift in
    the j-th slot only sees the sum of the two per-pair offsets, and totals
    with a component of size >= M (which would shift every entry off the
    lattice) are skipped.  The first pair's shifts are spread over the block
    pool; outputs and the one-pair traces are allocated here, on the calling
    thread.
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


# -- the collapse -------------------------------------------------------------------

def collapse(kernel, interaction: Interaction, terms=None, contractions=None):
    """Un-prefixed sum of collapse terms on a (k + offset)-particle kernel.

    terms is a list of (j, side, sign): side 1 is the unprimed term (B1_j,
    or its quintic analogue), side 2 the primed one, and sign +1 or -1.  The
    default is B^(k) = sum_j (T1_j - T2_j).  contractions, if given, is
    cubic_contractions(kernel) for a dense kernel and a cubic interaction;
    then only the kernel's grid and k are read, not its array.  A
    factorized or low-rank kernel gives a LowRankKernel, a dense one a
    MarginalKernel.
    """
    offset = interaction.source_offset
    k = kernel.k - offset
    if k < 1:
        raise ValueError(f"collapse needs at least {offset + 1} particles, got k={kernel.k}")
    if terms is None:
        terms = [(j, 1, 1) for j in range(1, k + 1)] + [(j, 2, -1) for j in range(1, k + 1)]
    for j, _, _ in terms:
        if not 1 <= j <= k:
            raise ValueError(f"term index j={j} outside 1..{k}")
    if isinstance(kernel, FactorizedKernel):
        return _collapse_factorized(kernel, terms, offset)
    if isinstance(kernel, LowRankKernel):
        return _collapse_low_rank(kernel, terms, offset)
    grid = kernel.grid
    n, M = grid.n, grid.M
    # the output is allocated below the contractions on the heap, so that
    # freeing them can shrink the heap again
    out = np.zeros(grid.kernel_shape(k), dtype=np.complex128)
    if contractions is None:
        contractions = (cubic_contractions if offset == 1 else _quintic_contractions)(kernel)
    for c, C in contractions:
        for j, side, sign in terms:
            block = (j - 1) if side == 1 else (k + j - 1)
            direction = 1 if side == 1 else -1
            _shift_add(out, C, [(block * n + a, direction * c[a]) for a in range(n)], sign)
    out *= grid.measure_weight ** (2 * offset)
    return MarginalKernel(grid, k, out)


def collapse_b1(j: int, kernel, contractions=None):
    """B1_{j,k} term applied to a (k+1)-particle kernel; contractions as in collapse."""
    return collapse(kernel, Interaction(), [(j, 1, 1)], contractions)


def collapse_b2(j: int, kernel, contractions=None):
    """B2_{j,k} term (primed-side mirror); contractions as in collapse."""
    return collapse(kernel, Interaction(), [(j, 2, 1)], contractions)


def apply_btilde(kernel, interaction: Interaction):
    """Btilde^(k) = -i mu B^(k), the source operator of the hierarchy."""
    out = collapse(kernel, interaction)
    scaled = out.U if isinstance(out, LowRankKernel) else out.data
    np.multiply(scaled, -1j * interaction.mu, out=scaled)
    return out


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


def _collapse_factorized(kernel: FactorizedKernel, terms, offset: int) -> LowRankKernel:
    grid = kernel.grid
    k = kernel.k - offset
    profile_fn = cubic_collapse_profile if offset == 1 else quintic_collapse_profile
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
    # S_1 P^H + P S_2^H, one column pair per side present
    pairs = [(sums[1], p)] if 1 in sums else []
    if 2 in sums:
        pairs.append((p, sums[2]))
    return LowRankKernel(grid, k, np.column_stack([u for u, _ in pairs]),
                         np.column_stack([v for _, v in pairs]))


# -- low-rank path -------------------------------------------------------------

def _grouped(factor: np.ndarray, rows: int, M: int, n: int, offset: int) -> np.ndarray:
    """[p, sigma, c] -> the sum of factor[(p, q), c] over the contracted
    variables q whose lattice indices sum to sigma (per component), shape
    (rows, G, .., G, r): G = M for one contracted variable (a view of the
    factor), 2M - 1 for two."""
    f = factor.reshape((rows,) + (M,) * (offset * n) + factor.shape[-1:])
    if offset == 1:
        return f
    out = np.zeros((rows,) + (2 * M - 1,) * n + factor.shape[-1:], dtype=factor.dtype)
    for q1 in product(range(M), repeat=n):
        out[(slice(None),) + tuple(slice(a, a + M) for a in q1)] += f[(slice(None),) + q1]
    return out


def _shifted_sum(src: np.ndarray, out: np.ndarray, side_terms, k: int, n: int,
                 M: int) -> None:
    """out[tau] = sum_j sign_j sum_sigma shift_j(src[sigma], tau - sigma): for
    arrays of shape (M,)*(kn) + (G,)*n + (r,), particle j's momentum moves
    by tau - sigma, with the band-limit truncation of _offset_ranges."""
    out[...] = 0.0
    for j, sign in side_terms:
        for d in product(range(-(M - 1), M), repeat=n):
            _shift_add(out, src, [((j - 1) * n + a, -d[a]) for a in range(n)]
                       + [(k * n + a, d[a]) for a in range(n)], sign)


def _collapse_low_rank(kernel: LowRankKernel, terms, offset: int) -> LowRankKernel:
    """collapse of U V^H from its factors, as a LowRankKernel.

    With each factor's rows written as (kept p, contracted q), U_bar[sigma]
    and V_bar[sigma] sum the rows over every q of lattice-index sum sigma
    (T = M^n groups for cubic, (2M-1)^n for quintic).  The unprimed terms
    give Z[tau] = sum_j sign_j sum_sigma shift_j(U_bar[sigma], tau - sigma)
    against V_bar[tau], the primed ones U_bar[tau] against the same sum Z'
    over V_bar.  The factors are [Z, U_bar] and [V_bar, Z'], for the sides
    present: T r columns per side, with the measure weight on the U side.
    """
    grid = kernel.grid
    n, M = grid.n, grid.M
    k = kernel.k - offset
    rows, r = M ** (k * n), kernel.rank
    G = M if offset == 1 else 2 * M - 1
    slot = {side: i for i, side in enumerate(sorted({side for _, side, _ in terms}))}
    U = np.empty((rows, len(slot)) + (G,) * n + (r,), dtype=np.complex128)
    V = np.empty_like(U)
    bars = [_grouped(factor, rows, M, n, offset) for factor in (kernel.U, kernel.V)]
    split = (M,) * (k * n) + (G,) * n + (r,)
    for side, i in slot.items():
        shifted, kept = (U, V) if side == 1 else (V, U)
        _shifted_sum(bars[side - 1].reshape(split), shifted[:, i].reshape(split, copy=False),
                     [(j, sign) for j, s, sign in terms if s == side], k, n, M)
        kept[:, i] = bars[2 - side]
    U *= grid.measure_weight ** (2 * offset)
    return LowRankKernel(grid, k, U.reshape(rows, -1), V.reshape(rows, -1))
