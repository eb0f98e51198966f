"""Sobolev-type norms for marginal kernels and weighted hierarchy norms.

The level-k norm is

    ||gamma||_{H^alpha}^2 = sum_{p,p'} prod_j <p_j>^(2 alpha) <p'_j>^(2 alpha)
                            |gamma_hat(p;p')|^2 / L^(2kn)

with <p> = sqrt(1 + |p|^2), one factor 1/L^n of lattice measure per momentum
variable.  A factorized kernel never needs materializing:
||F(phi, k)||_{H^alpha} equals ||phi||_{H^alpha}^(2k), and differences of two
factorized kernels reduce to one-particle inner products.

Every other norm or distance (dense or low-rank sides) is one streamed
reduction: the weighted |a - b|^2 is formed part by part (the parts
accurate_sum splits a whole array into), a factorized or low-rank side
included; the parts are spread over the block pool and their sums fsum'ed
in order.  No level-sized temporary is built, and the total is bitwise
that of the whole-array formula on any worker count.  A low-rank side is
never reduced through the r x r Gram matrices of its factors: that sum
cancels when two kernels are close.

Hierarchy sequences are measured by sum_k xi^k ||gamma^(k)||; solve()
reports the maximum of that over time nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import blocks
from .kernels import (
    FactorizedKernel,
    HierarchySequence,
    LowRankKernel,
    MarginalKernel,
    prefix_products,
)
from .spectral import GridSpec, variable_bracket

_CHUNK = 1 << 16


@dataclass(frozen=True)
class NormParams:
    """Regularity exponent alpha and level weight xi of the hierarchy norm."""

    alpha: float = 1.0
    xi: float = 0.5

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if not 0 < self.xi < 1:
            raise ValueError("xi must lie in (0, 1)")


def accurate_sum(values: np.ndarray) -> float:
    """Compensated total of a real array: exact fsum over chunk subtotals."""
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    if flat.size <= _CHUNK:
        return math.fsum((float(np.sum(flat)),))
    nchunks = -(-flat.size // _CHUNK)
    return math.fsum(float(np.sum(part)) for part in np.array_split(flat, nchunks))


def profile_norm_sq(phi_hat: np.ndarray, grid: GridSpec, alpha: float) -> float:
    """||phi||_{H^alpha}^2 of a one-particle momentum profile."""
    w = variable_bracket(grid) ** (2.0 * alpha) if alpha != 0 else 1.0
    return accurate_sum(w * np.abs(phi_hat) ** 2) * grid.measure_weight


def profile_inner(phi_hat: np.ndarray, psi_hat: np.ndarray, grid: GridSpec,
                  alpha: float) -> complex:
    w = variable_bracket(grid) ** (2.0 * alpha) if alpha != 0 else 1.0
    terms = w * phi_hat * np.conj(psi_hat)
    return complex(
        accurate_sum(terms.real) * grid.measure_weight,
        accurate_sum(terms.imag) * grid.measure_weight,
    )


def _parts(size: int) -> list:
    """(start, stop) of the parts accurate_sum splits a flat array of this size into."""
    nparts = max(1, -(-size // _CHUNK))
    q, extra = divmod(size, nparts)
    starts = [i * q + min(i, extra) for i in range(nparts + 1)]
    return list(zip(starts[:-1], starts[1:]))


def _pieces(s: int, e: int, R: int) -> list:
    """Flat range [s, e) of an (R x R) matrix as (start, row, nrows, col, ncols)
    pieces: whole rows, or a run of columns within one row."""
    out = []
    while s < e:
        r, c = divmod(s, R)
        if c or e - s < R:
            w = min(R - c, e - s)
            out.append((s, r, 1, c, w))
            s += w
        else:
            nr = (e - s) // R
            out.append((s, r, nr, 0, R))
            s += nr * R
    return out


def _factorized_rows(lead: np.ndarray, phi_conj: np.ndarray, k: int, out: np.ndarray):
    """out[r] = lead[r] x conj(phi) x .. x conj(phi) (k factors), the rows of a
    factorized kernel's matrix multiplied in materialize()'s order."""
    rows = lead
    for _ in range(k - 1):
        rows = np.multiply.outer(rows, phi_conj).reshape(lead.size, -1)
    np.multiply.outer(rows, phi_conj, out=out.reshape(rows.shape + phi_conj.shape))


def _weighted_sq_total(a, b, alpha: float) -> float:
    """sum of |a - b|^2 (|a|^2 if b is None) times the bracket weights of all 2k
    variables; a and b are kernels of one level in any representation, not
    both factorized.

    One streamed reduction over exactly the parts accurate_sum would split the
    whole weighted array into.  Each part's difference goes into a buffer and
    gets np.abs, np.square and the 2k weights in variable order (unprimed ones
    per row, primed ones per column of the (unprimed x primed) matrix), then
    np.sum; the part sums are fsum'ed in order.  These are the whole-array
    formula's operations on the same values, so the total is bitwise its.  A
    factorized side is formed part by part (prefix product of phi, then the
    conj(phi) factors), and a low-rank side row slice by row slice (U[rows]
    times V^H); neither is materialized.
    """
    grid, k = a.grid, a.k
    R = grid.M ** (k * grid.n)
    weights = []
    if alpha != 0:
        wb = (variable_bracket(grid) ** (2.0 * alpha)).reshape(-1)
        m = wb.size
        weights = [np.tile(np.repeat(wb, m ** (k - 1 - j)), m ** j) for j in range(k)]

    def source(kern):
        """(kern, its flat data | prefix product P_k | (U, V^H))"""
        if isinstance(kern, FactorizedKernel):
            return kern, prefix_products(kern.phi_hat.reshape(-1), k)[k]
        if isinstance(kern, LowRankKernel):
            return kern, (kern.U, np.conj(kern.V.T))
        return kern, kern.data.reshape(-1)

    sides = [source(kern) for kern in (a, b) if kern is not None]
    parts = _parts(R * R)
    width = parts[0][1] - parts[0][0]
    # a buffer per side formed part by part
    formed = sum(not isinstance(kern, MarginalKernel) for kern, _ in sides)

    def rows_into(kern, src, r, nr, out):
        if isinstance(kern, FactorizedKernel):
            _factorized_rows(src[r:r + nr], np.conj(kern.phi_hat).reshape(-1), k, out)
        else:
            np.matmul(src[0][r:r + nr], src[1], out=out.reshape(nr, R))

    def entries(side, s, e, pieces, vals, row):
        kern, src = side
        if isinstance(kern, MarginalKernel):
            return src[s:e]
        for start, r, nr, c, w in pieces:
            dest = vals[start - s:start - s + nr * w]
            if w == R:
                rows_into(kern, src, r, nr, dest)
            else:
                rows_into(kern, src, r, 1, row)
                dest[:] = row[c:c + w]
        return vals[:e - s]

    def part_sum(part, buffers):
        (s, e), (vals, row, sq) = part, buffers
        pieces = _pieces(s, e, R)
        x = entries(sides[0], s, e, pieces, vals[0], row)
        if len(sides) > 1:
            x = np.subtract(x, entries(sides[1], s, e, pieces, vals[-1], row),
                            out=vals[0][:e - s])
        y = np.abs(x, out=sq[:e - s])
        np.square(y, out=y)
        for start, r, nr, c, w in pieces:
            block = y[start - s:start - s + nr * w].reshape(nr, w)
            for v in weights:
                block *= v[r:r + nr, None]
            for v in weights:
                block *= v[c:c + w]
        return float(np.sum(y))

    def scratch():
        vals = [np.empty(width, dtype=np.complex128) for _ in range(max(1, formed))]
        return vals, np.empty(R, dtype=np.complex128), np.empty(width)

    return math.fsum(blocks.map_items(part_sum, parts, R * R, scratch))


def sobolev_norm(kernel, alpha: float = 1.0) -> float:
    """H^alpha norm of a kernel in any representation."""
    if isinstance(kernel, FactorizedKernel):
        return profile_norm_sq(kernel.phi_hat, kernel.grid, alpha) ** kernel.k
    total = _weighted_sq_total(kernel, None, alpha)
    scale = kernel.grid.measure_weight ** (2 * kernel.k)
    return math.sqrt(total * scale)


def _lagrange_gap(phi: np.ndarray, delta: np.ndarray, w: np.ndarray) -> float:
    """<phi,phi><delta,delta> - |<phi,delta>|^2 with weights w, as the sum of
    squares 1/2 sum_ij w_i w_j |phi_i delta_j - phi_j delta_i|^2 (row blocks)."""
    w = np.broadcast_to(w, phi.shape).reshape(-1)
    phi, delta = phi.reshape(-1), delta.reshape(-1)
    rows = max(1, _CHUNK // phi.size)
    parts = []
    for s in range(0, phi.size, rows):
        block = np.outer(phi[s:s + rows], delta) - np.outer(delta[s:s + rows], phi)
        parts.append(accurate_sum(w[s:s + rows, None] * w * np.abs(block) ** 2))
    return 0.5 * math.fsum(parts)


def _factorized_diff_norm(a: FactorizedKernel, b: FactorizedKernel,
                          alpha: float) -> float:
    """||F(phi,k) - F(psi,k)|| without the cancellation of na^2k + nb^2k - 2|z|^2k.

    With na = ||phi||^2, nb = ||psi||^2, X = na nb and Y = |<phi,psi>|^2 the
    squared distance is (na^k - nb^k)^2 + 2 (X^k - Y^k).  Both differences
    are formed from phi - psi: na - nb = sum w Re((phi-psi) conj(phi+psi)),
    and X - Y by the Lagrange identity (phi_i psi_j - phi_j psi_i =
    phi_i d_j - phi_j d_i with d = psi - phi), then factored with
    x^k - y^k = (x - y) sum_i x^i y^(k-1-i).
    """
    k, grid = a.k, a.grid
    w = grid.measure_weight * (
        variable_bracket(grid) ** (2.0 * alpha) if alpha != 0 else 1.0
    )
    phi, psi = a.phi_hat, b.phi_hat
    na = profile_norm_sq(phi, grid, alpha)
    nb = profile_norm_sq(psi, grid, alpha)
    y = abs(profile_inner(phi, psi, grid, alpha)) ** 2
    x = na * nb
    dn = accurate_sum(w * ((phi - psi) * np.conj(phi + psi)).real)
    dxy = _lagrange_gap(phi, psi - phi, w)
    norms_gap = dn * math.fsum(na**i * nb**(k - 1 - i) for i in range(k))
    inner_gap = dxy * math.fsum(x**i * y**(k - 1 - i) for i in range(k))
    return math.sqrt(norms_gap**2 + 2.0 * inner_gap)


def level_diff_norm(a, b, alpha: float = 1.0) -> float:
    """||a - b||_{H^alpha} for any mix of representations."""
    if a is b:
        return 0.0
    if a.grid != b.grid or a.k != b.k:
        raise ValueError("kernels live on different grids or levels")
    if isinstance(a, FactorizedKernel) and isinstance(b, FactorizedKernel):
        if np.array_equal(a.phi_hat, b.phi_hat):
            return 0.0
        return _factorized_diff_norm(a, b, alpha)
    total = _weighted_sq_total(a, b, alpha)
    return math.sqrt(total * a.grid.measure_weight ** (2 * a.k))


def weighted_norm(seq: HierarchySequence, params: NormParams) -> float:
    """sum_k xi^k ||gamma^(k)||_{H^alpha} over the truncated hierarchy."""
    return math.fsum(
        params.xi**k * sobolev_norm(seq.level(k), params.alpha)
        for k in range(1, seq.K + 1)
    )


def weighted_distance(seq_a: HierarchySequence, seq_b: HierarchySequence,
                      params: NormParams) -> float:
    if seq_a.K != seq_b.K:
        raise ValueError("sequences truncated at different depths")
    return math.fsum(
        params.xi**k * level_diff_norm(seq_a.level(k), seq_b.level(k), params.alpha)
        for k in range(1, seq_a.K + 1)
    )
