"""Sobolev-type norms for marginal kernels and weighted hierarchy norms.

The level-k norm is

    ||gamma||_{H^alpha}^2 = sum_{p,p'} prod_j <p_j>^(2 alpha) <p'_j>^(2 alpha)
                            |gamma_hat(p;p')|^2 / L^(2kn)

with <p> = sqrt(1 + |p|^2), one factor 1/L^n of lattice measure per momentum
variable.  A factorized kernel never needs materializing:
||F(phi, k)||_{H^alpha} equals ||phi||_{H^alpha}^(2k), and differences of two
factorized kernels reduce to one-particle inner products.

The norm of a low-rank kernel U V^H is ||(D U)(D V)^H|| with D the
square root of the row weight, taken from a Householder QR of D U
(kernels.product_norm): a product of inner dimension r, never the
M^(kn) x M^(kn) matrix.  Every other norm or distance (dense, evolved,
low-rank or factorized sides) is one reduction over the row blocks of
blocks.rows of the (unprimed x primed) matrix: each side's rows
(kernels.matrix_rows: a view of dense data, an evolved kernel's phased
rows, or the product of low-rank or rank-one factors) are subtracted
entry by entry, and |a - b|^2 is weighted along rows and columns by the
weight of one variable group and summed per block; the block sums are
fsum'ed in row order.  No level-sized temporary is built, and the total
does not depend on the worker count.  The two sides' factors are never
concatenated and a low-rank side is never reduced through the r x r Gram
matrices of its factors: both cancel when two kernels are close.

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
    bracket_envelope,
    matrix_rows,
    product_norm,
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


def _streamed_norm(alpha: float, *pair) -> float:
    """||a - b||_{H^alpha} of a pair of level-k kernels in any representation,
    not both factorized, or ||a|| of one: the row-block reduction of the
    module docstring.  Per block, a side multiplied out or phased fills a
    complex buffer of its own, the difference goes into a complex buffer and
    |a - b|^2 into a real one, which is weighted in place and summed."""
    grid, k = pair[0].grid, pair[0].k
    R = grid.M ** (k * grid.n)
    w = bracket_envelope(grid, k, 2.0 * alpha).reshape(-1)

    sides = [matrix_rows(LowRankKernel.from_factorized(kern)
                         if isinstance(kern, FactorizedKernel) else kern) for kern in pair]
    # a complex buffer per side multiplied out, at least one for a difference
    ncomplex = max(sum(not isinstance(kern, MarginalKernel) for kern in pair),
                   len(sides) - 1)

    def block_sum(r, *bufs):
        *vals, sq = bufs
        x = sides[0](r, vals[0] if vals else None)
        if len(sides) > 1:
            x = np.subtract(x, sides[1](r, vals[-1]), out=vals[-1])
        y = np.abs(x, out=sq)
        np.square(y, out=y)
        y *= w[r, None]
        y *= w
        return float(np.sum(y))

    def scratch(shape):
        return (*(np.empty(shape, dtype=np.complex128) for _ in range(ncomplex)),
                np.empty(shape))

    # the column weights as a matrix view: blocks.rows cuts its rows
    total = math.fsum(blocks.rows(block_sum, np.broadcast_to(w, (R, R)), scratch))
    return math.sqrt(total * grid.measure_weight ** (2 * k))


def sobolev_norm(kernel, alpha: float = 1.0) -> float:
    """H^alpha norm of a kernel in any representation.  A low-rank kernel's
    is ||(D U)(D V)^H|| with D the square root of the row weight, taken by
    kernels.product_norm from the factors alone."""
    if isinstance(kernel, FactorizedKernel):
        return profile_norm_sq(kernel.phi_hat, kernel.grid, alpha) ** kernel.k
    if isinstance(kernel, LowRankKernel):
        grid, k = kernel.grid, kernel.k
        d = bracket_envelope(grid, k, alpha).reshape(-1, 1)
        return product_norm(d * kernel.U, d * kernel.V) * grid.measure_weight ** k
    return _streamed_norm(alpha, kernel)


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
    return _streamed_norm(alpha, a, b)


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
