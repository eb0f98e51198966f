"""Reference kernel operations that only the tests use.

They check gphier's own operations against a definition (the group average,
a diagonal contraction, the adjoint as a transposed view, a particle
permutation), pin the in-place projections to their whole-array forms,
build dense test kernels (zeros, a materialized product state), wrap a
defect into a yes/no answer for dense kernels, take a low-rank node's
defects from its own factors, compare two kernels bitwise in their own
representation, or measure a call's traced allocation peak.
"""

import math
import tracemalloc
from itertools import permutations
from math import factorial

import numpy as np

from gphier.kernels import (
    EvolvedKernel,
    FactorizedKernel,
    LowRankKernel,
    MarginalKernel,
    _sigma_axes,
    bracket_envelope,
    hermiticity_defect,
    product_norm,
    symmetry_defect,
)


def zeros(grid, k: int) -> MarginalKernel:
    """The dense zero k-particle kernel."""
    return MarginalKernel(grid, k, np.zeros(grid.kernel_shape(k), dtype=np.complex128))


def factorized(phi, grid, k: int, budget=None) -> MarginalKernel:
    """Dense factorized kernel built from a one-particle position profile."""
    return FactorizedKernel.from_position(phi, grid, k).materialize(budget)


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


def copied(kernel: MarginalKernel) -> MarginalKernel:
    """A dense kernel over a copy of kernel's array: hermitize and
    symmetrize overwrite their argument's."""
    return MarginalKernel(kernel.grid, kernel.k, kernel.data.copy())


def adjoint(kernel: MarginalKernel) -> MarginalKernel:
    """Hermitian adjoint: conj and swap of the unprimed/primed variable groups."""
    half = kernel.k * kernel.grid.n
    axes = list(range(half, 2 * half)) + list(range(half))
    return MarginalKernel(kernel.grid, kernel.k, np.conj(kernel.data.transpose(axes)))


def hermitize_whole(kernel: MarginalKernel) -> MarginalKernel:
    """(conj(x^T) + x) * 0.5 in whole-array passes, out of place."""
    data = adjoint(kernel).data
    data += kernel.data
    data *= 0.5
    return MarginalKernel(kernel.grid, kernel.k, data)


def symmetrize_whole(kernel: MarginalKernel) -> MarginalKernel:
    """The coset recursion in whole-array passes, a new array per step."""
    k, n = kernel.k, kernel.grid.n
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


def random_test_kernel_whole(grid, k: int, alpha: float, seed: int, s: float = 1.0):
    """random_test_kernel's draw, damped, hermitized and symmetrized in
    whole-array passes."""
    rng = np.random.default_rng(seed)
    shape = grid.kernel_shape(k)
    data = rng.standard_normal(shape + (2,)).view(np.complex128).reshape(shape)
    half = bracket_envelope(grid, k, -(alpha + s))
    data *= half.reshape(half.shape + (1,) * (k * grid.n))
    data *= half
    return symmetrize_whole(hermitize_whole(MarginalKernel(grid, k, data)))


def traced_peak(fn):
    """(fn(), the tracemalloc peak above the memory traced before the call)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def symmetrize_bruteforce(kernel: MarginalKernel) -> MarginalKernel:
    """Straight group average, for cross-checking symmetrize on small k."""
    k, n = kernel.k, kernel.grid.n
    acc = np.zeros_like(kernel.data)
    for sigma in permutations(range(k)):
        acc += kernel.data.transpose(_sigma_axes(sigma, k, n))
    return MarginalKernel(kernel.grid, kernel.k, acc / factorial(k))


def is_symmetric(kernel: MarginalKernel, tol: float = 1e-10) -> bool:
    return symmetry_defect(kernel) <= tol


def is_hermitian(kernel: MarginalKernel, tol: float = 1e-10) -> bool:
    return hermiticity_defect(kernel) <= tol


def low_rank_node_defects(kernel: LowRankKernel) -> tuple:
    """(hermiticity, symmetry) defects of one low-rank node U V^H, each from
    a thin QR of the node's own factors (product_norm): the scale
    ||U V^H||, gamma - gamma^* = [U, V] [V, -U]^H, and per swap Theta of
    particles 0 and i the two orthogonal halves (U + Theta U)(V - Theta
    V)^H and (U - Theta U)(V + Theta V)^H of 2 (gamma - Theta gamma
    Theta)."""
    U, V = kernel.U, kernel.V
    k, n, M = kernel.k, kernel.grid.n, kernel.grid.M
    scale = product_norm(U, V)
    if scale == 0.0:
        return 0.0, 0.0
    herm = product_norm(np.hstack([U, V]), np.hstack([V, -U])) / scale
    symm = 0.0
    for i in range(1, k):
        sigma = list(range(k))
        sigma[0], sigma[i] = sigma[i], sigma[0]
        axes = _sigma_axes(sigma, k, n)[:k * n] + [k * n]

        def swapped(factor):
            return factor.reshape((M,) * (k * n) + (-1,)).transpose(axes).reshape(factor.shape)

        su, sv = swapped(U), swapped(V)
        total = product_norm(U + su, V - sv) ** 2 + product_norm(U - su, V + sv) ** 2
        symm = max(symm, math.sqrt(total) / (2.0 * scale))
    return herm, symm


def partial_trace_last(kernel):
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


def bitwise_equal(a, b) -> bool:
    """Same representation and bitwise the same arrays: the profile of a
    factorized kernel, both factors of a low-rank one, a dense one's data,
    an evolved one's time and base."""
    if type(a) is not type(b):
        return False
    if isinstance(a, EvolvedKernel):
        return a.t == b.t and bitwise_equal(a.base, b.base)
    if isinstance(a, FactorizedKernel):
        return np.array_equal(a.phi_hat, b.phi_hat)
    if isinstance(a, LowRankKernel):
        return np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)
    return np.array_equal(a.data, b.data)
