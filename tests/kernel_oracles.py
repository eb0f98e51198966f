"""Reference kernel operations that only the tests use.

They check gphier's own operations against a definition (the group average,
a diagonal contraction), wrap a defect into a yes/no answer for dense
kernels, or compare two kernels bitwise in their own representation.
"""

from itertools import permutations
from math import factorial

import numpy as np

from gphier.kernels import (
    FactorizedKernel,
    LowRankKernel,
    MarginalKernel,
    _sigma_axes,
    hermiticity_defect,
    symmetry_defect,
)


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
    factorized kernel, both factors of a low-rank one, a dense one's data."""
    if type(a) is not type(b):
        return False
    if isinstance(a, FactorizedKernel):
        return np.array_equal(a.phi_hat, b.phi_hat)
    if isinstance(a, LowRankKernel):
        return np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)
    return np.array_equal(a.data, b.data)
