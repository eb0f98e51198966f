"""Duhamel expansion terms that only the tests use.

The convention trajectory (the Picard iteration's start), the expansion
terms Xi_j and the convention-start remainder R_m, each a level of the
solver's own sweep below a top level (gphier.solver._expansion).  The
partial sums of the terms plus the remainder reproduce each Picard iterate
to rounding, which the tests use as a cross-check of the whole pipeline.
"""

from gphier.kernels import HierarchySequence
from gphier.operators import free_evolve
from gphier.solver import FREE_TOP, SolverConfig, Trajectory, _expansion
from kernel_oracles import zeros


def convention_trajectory(gamma0: HierarchySequence, config: SolverConfig) -> Trajectory:
    """The iteration start: the initial sequence frozen at every node."""
    state = HierarchySequence(
        config.K, config.params.xi,
        tuple(gamma0.level(k) for k in range(1, config.K + 1)),
    )
    times = config.times()
    return Trajectory(times, [state] * len(times))


def duhamel_term(j: int, k: int, gamma0: HierarchySequence,
                 config: SolverConfig) -> list:
    """Trajectory of the j-th expansion term at level k.

    Xi_0 is the free evolution of gamma0^(k); Xi_j integrates the collapsed
    (j-1)-th term one level up.  The j=0 output keeps the representation of
    the initial data (possibly factorized); deeper terms are dense or low
    rank, as the solver stores them.
    """
    top = k + j * config.offset
    if j < 0 or top > config.K:
        raise ValueError(
            f"term (j={j}, k={k}) needs level {top} but truncation is K={config.K}"
        )
    term = [free_evolve(gamma0.level(top), t) for t in config.times()]
    return term if j == 0 else _expansion(gamma0.level(top), term, k, config)[k]


def duhamel_remainder(m: int, k: int, gamma0: HierarchySequence,
                      config: SolverConfig) -> list:
    """Convention-start remainder: iterate m minus the first m expansion terms.

    R_0 is the constant trajectory; R_m integrates R_{m-1} one level up and
    vanishes at closure levels from m=1 on, so R_m at level k is the chain
    below the constant start at level k + m*off, and zero when that level
    is beyond K.  Only meaningful for the free_top closure, where closure
    levels carry exactly the j=0 term.
    """
    if config.closure.kind != FREE_TOP:
        raise ValueError("remainder bookkeeping is defined for the free_top closure")
    if m < 0:
        raise ValueError(f"remainder index m={m} must be >= 0")
    top = k + m * config.offset
    if top > config.K:
        return [zeros(config.grid, k)] * (config.N_t + 1)
    start = [gamma0.level(top)] * (config.N_t + 1)
    return start if m == 0 else _expansion(gamma0.level(top), start, k, config)[k]
