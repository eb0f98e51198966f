"""Standalone estimate checks: the convolution-type integral inequality,
the empirical collapse-operator constant, and the binomial growth rate.

The integral

    I(p) = iint_{|q|,|q'| <= Lambda} <p>^beta / (<p+q'-q>^beta <q>^beta <q'>^beta) dq dq'

is finite uniformly in p exactly when beta > n; the checks here evaluate it
by midpoint quadrature on a continuum lattice (independent of the torus
grid), walk a cutoff-doubling ladder to separate convergence from
logarithmic divergence at beta = n, and scan a |p| ladder for the sup claim.

The operator-norm constant C of ||B gamma|| <= C k ||gamma|| is estimated by
random sampling and inflated by 1.5; random draws undersample the extremal
direction, and the downstream theorem checks only need some valid constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import MarginalKernel, bracket_envelope, check_budget, damp, random_test_kernel
from .norms import sobolev_norm
from .operators import Interaction, collapse, collapse_b1, collapse_b2, cubic_contractions
from .spectral import GridSpec


def _bracket_sq(x: np.ndarray) -> np.ndarray:
    return 1.0 + x


# the cutoff ladder: cutoffs doubling at a fixed number of cells per unit
CUTOFFS = (4.0, 8.0, 16.0, 32.0)
POINTS_PER_UNIT = 8.0
GROWTH_THRESHOLD = 1.1  # every ladder ratio above it flags divergence
# the sup scan: |p| probes, and the trailing rungs whose spread judges it
P_VALUES = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)
TAIL = 2
SPREAD_TOL = 0.10
GROWTH_TAIL = 5  # the trailing rows whose ratio spread binomial_growth_check reports


def lemma31_integral(beta: float, n: int, p, cutoff: float,
                     resolution: int = 200) -> float:
    """Midpoint quadrature of I(p) over [-cutoff, cutoff]^(2n).

    p is a length-n momentum point (a scalar is promoted for n=1);
    resolution counts midpoint cells per axis.  The integrand is built in
    place in one resolution^(2n) float64 array.  Before it is built, the
    memory budget (kernels.check_budget) is checked against that array, the
    shift sum over n-1 axes, eight resolution^n axis arrays and 256 kB of
    numpy's iterator buffers: all that the quadrature holds.
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if resolution < 2:
        raise ValueError("resolution too coarse")
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if p.shape != (n,):
        raise ValueError(f"p must have {n} components")
    check_budget(8 * (resolution ** (2 * n) + resolution ** (2 * n - 2) + 8 * resolution ** n)
                 + 2**18, what=f"a {resolution}^{2 * n} quadrature grid")
    h = 2.0 * cutoff / resolution
    mids = -cutoff + h * (np.arange(resolution) + 0.5)

    def axis_shape(axis):
        shape = [1] * (2 * n)
        shape[axis] = resolution
        return shape

    qsq = np.zeros((1,) * (2 * n))
    qpsq = np.zeros((1,) * (2 * n))
    shiftsq = 0.0
    m2 = mids**2
    for a in range(n):
        qsq = qsq + m2.reshape(axis_shape(a))
        qpsq = qpsq + m2.reshape(axis_shape(n + a))
        diff = p[a] + mids[None, :] - mids[:, None]
        diff **= 2
        shape = [1] * (2 * n)
        shape[a] = resolution
        shape[n + a] = resolution
        # 0.0 + x is x, so the first term is taken as it is
        shiftsq = diff.reshape(shape) if a == 0 else shiftsq + diff.reshape(shape)

    e = beta / 2.0
    shiftsq += 1.0
    shiftsq **= e
    shiftsq *= _bracket_sq(qsq) ** e
    shiftsq *= _bracket_sq(qpsq) ** e
    integrand = np.divide(_bracket_sq(float(p @ p)) ** e, shiftsq, out=shiftsq)
    return float(integrand.sum()) * h ** (2 * n)


def _ladder_resolution(cutoff: float) -> int:
    """Cells per axis at the ladder's fixed cell size."""
    return max(4, int(math.ceil(2.0 * cutoff * POINTS_PER_UNIT)))


def lemma31_cutoff_ladder(beta: float, n: int, p) -> list:
    """I(p) along the CUTOFFS at fixed cell size (so values are nested)."""
    return [lemma31_integral(beta, n, p, lam, resolution=_ladder_resolution(lam))
            for lam in CUTOFFS]


@dataclass
class DivergenceReport:
    beta: float
    n: int
    cutoffs: list
    values: list
    growth_ratios: list
    diverging: bool


def lemma31_divergence_check(n: int) -> DivergenceReport:
    """Failure of the inequality at the endpoint beta = n.

    The unbounded quantity is the sup over p, not any single I(p): at fixed
    p the truncated integral creeps toward a finite value, while the value
    at the resonant momentum p = cutoff/2 (kept inside the box as the box
    grows) increases without bound.  The check walks the cutoff-doubling
    ladder at that moving probe and flags divergence when every successive
    ratio exceeds GROWTH_THRESHOLD.
    """
    values = []
    for lam in CUTOFFS:
        probe = np.zeros(n)
        probe[0] = 0.5 * lam
        values.append(lemma31_integral(float(n), n, probe, lam,
                                       resolution=_ladder_resolution(lam)))
    ratios = [b / a for a, b in zip(values, values[1:])]
    return DivergenceReport(
        beta=float(n), n=n, cutoffs=list(CUTOFFS), values=values,
        growth_ratios=ratios,
        diverging=all(r > GROWTH_THRESHOLD for r in ratios),
    )


@dataclass
class SupCheckReport:
    beta: float
    n: int
    cutoff: float
    p_values: list
    integrals: list
    max_value: float
    tail_spread: float
    stable: bool


def lemma31_sup_check(beta: float, n: int, cutoff: float,
                      resolution: int = 200) -> SupCheckReport:
    """Uniform-in-p boundedness scan along the |p| ladder P_VALUES (first axis).

    The ladder value I(p) increases toward its supremum, so stabilization
    is judged on the TAIL trailing rungs, stable when their spread is at
    most SPREAD_TOL; the cutoff must sit well above the largest probe or
    box clipping fakes a decay.
    """
    if beta <= n:
        raise ValueError("the sup claim needs beta > n")
    vals = []
    for mag in P_VALUES:
        point = np.zeros(n)
        point[0] = mag
        vals.append(lemma31_integral(beta, n, point, cutoff, resolution))
    tail_vals = vals[-TAIL:]
    spread = (max(tail_vals) - min(tail_vals)) / max(tail_vals)
    return SupCheckReport(
        beta=beta, n=n, cutoff=cutoff, p_values=list(P_VALUES), integrals=vals,
        max_value=max(vals), tail_spread=spread, stable=spread <= SPREAD_TOL,
    )


# -- collapse-constant estimation ---------------------------------------------------

@dataclass
class ConstantEstimate:
    alpha: float
    c_hat: float
    rows: list
    k_spread: float
    flat_in_k: bool
    trials: int
    seed: int


SAFETY_FACTOR = 1.5


def estimate_collapse_battery(alphas, grid: GridSpec, k_range=(1, 2, 3),
                              trials: int = 50, seed: int = 0,
                              budget=None) -> dict:
    """Constant estimates for several alpha values sharing one set of draws.

    The sampled kernels differ across alpha only through the per-variable
    bracket damping, and that multiplier commutes with the hermitize and
    symmetrize projections.  Each base kernel is therefore drawn (and
    projected) once and reweighted per alpha into one buffer (kernels.damp);
    the draw is released before the next one is made, so
    at most three level-sized arrays are held (a draw, its symmetrize
    scratch, the buffer).  The draws are where nearly all of the estimation
    time goes for k = 3.  One contraction pass per reweighted draw serves
    the j=1 pair of terms and the full collapse.  Entries agree with
    single-alpha estimates up to floating-point reassociation.
    """
    alphas = tuple(alphas)
    k_range = tuple(k_range)
    draw_seeds = np.random.SeedSequence(seed).generate_state(
        len(k_range) * trials
    )
    acc = {a: {k: {"full": [], "term": []} for k in k_range} for a in alphas}
    for ki, k in enumerate(k_range):
        halves = {a: bracket_envelope(grid, k + 1, -a) for a in alphas}
        data = None  # reweighting buffer, allocated once the first draw passed its budget check
        for trial in range(trials):
            base = random_test_kernel(
                grid, k + 1, alpha=0.0,
                seed=int(draw_seeds[ki * trials + trial]),
                budget=budget,
            ).data
            if data is None:
                data = np.empty_like(base)
            for a in alphas:
                damp(base, halves[a], data)
                gamma = MarginalKernel(grid, k + 1, data)
                denom = sobolev_norm(gamma, a)
                if denom == 0.0:
                    continue
                shared = cubic_contractions(gamma)
                term1 = collapse_b1(1, gamma, shared)
                term2 = collapse_b2(1, gamma, shared)
                full = collapse(gamma, Interaction(), contractions=shared)
                del shared
                acc[a][k]["term"].append(sobolev_norm(term1, a) / denom)
                acc[a][k]["term"].append(sobolev_norm(term2, a) / denom)
                acc[a][k]["full"].append(sobolev_norm(full, a) / (k * denom))
            del base  # free this draw before the next one is made
    out = {}
    for a in alphas:
        rows = []
        overall = 0.0
        for k in k_range:
            row = {
                "k": k,
                "max_full_ratio": max(acc[a][k]["full"]),
                "mean_full_ratio": float(np.mean(acc[a][k]["full"])),
                "max_term_ratio": max(acc[a][k]["term"]),
            }
            rows.append(row)
            overall = max(overall, row["max_full_ratio"], row["max_term_ratio"])
        term_maxima = [r["max_term_ratio"] for r in rows]
        k_spread = max(term_maxima) / min(term_maxima)
        out[a] = ConstantEstimate(
            alpha=a,
            c_hat=SAFETY_FACTOR * overall,
            rows=rows,
            k_spread=k_spread,
            flat_in_k=k_spread < 2.0,
            trials=trials,
            seed=seed,
        )
    return out


def estimate_collapse_constant(alpha: float, grid: GridSpec, k_range=(1, 2, 3),
                               trials: int = 50, seed: int = 0,
                               budget=None) -> ConstantEstimate:
    """Empirical constant for ||B gamma^(k+1)|| <= C k ||gamma^(k+1)||.

    Samples symmetric hermitian kernels with H^alpha-type spectral decay,
    records the full-sum ratio ||B gamma||/(k ||gamma||) and the per-term
    ratios ||b_{1,2;j} gamma||/||gamma||, and returns 1.5x the largest
    observation together with a per-k table.  Because the draws are
    exchange symmetric, every j term is an output-block permutation of the
    j=1 term, so only that pair's per-term ratios are recorded.
    """
    return estimate_collapse_battery(
        (alpha,), grid, k_range, trials, seed, budget
    )[alpha]


# -- binomial growth ------------------------------------------------------------------

@dataclass
class BinomialGrowthReport:
    rows: list
    decaying: bool
    ratio_tail_spread: float


def binomial_growth_check(m_range=range(1, 26)) -> BinomialGrowthReport:
    """Exact central-binomial decay C(2m-1, m) 4^(-m) -> 0 like 1/sqrt(m).

    The ratio of C(2m-1, m) to 4^m/sqrt(m) tends to a constant, so the
    damped coefficient is summable; exact integer arithmetic throughout.
    """
    rows = []
    for m in m_range:
        c = math.comb(2 * m - 1, m)
        damped = c / 4.0**m
        ratio = c / (4.0**m / math.sqrt(m))
        rows.append({"m": m, "binomial": c, "damped": damped, "ratio": ratio})
    damped_vals = [r["damped"] for r in rows]
    decaying = all(b < a for a, b in zip(damped_vals, damped_vals[1:]))
    tail_ratios = [r["ratio"] for r in rows[-GROWTH_TAIL:]]
    spread = (max(tail_ratios) - min(tail_ratios)) / max(tail_ratios)
    return BinomialGrowthReport(rows=rows, decaying=decaying,
                                ratio_tail_spread=spread)
