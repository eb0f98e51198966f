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
A sample is gamma = D_alpha g, a random kernel g damped by <p>^-alpha on
every variable, so ||gamma||_{H^alpha} = ||g||_{L^2}: one norm per draw
serves every alpha.  gamma itself is never built: operators.cubic_contractions
damps each row group of g as it traces it, in the trace pass that every
dense collapse takes.
"""

from __future__ import annotations

import math
from concurrent import futures
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import blocks
# the battery draws through random_draw; random_test_kernel stays bound for perfbench/spans.py
from .kernels import (bracket_envelope, check_budget, project_draw, random_draw,
                      random_test_kernel)
from .norms import sobolev_norm
from .operators import (Interaction, collapse, collapse_b1, collapse_b2, contraction_bytes,
                        cubic_contractions)
from .spectral import GridSpec, axis_sum


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

    psq = axis_sum([mids**2] * n)
    qsq, qpsq = psq.reshape(psq.shape + (1,) * n), psq.reshape((1,) * n + psq.shape)
    shiftsq = 0.0
    for a in range(n):
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


def _battery_bytes(grid: GridSpec, kp: int) -> int:
    """What the battery holds at most for level-kp draws: the draw being
    measured and the next one, the contractions of the damped draw with
    its row-group buffer (contraction_bytes), the three collapse outputs,
    a streamed norm's block buffer with 256 kB of numpy's iterator buffers,
    and 1 MiB for numpy.random, which numpy imports on the first draw of
    a process (0.75 MB traced with numpy 2.4)."""
    return (2 * grid.kernel_bytes(kp) + contraction_bytes(grid, kp, 1, copied=True)
            + 3 * grid.kernel_bytes(kp - 1) + 8 * blocks.BLOCK + 2**18 + 2**20)


def estimate_collapse_battery(alphas, grid: GridSpec, k_range=(1, 2, 3),
                              trials: int = 50, seed: int = 0,
                              budget=None) -> dict:
    """Constant estimates for several alpha values sharing one set of draws.

    The sampled kernels D_alpha g differ across alpha only through the
    bracket damping D_alpha (<p>^-alpha on every variable), which commutes
    with the hermitize and symmetrize projections, so each base kernel g is
    drawn (and projected) once.  The denominator ||D_alpha g||_{H^alpha} is
    ||g||_{L^2} for every alpha, one norm per draw; a draw of norm 0 is
    skipped.  Each alpha takes the contractions of D_alpha g in one pass
    over the projected draw (operators.cubic_contractions with the
    envelope: the row-group trace pass of every dense collapse, each
    group damped into the group buffer), which never builds the damped
    kernel; they serve the j=1 pair of terms and the full collapse.
    While a draw is measured, the next one is made ahead on the block pool
    (blocks.ahead; unprojected, so one array), and it is projected only
    after the measured draw is released: at most two level-sized arrays
    are held.  Once per k, before the first draw, that footprint
    (_battery_bytes) is checked against the budget.  The draws are where
    most of the estimation time goes for k = 3.  Entries equal the
    single-alpha estimates bit for bit.  The ks must be distinct: rows of
    a repeated k would pool its draws.
    """
    alphas = tuple(alphas)
    k_range = tuple(k_range)
    if trials < 1 or not k_range or min(k_range) < 1 or len(set(k_range)) < len(k_range):
        raise ValueError(f"the battery needs trials >= 1 and distinct ks >= 1, got {trials} "
                         f"trials and k_range {k_range}")
    draw_seeds = np.random.SeedSequence(seed).generate_state(
        len(k_range) * trials
    )
    acc = {a: {k: {"full": [], "term": []} for k in k_range} for a in alphas}
    for ki, k in enumerate(k_range):
        check_budget(_battery_bytes(grid, k + 1), budget,
                     what=f"the k={k} collapse-constant battery")
        halves = {a: bracket_envelope(grid, k + 1, -a) for a in alphas}

        def draw(trial):
            return random_draw(grid, k + 1, 0.0, int(draw_seeds[ki * trials + trial]), budget)

        drawn = draw(0)  # the first draw is made on the caller
        for trial in range(trials):
            gamma = project_draw(drawn)
            del drawn
            more = trial + 1 < trials
            ahead = blocks.ahead(partial(draw, trial + 1), gamma.data.size) if more else None
            try:
                denom = sobolev_norm(gamma, 0.0)  # ||D_a g||_{H^a} for every alpha a
                for a in (alphas if denom != 0.0 else ()):
                    shared = cubic_contractions(gamma, halves[a])
                    term1 = collapse_b1(1, gamma, shared)
                    term2 = collapse_b2(1, gamma, shared)
                    full = collapse(gamma, Interaction(), contractions=shared)
                    del shared
                    acc[a][k]["term"].append(sobolev_norm(term1, a) / denom)
                    acc[a][k]["term"].append(sobolev_norm(term2, a) / denom)
                    acc[a][k]["full"].append(sobolev_norm(full, a) / (k * denom))
            except BaseException:
                if ahead is not None:
                    futures.wait([ahead])
                raise
            del gamma  # release this draw before the next one is projected
            if more:
                drawn = draw(trial + 1) if ahead is None else ahead.result()
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
