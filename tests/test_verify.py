"""Tests for the standalone estimate checks."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from dataclasses import asdict

from gphier import blocks, verify as verify_module
from gphier.kernels import MarginalKernel, bracket_envelope, damp, random_test_kernel
from gphier.norms import sobolev_norm
from gphier.operators import (
    Interaction,
    collapse,
    collapse_b1,
    collapse_b2,
    cubic_collapse_profile,
    cubic_contractions,
)
from gphier.spectral import GridSpec, variable_bracket
from gphier.verify import (
    BinomialGrowthReport,
    binomial_growth_check,
    estimate_collapse_battery,
    estimate_collapse_constant,
    lemma31_cutoff_ladder,
    lemma31_divergence_check,
    lemma31_integral,
    lemma31_sup_check,
)
from kernel_oracles import permute_particles, random_test_kernel_whole, traced_peak

# Adaptive 2-d quadrature reference (scipy.integrate.dblquad, epsabs=1e-12)
# for beta=2, n=1, cutoff=4, frozen as the regression anchor.
DBLQUAD_B2_P0_L4 = 3.20002287849856
DBLQUAD_B2_P2_L4 = 10.728840993533387


def closed_form_b2_n1(p: float) -> float:
    """Full-space value of the beta=2, n=1 integral.

    Both inner integrals are Lorentzian convolutions with known closed
    forms, giving 3 pi^2 (1 + p^2) / (p^2 + 9).
    """
    return 3.0 * math.pi**2 * (1.0 + p * p) / (p * p + 9.0)


class TestIntegral:
    def test_matches_adaptive_quadrature_reference(self):
        val = lemma31_integral(2.0, 1, 0.0, 4.0, resolution=800)
        assert val == pytest.approx(DBLQUAD_B2_P0_L4, rel=1e-6)

    def test_reference_at_nonzero_p(self):
        val = lemma31_integral(2.0, 1, 2.0, 4.0, resolution=800)
        assert val == pytest.approx(DBLQUAD_B2_P2_L4, rel=1e-6)

    def test_matches_closed_form_at_large_cutoff(self):
        for p in (0.0, 1.0, 2.0):
            val = lemma31_integral(2.0, 1, p, 64.0, resolution=1024)
            assert val == pytest.approx(closed_form_b2_n1(p), rel=2e-4)

    def test_midpoint_refinement_is_second_order(self):
        errs = [
            abs(lemma31_integral(2.0, 1, 0.0, 4.0, resolution=res)
                - DBLQUAD_B2_P0_L4)
            for res in (100, 200, 400)
        ]
        assert errs[1] < errs[0] and errs[2] < errs[1]
        assert 3.0 < errs[0] / errs[1] < 5.0
        assert 3.0 < errs[1] / errs[2] < 5.0

    def test_monotone_decreasing_in_beta(self):
        vals = [
            lemma31_integral(beta, 1, 0.0, 8.0, resolution=200)
            for beta in (2.0, 2.5, 3.0)
        ]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_symmetry_under_p_negation(self):
        a = lemma31_integral(2.0, 1, 1.5, 8.0, resolution=160)
        b = lemma31_integral(2.0, 1, -1.5, 8.0, resolution=160)
        assert a == pytest.approx(b, rel=1e-12)

    def test_two_dimensional_case(self):
        val = lemma31_integral(3.0, 2, [0.0, 0.0], 4.0, resolution=40)
        assert np.isfinite(val) and val > 0.0
        a = lemma31_integral(3.0, 2, [1.0, 0.5], 4.0, resolution=32)
        b = lemma31_integral(3.0, 2, [-1.0, -0.5], 4.0, resolution=32)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("beta, n, p, cutoff, resolution", [
        (2.0, 1, 0, 32.0, 640), (3.0, 2, [1.0, 0.5], 4.0, 40),
    ])
    def test_budget_check_covers_the_traced_peak(self, monkeypatch, beta, n, p,
                                                  cutoff, resolution):
        # the bytes checked against the budget bound everything the
        # quadrature holds, not only its integrand grid
        checked = []
        monkeypatch.setattr(verify_module, "check_budget",
                            lambda nbytes, **kw: checked.append(nbytes))
        _, peak = traced_peak(
            lambda: lemma31_integral(beta, n, p, cutoff, resolution=resolution))
        assert len(checked) == 1
        assert peak <= checked[0]

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            lemma31_integral(2.0, 1, 0.0, -1.0)
        with pytest.raises(ValueError):
            lemma31_integral(2.0, 1, 0.0, 4.0, resolution=1)
        with pytest.raises(ValueError):
            lemma31_integral(2.0, 2, 0.0, 4.0)  # p has 1 component, n=2


class TestCutoffLadder:
    def test_convergent_case_stabilizes(self):
        vals = lemma31_cutoff_ladder(2.0, 1, 0.0)
        changes = [(b - a) / b for a, b in zip(vals, vals[1:])]
        assert vals == sorted(vals)
        assert changes[-1] < 0.05
        assert changes[0] > changes[1] > changes[2]

    def test_divergent_endpoint_flagged(self):
        rep = lemma31_divergence_check(1)
        assert rep.diverging
        assert all(r > 1.1 for r in rep.growth_ratios)
        assert rep.values == sorted(rep.values)
        assert json.dumps(asdict(rep))


class TestSupCheck:
    def test_flat_tail_for_admissible_beta(self):
        rep = lemma31_sup_check(2.0, 1, cutoff=32.0, resolution=640)
        assert rep.stable
        assert rep.tail_spread <= 0.10
        # closed-form supremum over all p is 3 pi^2
        assert rep.max_value < 3.0 * math.pi**2 * 1.01
        assert rep.integrals == sorted(rep.integrals)
        assert rep.p_values == [0.0, 1.0, 2.0, 4.0, 8.0, 16.0]

    def test_rejects_beta_at_or_below_n(self):
        with pytest.raises(ValueError):
            lemma31_sup_check(1.0, 1, cutoff=8.0)

    def test_report_round_trips_to_json(self):
        rep = lemma31_sup_check(2.0, 1, cutoff=8.0, resolution=80)
        blob = json.loads(json.dumps(asdict(rep)))
        assert blob["beta"] == 2.0 and len(blob["integrals"]) == 6


GRID = GridSpec(1, 2.0 * np.pi, 6)


def battery_rows_whole(alphas, grid, k_range, trials, seed) -> dict:
    """estimate_collapse_battery's rows per alpha, from the whole-array draw
    and whole-array reweighting; the full sum from the one collapse driver
    on the shared contractions."""
    draw_seeds = np.random.SeedSequence(seed).generate_state(len(k_range) * trials)
    rows = {a: [] for a in alphas}
    for ki, k in enumerate(k_range):
        full, term = {a: [] for a in alphas}, {a: [] for a in alphas}
        for trial in range(trials):
            base = random_test_kernel_whole(grid, k + 1, 0.0, int(draw_seeds[ki * trials + trial]))
            denom = sobolev_norm(base, 0.0)  # ||gamma||_{H^a} of every damped gamma below
            for a in alphas:
                half = bracket_envelope(grid, k + 1, -a)
                rows_half = half.reshape(half.shape + (1,) * half.ndim)
                gamma = MarginalKernel(grid, k + 1, base.data * rows_half * half)
                shared = cubic_contractions(gamma)
                term1, term2 = collapse_b1(1, gamma, shared), collapse_b2(1, gamma, shared)
                term[a] += [sobolev_norm(term1, a) / denom, sobolev_norm(term2, a) / denom]
                total = collapse(gamma, Interaction(), contractions=shared)
                full[a].append(sobolev_norm(total, a) / (k * denom))
        for a in alphas:
            rows[a].append({"k": k, "max_full_ratio": max(full[a]),
                            "mean_full_ratio": float(np.mean(full[a])),
                            "max_term_ratio": max(term[a])})
    return rows


class TestConstantEstimate:
    def test_deterministic_under_seed(self):
        a = estimate_collapse_constant(1.0, GRID, k_range=(1, 2), trials=4, seed=7)
        b = estimate_collapse_constant(1.0, GRID, k_range=(1, 2), trials=4, seed=7)
        assert a.c_hat == b.c_hat
        assert a.rows == b.rows

    def test_seed_changes_draws(self):
        a = estimate_collapse_constant(1.0, GRID, k_range=(1,), trials=4, seed=1)
        b = estimate_collapse_constant(1.0, GRID, k_range=(1,), trials=4, seed=2)
        assert a.c_hat != b.c_hat

    def test_ratios_finite_and_inflation_factor(self):
        est = estimate_collapse_constant(1.0, GRID, k_range=(1, 2), trials=5, seed=3)
        peak = 0.0
        for row in est.rows:
            assert np.isfinite(row["max_full_ratio"]) and row["max_full_ratio"] > 0
            assert np.isfinite(row["max_term_ratio"]) and row["max_term_ratio"] > 0
            assert row["mean_full_ratio"] <= row["max_full_ratio"] * (1 + 1e-12)
            peak = max(peak, row["max_full_ratio"], row["max_term_ratio"])
        assert est.c_hat == pytest.approx(1.5 * peak, rel=1e-12)
        assert est.k_spread >= 1.0
        assert json.dumps(asdict(est))

    @pytest.mark.parametrize("trials, k_range", [(0, (1,)), (-1, (1,)), (2, ()), (2, (0, 1)),
                                                 (2, (1, 1))])
    def test_battery_refuses_no_trials_and_no_ks(self, trials, k_range):
        # trials = 0 ended in an IndexError on the first draw; the others
        # in errors from numpy, max() or the collapse, and a repeated k in
        # two rows that each pooled both of its runs' draws
        with pytest.raises(ValueError,
                           match="the battery needs trials >= 1 and distinct ks >= 1"):
            estimate_collapse_battery((1.0,), GRID, k_range=k_range, trials=trials)

    def test_battery_matches_single_alpha_estimates(self):
        # the battery reweights one set of projected draws per alpha; each
        # entry must reproduce the standalone estimate bit for bit
        batch = estimate_collapse_battery(
            (0.6, 1.5), GRID, k_range=(1, 2), trials=4, seed=13
        )
        for alpha in (0.6, 1.5):
            single = estimate_collapse_constant(
                alpha, GRID, k_range=(1, 2), trials=4, seed=13
            )
            assert batch[alpha].c_hat == single.c_hat
            assert batch[alpha].rows == single.rows
            assert batch[alpha].k_spread == single.k_spread

    @pytest.mark.parametrize("workers", [1, 2])
    def test_battery_rows_match_whole_array_passes(self, monkeypatch, workers):
        monkeypatch.setattr(blocks, "WORKERS", workers)
        monkeypatch.setattr(blocks, "MIN_POOLED", 0)
        alphas = (0.6, 1.0, 2.0)
        est = estimate_collapse_battery(alphas, GRID, k_range=(1, 2, 3), trials=2, seed=17)
        want = battery_rows_whole(alphas, GRID, (1, 2, 3), 2, 17)
        for alpha in alphas:
            assert est[alpha].rows == want[alpha]

    def test_battery_holds_two_draws(self):
        # the measured draw and the next one (or a draw and its symmetrize
        # scratch), plus row groups and contractions; a reweighting buffer
        # beside them took about 3.1 level-3 kernels, and the whole-array
        # passes about six
        grid = GridSpec(1, 2.0 * np.pi, 8)
        _, peak = traced_peak(lambda: estimate_collapse_battery(
            (1.0,), grid, k_range=(2,), trials=2, seed=5))
        assert peak <= 2.8 * grid.kernel_bytes(3)

    def test_battery_row_groups_hold_a_sixteenth_at_m12(self, monkeypatch):
        # row groups of lcm(37, 12) = 444 rows, a quarter of the level per
        # run, took 2.72 level-3 kernels
        monkeypatch.setattr(blocks, "WORKERS", 2)
        grid = GridSpec(1, 2.0 * np.pi, 12)
        _, peak = traced_peak(lambda: estimate_collapse_battery(
            (0.6, 2.0), grid, k_range=(2,), trials=3, seed=5))
        assert peak <= 2.5 * grid.kernel_bytes(3)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n, M, k", [(1, 8, 2), (1, 10, 2), (1, 12, 2), (2, 4, 1)])
    def test_battery_budget_check_covers_the_traced_peak(self, monkeypatch, workers,
                                                         n, M, k):
        # the bytes checked once per k bound everything the battery holds,
        # not only the one draw that random_draw checks
        monkeypatch.setattr(blocks, "WORKERS", workers)
        monkeypatch.setattr(blocks, "MIN_POOLED", 0)
        checked = []
        monkeypatch.setattr(verify_module, "check_budget",
                            lambda nbytes, *args, **kw: checked.append(nbytes))
        grid = GridSpec(n, 2.0 * np.pi, M)
        _, peak = traced_peak(lambda: estimate_collapse_battery(
            (0.6, 2.0), grid, k_range=(k,), trials=3, seed=5))
        assert len(checked) == 1
        assert peak <= checked[0]

    @pytest.mark.parametrize("M", [10, 12])
    def test_battery_budget_check_covers_a_fresh_process(self, M):
        # the first battery of a process imports numpy.random (0.75 MB);
        # the in-process tests run after earlier tests have imported it
        src, tests = (Path(__file__).resolve().parents[1] / d for d in ("src", "tests"))
        code = ("import numpy as np\n"
                "from gphier import blocks, verify\n"
                "from gphier.spectral import GridSpec\n"
                "from kernel_oracles import traced_peak\n"
                "blocks.WORKERS = 2\n"
                "checked = []\n"
                "verify.check_budget = lambda nbytes, *a, **kw: checked.append(nbytes)\n"
                f"grid = GridSpec(1, 2 * np.pi, {M})\n"
                "_, peak = traced_peak(lambda: verify.estimate_collapse_battery(\n"
                "    (0.6, 2.0), grid, k_range=(2,), trials=3, seed=5))\n"
                "print(peak, *checked)")
        path = os.pathsep.join(filter(None, [str(src), str(tests), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, check=True)
        peak, checked = map(int, proc.stdout.split())
        assert peak <= checked

    def test_battery_waits_for_the_draw_ahead_when_it_raises(self, monkeypatch):
        # a measurement that raises leaves no draw running on the pool
        monkeypatch.setattr(blocks, "WORKERS", 2)
        monkeypatch.setattr(blocks, "MIN_POOLED", 0)
        made, original = [], verify_module.random_draw

        def slow_draw(*args):
            time.sleep(0.2)
            made.append(original(*args))
            return made[-1]

        def failing(*args, **kwargs):
            raise RuntimeError("measurement failed")

        monkeypatch.setattr(verify_module, "random_draw", slow_draw)
        monkeypatch.setattr(verify_module, "collapse_b1", failing)
        with pytest.raises(RuntimeError, match="measurement failed"):
            estimate_collapse_battery((1.0,), GRID, k_range=(2,), trials=3, seed=5)
        assert len(made) == 2  # the first draw, and the one made ahead

    @pytest.mark.parametrize("a", [0.6, 1.0, 2.0])
    @pytest.mark.parametrize("n, M, kp", [(1, 6, 2), (1, 6, 3), (1, 8, 2), (1, 8, 3),
                                          (1, 16, 2), (1, 16, 3), (2, 4, 2)])
    def test_damped_norm_is_the_l2_norm(self, n, M, kp, a):
        # <p>^(2a) <p>^(-2a) = 1: the battery's one denominator per draw
        grid = GridSpec(n, 2.0 * np.pi, M)
        g = random_test_kernel(grid, kp, alpha=0.0, seed=M + kp)
        want = sobolev_norm(g, 0.0)
        damp(g.data, bracket_envelope(grid, kp, -a), g.data)  # in place: one level at M=16
        assert sobolev_norm(g, a) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("k,seed", [(2, 21), (3, 22)])
    def test_exchange_assembly_matches_direct_collapse(self, k, seed):
        # the estimator contracts only the j=1 pair and rebuilds the full
        # sum by particle exchange; that shortcut must agree with the
        # straight collapse sum on a symmetric draw
        gamma = random_test_kernel(GRID, k + 1, alpha=1.0, seed=seed)
        direct = collapse(gamma, Interaction())
        diff = collapse_b1(1, gamma).data - collapse_b2(1, gamma).data
        total = diff.copy()
        for j in range(1, k):
            swap = list(range(k))
            swap[0], swap[j] = swap[j], swap[0]
            total += permute_particles(MarginalKernel(GRID, k, diff), swap).data
        np.testing.assert_allclose(total, direct.data, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("M,k,seed", [(8, 1, 23), (8, 2, 24), (6, 3, 25)])
    def test_battery_full_sum_matches_exchange_assembly(self, M, k, seed):
        # the battery takes the full sum from the collapse driver on the
        # shared contractions; on an exchange-symmetric draw it is the j=1
        # pair plus its k-1 particle-swapped copies, to rounding
        grid = GridSpec(1, 2.0 * np.pi, M)
        gamma = random_test_kernel(grid, k + 1, alpha=1.0, seed=seed)
        shared = cubic_contractions(gamma)
        driver = collapse(gamma, Interaction(), contractions=shared)
        diff = MarginalKernel(
            grid, k, collapse_b1(1, gamma, shared).data - collapse_b2(1, gamma, shared).data)
        total = diff.data.copy()
        for j in range(1, k):
            swap = list(range(k))
            swap[0], swap[j] = swap[j], swap[0]
            total += permute_particles(diff, swap).data
        scale = np.abs(total).max()
        assert np.abs(driver.data - total).max() <= 1e-14 * scale
        assert sobolev_norm(driver, 1.0) == pytest.approx(
            sobolev_norm(MarginalKernel(grid, k, total), 1.0), rel=1e-14)

    def test_factorized_level_one_closed_form(self):
        # For a product kernel the full collapse sum has an explicit
        # rank-two form built from the cubic profile; the generic dense
        # path must reproduce its Sobolev ratio.
        grid = GridSpec(1, 2.0 * np.pi, 16)
        alpha = 1.0
        rng = np.random.default_rng(11)
        decay = variable_bracket(grid) ** (-2.0)
        phi = (rng.standard_normal(grid.M) + 1j * rng.standard_normal(grid.M)) * decay

        pair = np.multiply.outer(np.outer(phi, np.conj(phi)),
                                 np.outer(phi, np.conj(phi)))
        gamma2 = pair.transpose(0, 2, 1, 3)  # axes (p1, p2, p1', p2')
        dense = MarginalKernel(grid, 2, np.ascontiguousarray(gamma2))
        generic = sobolev_norm(collapse(dense, Interaction()), alpha)

        h = cubic_collapse_profile(phi, grid)
        diff = np.outer(h, np.conj(phi)) - np.outer(phi, np.conj(h))
        w = variable_bracket(grid) ** (2.0 * alpha)
        closed = math.sqrt(
            float(np.sum(w[:, None] * w[None, :] * np.abs(diff) ** 2))
            * grid.measure_weight**2
        )
        assert generic == pytest.approx(closed, rel=1e-10)


class TestBinomialGrowth:
    def test_small_cases_exact(self):
        rep = binomial_growth_check(range(1, 6))
        assert rep.rows[0]["binomial"] == 1
        assert rep.rows[0]["ratio"] == pytest.approx(0.25, rel=1e-15)
        assert rep.rows[1]["binomial"] == 3
        assert rep.rows[1]["ratio"] == pytest.approx(3.0 * math.sqrt(2) / 16.0,
                                                     rel=1e-14)

    def test_damped_coefficient_decays(self):
        rep = binomial_growth_check(range(5, 26))
        assert isinstance(rep, BinomialGrowthReport)
        assert rep.decaying
        by_m = {r["m"]: r["damped"] for r in rep.rows}
        assert by_m[20] < by_m[10]

    def test_ratio_tail_flat_and_near_limit(self):
        rep = binomial_growth_check(range(1, 26))
        assert rep.ratio_tail_spread < 0.10
        # Stirling limit of C(2m-1, m) / (4^m / sqrt(m)) is 1/(2 sqrt(pi))
        assert rep.rows[-1]["ratio"] == pytest.approx(0.5 / math.sqrt(math.pi),
                                                      rel=0.05)
        assert json.dumps(asdict(rep))
