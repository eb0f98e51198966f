"""Picard solver: quadrature oracles, expansion bookkeeping, bound checks."""

import json
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from dataclasses import asdict

from gphier import blocks
from gphier.kernels import (
    EvolvedKernel,
    FactorizedKernel,
    HierarchySequence,
    LowRankKernel,
    MarginalKernel,
    ResourceBudgetError,
    _hermiticity_defects,
    _symmetry_defects,
    as_dense,
    factorized_sequence as product_sequence,
    hermiticity_defect,
    kernel_budget,
    random_test_kernel,
    symmetry_defect,
)
from gphier import solver as solver_module
from gphier.norms import (
    NormParams,
    level_diff_norm,
    sobolev_norm,
    weighted_distance,
    weighted_norm,
)
from gphier.operators import Interaction, apply_btilde, free_evolve
from gphier.solver import (
    ClosureRule,
    SolverConfig,
    Trajectory,
    _PrefixIntegrator,
    apriori_bound_check,
    contraction_factor_check,
    duhamel_bound_rows,
    picard_step,
    plan,
    solve,
)
from gphier.spectral import GridSpec, inverse_transform
from expansion_oracles import convention_trajectory, duhamel_remainder, duhamel_term
from kernel_oracles import bitwise_equal, low_rank_node_defects, traced_peak, zeros

GRID = GridSpec(n=1, L=2 * np.pi, M=6)
PARAMS = NormParams(alpha=1.0, xi=0.5)


def band_profile(grid, seed, band=1):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(grid.M) + 1j * rng.standard_normal(grid.M)
    phi[np.abs(grid.modes) > band] = 0.0
    return phi


def factorized_sequence(grid, K, seed, xi=0.5):
    phi = band_profile(grid, seed)
    return HierarchySequence(
        K, xi, tuple(FactorizedKernel(grid, k, phi) for k in range(1, K + 1))
    )


def random_sequence(grid, K, seed, xi=0.5):
    levels = tuple(
        random_test_kernel(grid, k, alpha=1.0, seed=seed + k) for k in range(1, K + 1)
    )
    return HierarchySequence(K, xi, levels)


def combine(seqs, coeffs):
    K, xi, grid = seqs[0].K, seqs[0].xi, seqs[0].grid
    levels = []
    for k in range(1, K + 1):
        data = sum(
            c * as_dense(s.level(k)).data for c, s in zip(coeffs, seqs)
        )
        levels.append(MarginalKernel(grid, k, data))
    return HierarchySequence(K, xi, tuple(levels))


def config_for(K=3, interaction=Interaction("cubic", 1), T=0.2, N_t=4, **kw):
    return SolverConfig(
        grid=GRID, interaction=interaction, params=PARAMS, K=K, T=T, N_t=N_t, **kw
    )


class TestConfig:
    def test_depth_validation(self):
        with pytest.raises(ValueError):
            config_for(K=1)
        with pytest.raises(ValueError):
            config_for(K=2, interaction=Interaction("quintic", 1))

    def test_quadrature_validation(self):
        with pytest.raises(ValueError):
            config_for(quadrature="midpoint")
        with pytest.raises(ValueError):
            config_for(N_t=3, quadrature="simpson")
        config_for(N_t=4, quadrature="simpson")

    def test_low_alpha_warns(self):
        with pytest.warns(UserWarning, match="alpha"):
            SolverConfig(
                grid=GRID, interaction=Interaction(), K=3, T=0.1, N_t=2,
                params=NormParams(alpha=0.4, xi=0.5),
            )

    def test_closure_validation(self):
        with pytest.raises(ValueError):
            ClosureRule("open_top")
        with pytest.raises(ValueError):
            ClosureRule("factorized_top")


class TestPrefixIntegrator:
    def poly_prefix(self, rule, N, degree):
        dt = 1.0 / N
        t = np.linspace(0.0, 1.0, N + 1)
        g = t**degree
        integ = _PrefixIntegrator(rule, dt)
        got = [integ.push(np.array([gi])) [0] for gi in g]
        want = t ** (degree + 1) / (degree + 1)
        return np.array(got), want

    def test_trapezoid_exact_on_linear(self):
        got, want = self.poly_prefix("trapezoid", 7, 1)
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_simpson_exact_on_cubic(self):
        # every prefix from i=2 on comes from 1/3 and 3/8 panels, exact to
        # degree 3; i=1 falls back to trapezoid
        got, want = self.poly_prefix("simpson", 8, 3)
        np.testing.assert_allclose(got[2:], want[2:], atol=1e-14)
        assert abs(got[1] - want[1]) > 1e-5

    def test_trapezoid_second_order(self):
        errs = []
        for N in (8, 16):
            got, want = self.poly_prefix("trapezoid", N, 4)
            errs.append(abs(got[-1] - want[-1]))
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    @staticmethod
    def out_of_place_prefixes(rule, gs, dt):
        """The composite rules with a new array per prefix."""
        out, prefix, even, even_prev = [], None, None, None
        for i in range(len(gs)):
            w = gs[max(0, i - 3): i + 1]
            if i == 0:
                prefix = even = np.zeros_like(gs[0])
                out.append(prefix)
            elif rule == "trapezoid":
                prefix = prefix + (dt / 2.0) * (w[-2] + w[-1])
                out.append(prefix)
            elif i == 1:
                out.append((dt / 2.0) * (w[-2] + w[-1]))
            elif i % 2 == 0:
                g2, g1, g0 = w[-3:]
                even_prev, even = even, even + (dt / 3.0) * (g2 + 4.0 * g1 + g0)
                out.append(even)
            else:
                g3, g2, g1, g0 = w
                out.append(even_prev
                           + (3.0 * dt / 8.0) * (g3 + 3.0 * g2 + 3.0 * g1 + g0))
        return out

    @pytest.mark.parametrize("rule", ["trapezoid", "simpson"])
    def test_in_place_prefix_is_bitwise_out_of_place(self, rule):
        # 90000 entries: more than one update block
        rng = np.random.default_rng(5)
        shape = (3, 30000)
        for N in range(1, 10):
            gs = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                  for _ in range(N + 1)]
            pushed = [g.copy() for g in gs]
            integ = _PrefixIntegrator(rule, 0.3 / N)
            got = [integ.push(g).copy() for g in pushed]
            want = self.out_of_place_prefixes(rule, gs, 0.3 / N)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert all(np.array_equal(a, b) for a, b in zip(pushed, gs))

    @pytest.mark.parametrize("rule, kept", [("trapezoid", 1), ("simpson", 3)])
    def test_window_keeps_only_what_the_rule_reads(self, rule, kept):
        integ = _PrefixIntegrator(rule, 0.1)
        first = np.ones(10, dtype=np.complex128)
        ref = weakref.ref(first)
        integ.push(first)
        del first
        for _ in range(kept - 1):
            integ.push(np.ones(10, dtype=np.complex128))
            assert ref() is not None
        integ.push(np.ones(10, dtype=np.complex128))
        assert ref() is None


def direct_duhamel_at_node(gamma0_k, sources, times, i, interaction):
    """Independent evaluation: free term plus np.trapezoid of the integrand."""
    grid, k = gamma0_k.grid, gamma0_k.k
    vals = [
        as_dense(free_evolve(apply_btilde(sources[s], interaction), times[i] - times[s])).data
        for s in range(i + 1)
    ]
    out = as_dense(free_evolve(as_dense(gamma0_k), times[i])).data
    if i > 0:
        out += np.trapezoid(np.stack(vals), x=times[: i + 1], axis=0)
    return out


class TestPicardStep:
    def test_first_iterate_matches_direct_quadrature(self):
        config = config_for(K=3, T=0.3, N_t=4)
        gamma0 = random_sequence(GRID, 3, seed=40)
        out = picard_step(convention_trajectory(gamma0, config), gamma0, config)
        times = config.times()
        for k in (1, 2):
            sources = [gamma0.level(k + 1)] * len(times)
            for i in (1, 3, 4):
                want = direct_duhamel_at_node(
                    gamma0.level(k), sources, times, i, config.interaction
                )
                np.testing.assert_allclose(
                    out.states[i].level(k).data, want, rtol=1e-12, atol=1e-13
                )

    def test_second_iterate_general_sources(self):
        config = config_for(K=3, T=0.3, N_t=4)
        gamma0 = random_sequence(GRID, 3, seed=41)
        first = picard_step(convention_trajectory(gamma0, config), gamma0, config)
        second = picard_step(first, gamma0, config)
        times = config.times()
        sources = first.level_series(2)
        want = direct_duhamel_at_node(
            gamma0.level(1), sources, times, 4, config.interaction
        )
        np.testing.assert_allclose(
            second.states[4].level(1).data, want, rtol=1e-12, atol=1e-13
        )

    def test_reads_sources_from_the_previous_iterate(self):
        # Jacobi: level 1 of the first iterate integrates the constant
        # gamma0^(2) source, not the level 2 made in the same step
        config = config_for(K=4, T=0.3, N_t=4)
        gamma0 = random_sequence(GRID, 4, seed=39)
        out = picard_step(convention_trajectory(gamma0, config), gamma0, config)
        times = config.times()
        for i in (1, 2, 4):
            got = out.states[i].level(1).data
            jacobi = direct_duhamel_at_node(
                gamma0.level(1), [gamma0.level(2)] * len(times), times, i,
                config.interaction,
            )
            np.testing.assert_allclose(got, jacobi, rtol=1e-12, atol=1e-13)
            sweep = direct_duhamel_at_node(
                gamma0.level(1), out.level_series(2), times, i, config.interaction
            )
            assert np.abs(got - sweep).max() > 1e-6 * np.abs(got).max()

    def test_zero_data_stays_zero(self):
        config = config_for(K=3)
        zero = HierarchySequence(
            3, 0.5, tuple(zeros(GRID, k) for k in (1, 2, 3))
        )
        out = picard_step(convention_trajectory(zero, config), zero, config)
        for state in out.states:
            for k in (1, 2, 3):
                assert sobolev_norm(state.level(k), 1.0) == 0.0

    def test_zero_source_reduces_to_free_evolution(self):
        config = config_for(K=2, closure=ClosureRule("zero_top"))
        one = random_sequence(GRID, 2, seed=42).level(1)
        gamma0 = HierarchySequence(2, 0.5, (one, zeros(GRID, 2)))
        out = picard_step(convention_trajectory(gamma0, config), gamma0, config)
        for i, t in enumerate(config.times()):
            np.testing.assert_allclose(
                out.states[i].level(1).data,
                as_dense(free_evolve(one, t)).data,
                rtol=1e-13, atol=1e-16,
            )

    def test_node_mismatch_rejected(self):
        config = config_for(K=3, N_t=4)
        gamma0 = random_sequence(GRID, 3, seed=43)
        other = convention_trajectory(gamma0, config_for(K=3, N_t=5))
        with pytest.raises(ValueError):
            picard_step(other, gamma0, config)

    def test_quadrature_order_of_first_iterate(self):
        gamma0 = factorized_sequence(GRID, 3, seed=44)
        results = {}
        for N_t in (4, 8, 64):
            config = config_for(K=3, T=0.4, N_t=N_t)
            out = picard_step(convention_trajectory(gamma0, config), gamma0, config)
            results[N_t] = out.states[-1].level(1).data
        e4 = np.linalg.norm(results[4] - results[64])
        e8 = np.linalg.norm(results[8] - results[64])
        assert 3.3 <= e4 / e8 <= 4.7


class TestDuhamelExpansion:
    def test_j_zero_is_free_evolution(self):
        config = config_for(K=3)
        gamma0 = random_sequence(GRID, 3, seed=45)
        term = duhamel_term(0, 2, gamma0, config)
        for i, t in enumerate(config.times()):
            np.testing.assert_allclose(
                as_dense(term[i]).data, as_dense(free_evolve(gamma0.level(2), t)).data,
                rtol=1e-13,
            )

    def test_depth_validation(self):
        config = config_for(K=3)
        gamma0 = random_sequence(GRID, 3, seed=46)
        with pytest.raises(ValueError):
            duhamel_term(3, 1, gamma0, config)
        with pytest.raises(ValueError):
            duhamel_term(1, 3, gamma0, config)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_partial_sums_plus_remainder_reproduce_iterates(self, m):
        config = config_for(K=4, T=0.25, N_t=4)
        gamma0 = random_sequence(GRID, 4, seed=47)
        traj = convention_trajectory(gamma0, config)
        for _ in range(m):
            traj = picard_step(traj, gamma0, config)
        for k in (1, 2):
            terms = [duhamel_term(j, k, gamma0, config) for j in range(m)
                     if k + j <= 4]
            remainder = duhamel_remainder(m, k, gamma0, config)
            for i in range(len(traj.times)):
                want = sum(as_dense(t[i]).data for t in terms)
                want = want + as_dense(remainder[i]).data
                got = traj.states[i].level(k).data
                scale = max(np.abs(want).max(), 1e-30)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    def test_iterates_stabilize_to_full_expansion(self):
        config = config_for(K=4, T=0.25, N_t=4)
        gamma0 = random_sequence(GRID, 4, seed=48)
        traj = convention_trajectory(gamma0, config)
        for _ in range(5):
            traj = picard_step(traj, gamma0, config)
        for k in (1, 2, 3):
            total = None
            for j in range(0, 4 - k + 1):
                term = duhamel_term(j, k, gamma0, config)
                stack = [as_dense(t).data for t in term]
                total = stack if total is None else [
                    a + b for a, b in zip(total, stack)
                ]
            for i in range(len(traj.times)):
                np.testing.assert_allclose(
                    traj.states[i].level(k).data, total[i], rtol=1e-11, atol=1e-13
                )

    def test_remainder_vanishes_when_chain_hits_closure(self):
        config = config_for(K=3)
        gamma0 = random_sequence(GRID, 3, seed=49)
        rem = duhamel_remainder(3, 1, gamma0, config)
        assert all(np.all(as_dense(r).data == 0) for r in rem)


class TestDuhamelChain:
    def test_negative_remainder_index_rejected(self):
        config = config_for(K=4)
        gamma0 = random_sequence(GRID, 4, seed=50)
        with pytest.raises(ValueError):
            duhamel_remainder(-1, 3, gamma0, config)

    @pytest.mark.parametrize("kind, K, expected", [
        ("cubic", 4, 54), ("cubic", 3, 27), ("quintic", 5, 36),
    ])
    def test_bound_rows_integrate_each_chain_once(self, monkeypatch, kind, K,
                                                  expected):
        # one chain per top level: the rows below a top level share its links
        grid = GridSpec(n=1, L=2 * np.pi, M=6)
        phi = band_profile(grid, seed=66)
        gamma0 = HierarchySequence(
            K, 0.5, tuple(FactorizedKernel(grid, k, phi) for k in range(1, K + 1))
        )
        config = SolverConfig(
            grid=grid, interaction=Interaction(kind, 1), params=PARAMS, K=K,
            T=0.05, N_t=8,
        )
        calls = count_collapses(monkeypatch)
        rows = duhamel_bound_rows(gamma0, config, c_hat=0.4)
        assert len(calls) == expected
        # the same rows, in the same order, as one duhamel_term per (k, j)
        want = []
        for k in range(1, min(3, K) + 1):
            for j in range(1, 4):
                top = k + j * config.offset
                if top > K:
                    continue
                value = sobolev_norm(duhamel_term(j, k, gamma0, config)[-1], 1.0)
                bound = (math.comb(k + j - 1, j) * (0.4 * config.T) ** j
                         * sobolev_norm(gamma0.level(top), 1.0))
                want.append({"j": j, "k": k, "norm": value, "bound": bound,
                             "ratio": value / bound if bound > 0 else math.inf})
        assert rows == want

    @pytest.mark.parametrize("kind, K", [("cubic", 4), ("quintic", 5)])
    def test_product_start_rows_match_the_dense_path(self, kind, K):
        # a product start keeps the first link below a top level low rank;
        # the same data made dense level by level take the dense path
        grid = GridSpec(n=1, L=2 * np.pi, M=6)
        phi = band_profile(grid, seed=67)
        gamma0 = HierarchySequence(
            K, 0.5, tuple(FactorizedKernel(grid, k, phi) for k in range(1, K + 1)))
        dense = HierarchySequence(K, 0.5, tuple(as_dense(lv) for lv in gamma0.levels))
        config = SolverConfig(
            grid=grid, interaction=Interaction(kind, 1), params=PARAMS, K=K,
            T=0.05, N_t=8,
        )
        below = K - config.offset
        free = [free_evolve(gamma0.level(K), t) for t in config.times()]
        chain = solver_module._expansion(gamma0.level(K), free, below, config)
        assert isinstance(chain[below][-1], LowRankKernel)
        got = duhamel_bound_rows(gamma0, config, c_hat=0.4)
        want = duhamel_bound_rows(dense, config, c_hat=0.4)
        assert [(r["j"], r["k"]) for r in got] == [(r["j"], r["k"]) for r in want]
        for a, b in zip(got, want):
            for name in ("norm", "bound", "ratio"):
                assert abs(a[name] - b[name]) <= 1e-12 * abs(b[name])

    def test_bound_rows_peak_within_the_solve_plan(self):
        # the table of a product start (cubic K=4, M=10, factorized_top)
        # holds no more than the solve's plan
        grid = GridSpec(n=1, L=2 * np.pi, M=10)
        phi = np.exp(-grid.positions**2 / 2.0)
        config = SolverConfig(
            grid=grid, interaction=Interaction("cubic", 1), params=PARAMS, K=4,
            T=0.05, N_t=8, closure=ClosureRule("factorized_top", phi0=phi),
        )
        gamma0 = product_sequence(phi, grid, 4, 0.5, dense_up_to=0)
        _, peak = traced_peak(lambda: duhamel_bound_rows(gamma0, config, c_hat=0.4))
        assert peak <= plan(config, gamma0).peak_bytes


    @pytest.mark.parametrize("kind, K", [("cubic", 4), ("quintic", 5)])
    def test_zero_data_take_no_dense_start(self, monkeypatch, kind, K):
        # below a dense top level the expansion's sweep has zero data: its
        # dense levels add no start term to their nodes, so no level-sized
        # zero array is made for one (a low-rank level starts from zero
        # factors)
        grid = GridSpec(n=1, L=2 * np.pi, M=6)
        phi = band_profile(grid, seed=68)
        config = SolverConfig(
            grid=grid, interaction=Interaction(kind, 1), params=PARAMS, K=K,
            T=0.05, N_t=4,
        )
        gamma0 = product_sequence(phi, grid, K, 0.5, dense_up_to=K)
        starts, original = [], solver_module._step

        def step(levels, sources, times, start, closure, cfg):
            starts.append(start)
            return original(levels, sources, times, start, closure, cfg)

        monkeypatch.setattr(solver_module, "_step", step)
        duhamel_bound_rows(gamma0, config, c_hat=0.4)
        assert starts
        for start in starts:
            # a dense level's start is the tuple of terms its nodes add
            dense = [begin for begin in start.values() if isinstance(begin, tuple)]
            assert dense and not any(dense)


class TestSolve:
    def test_zero_initial_data_one_iteration(self):
        config = config_for(K=3)
        zero = HierarchySequence(
            3, 0.5, tuple(zeros(GRID, k) for k in (1, 2, 3))
        )
        traj, report = solve(zero, config)
        assert report.converged and report.iterations == 1
        assert report.trajectory_norm == 0.0
        for state in traj.states:
            assert sobolev_norm(state.level(1), 1.0) == 0.0

    def test_converges_in_one_sweep(self):
        config = config_for(K=4, T=0.2, N_t=4)
        gamma0 = random_sequence(GRID, 4, seed=50)
        _, report = solve(gamma0, config)
        assert report.converged and report.iterations == 1
        assert 0.0 < report.trajectory_norm < math.inf

    def test_m_max_one_is_converged_without_warning(self):
        # solve does not read m_max: one sweep is the fixed point, whatever
        # the cap, and nothing warns about it
        gamma0 = factorized_sequence(GRID, 4, seed=75)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj, report = solve(gamma0, config_for(K=4, m_max=1))
        assert report.converged and report.iterations == 1
        ref, ref_report = solve(gamma0, config_for(K=4))
        assert report.trajectory_norm == ref_report.trajectory_norm
        for got, want in zip(traj.states, ref.states):
            for k in range(1, 5):
                assert bitwise_equal(got.level(k), want.level(k))

    def test_invariant_preservation_reported(self):
        config = config_for(K=3, T=0.2, N_t=4)
        gamma0 = random_sequence(GRID, 3, seed=51)
        _, report = solve(gamma0, config)
        assert all(v < 1e-12 for v in report.trace_drift.values())
        assert all(v < 1e-9 for v in report.hermiticity_defects.values())
        assert all(v < 1e-9 for v in report.symmetry_defects.values())
        json.dumps(asdict(report))

    def test_linearity(self):
        config = config_for(K=3, T=0.2, N_t=4)
        a = random_sequence(GRID, 3, seed=52)
        b = random_sequence(GRID, 3, seed=53)
        mix = combine([a, b], [2.0, 3.0j])
        traj_a, _ = solve(a, config)
        traj_b, _ = solve(b, config)
        traj_mix, _ = solve(mix, config)
        for i in range(len(traj_a.times)):
            for k in (1, 2):
                want = (
                    2.0 * traj_a.states[i].level(k).data
                    + 3.0j * traj_b.states[i].level(k).data
                )
                np.testing.assert_allclose(
                    traj_mix.states[i].level(k).data, want, rtol=1e-11, atol=1e-13
                )

    def test_zero_top_matches_free_top_one_level_down(self):
        gamma0_3 = factorized_sequence(GRID, 3, seed=54)
        gamma0_2 = HierarchySequence(
            2, 0.5, (gamma0_3.level(1), gamma0_3.level(2))
        )
        traj_zero, _ = solve(
            gamma0_3, config_for(K=3, closure=ClosureRule("zero_top"))
        )
        traj_free, _ = solve(gamma0_2, config_for(K=2))
        for i in range(len(traj_zero.times)):
            np.testing.assert_allclose(
                traj_zero.states[i].level(1).data,
                as_dense(traj_free.states[i].level(1)).data,
                rtol=1e-12, atol=1e-14,
            )

    def test_factorized_top_closure_runs(self):
        phi = band_profile(GRID, seed=55)
        phi_x = inverse_transform(phi, GRID)
        gamma0 = factorized_sequence(GRID, 3, seed=55)
        config = config_for(
            K=3, closure=ClosureRule("factorized_top", phi0=phi_x, substeps=8)
        )
        traj, report = solve(gamma0, config)
        assert report.converged
        top = traj.states[-1].level(3)
        assert isinstance(top, FactorizedKernel)

    @pytest.mark.parametrize("level", [2, 3], ids=["sourced", "free_top_closure"])
    def test_nan_detection(self, level):
        # a NaN in a sourced level's data, or in a dense free_top closure
        # level's, reaches a node's norm
        config = config_for(K=3)
        gamma0 = random_sequence(GRID, 3, seed=56)
        levels = list(gamma0.levels)
        bad = as_dense(levels[level - 1]).data.copy()
        bad.flat[0] = np.nan
        levels[level - 1] = MarginalKernel(GRID, level, bad)
        with pytest.raises(FloatingPointError, match="^non-finite"):
            solve(HierarchySequence(3, 0.5, tuple(levels)), config)

    def test_quintic_small_scale(self):
        grid = GridSpec(n=1, L=2 * np.pi, M=4)
        phi = band_profile(grid, seed=57)
        gamma0 = HierarchySequence(
            3, 0.5, tuple(FactorizedKernel(grid, k, phi) for k in (1, 2, 3))
        )
        config = SolverConfig(
            grid=grid, interaction=Interaction("quintic", -1), params=PARAMS,
            K=3, T=0.1, N_t=4,
        )
        traj, report = solve(gamma0, config)
        assert report.converged
        # level 1 is the only sourced level; check against direct quadrature
        times = config.times()
        sources = [free_evolve(gamma0.level(3), t) for t in times]
        want = direct_duhamel_at_node(
            gamma0.level(1), sources, times, len(times) - 1, config.interaction
        )
        np.testing.assert_allclose(
            traj.states[-1].level(1).data, want, rtol=1e-11, atol=1e-13
        )


# The Jacobi reference iteration: at most JACOBI_CAP full Duhamel steps,
# stopped once a distance is within JACOBI_TOL of max(1, norm).
JACOBI_CAP = 10
JACOBI_TOL = 1e-10


def reference_solve(gamma0, config):
    """The fixed point reached by full Duhamel steps (picard_step, the
    Jacobi map): every sourced level is re-integrated at every step."""
    params = config.params
    traj = convention_trajectory(gamma0, config)
    distances = []
    for _ in range(JACOBI_CAP):
        new = picard_step(traj, gamma0, config)
        d = max(weighted_distance(a, b, params)
                for a, b in zip(new.states, traj.states))
        distances.append(d)
        traj = new
        if d <= JACOBI_TOL * max(1.0, weighted_norm(new.states[-1], params)):
            break
    return traj, distances


def schedule_case(name):
    grid4 = GridSpec(n=1, L=2 * np.pi, M=4)
    quintic = Interaction("quintic", 1)
    if name == "cubic_free":
        return factorized_sequence(GRID, 4, seed=70), config_for(K=4)
    if name == "cubic_simpson":
        return factorized_sequence(GRID, 4, seed=71), config_for(
            K=4, quadrature="simpson")
    if name == "cubic_zero_top":
        return factorized_sequence(GRID, 4, seed=72), config_for(
            K=4, closure=ClosureRule("zero_top"))
    if name == "cubic_factorized_top":
        phi_x = inverse_transform(band_profile(GRID, seed=73), GRID)
        return factorized_sequence(GRID, 3, seed=73), config_for(
            K=3, closure=ClosureRule("factorized_top", phi0=phi_x, substeps=8))
    if name == "cubic_dense":
        return random_sequence(GRID, 3, seed=74), config_for(K=3)
    phi = band_profile(grid4, seed=76)
    gamma0 = HierarchySequence(
        5, 0.5, tuple(FactorizedKernel(grid4, k, phi) for k in range(1, 6))
    )
    quadrature = "simpson" if name == "quintic_simpson" else "trapezoid"
    return gamma0, SolverConfig(
        grid=grid4, interaction=quintic, params=PARAMS, K=5, T=0.1, N_t=4,
        quadrature=quadrature,
    )


def count_collapses(monkeypatch) -> list:
    """Record the level of every kernel the solver collapses."""
    calls = []
    original = solver_module.apply_btilde

    def counting(kernel, interaction):
        calls.append(kernel.k)
        return original(kernel, interaction)

    monkeypatch.setattr(solver_module, "apply_btilde", counting)
    return calls


class TestFrozenLevelSchedule:
    @pytest.mark.parametrize("name", [
        "cubic_free", "cubic_simpson", "cubic_zero_top", "cubic_factorized_top",
        "cubic_dense", "quintic_free", "quintic_simpson",
    ])
    def test_bitwise_equal_to_full_picard_steps(self, name):
        # solve's one descending sweep lands bitwise on the fixed point that
        # full Jacobi steps reach
        gamma0, config = schedule_case(name)
        traj, report = solve(gamma0, config)
        ref, _ = reference_solve(gamma0, config)
        assert report.converged and report.iterations == 1
        assert report.trajectory_norm == max(weighted_norm(s, config.params)
                                             for s in ref.states)
        for got, want in zip(traj.states, ref.states):
            for k in range(1, config.K + 1):
                assert bitwise_equal(got.level(k), want.level(k))
        # converged=True is earned: one more whole Jacobi step reproduces the
        # swept trajectory bitwise at every level and node
        extra = picard_step(traj, gamma0, config)
        for got, again in zip(traj.states, extra.states):
            for k in range(1, config.K + 1):
                assert bitwise_equal(got.level(k), again.level(k))

    @pytest.mark.parametrize("kind, K, expected", [
        ("cubic", 4, 27), ("quintic", 5, 27), ("cubic", 3, 18),
    ])
    def test_collapse_count(self, monkeypatch, kind, K, expected):
        grid = GridSpec(n=1, L=2 * np.pi, M=8)
        phi = band_profile(grid, seed=77)
        gamma0 = HierarchySequence(
            K, 0.5, tuple(FactorizedKernel(grid, k, phi) for k in range(1, K + 1))
        )
        config = SolverConfig(
            grid=grid, interaction=Interaction(kind, 1), params=PARAMS, K=K,
            T=0.05, N_t=8,
        )
        calls = count_collapses(monkeypatch)
        _, report = solve(gamma0, config)
        assert report.converged
        assert len(calls) == expected
        assert plan(config, gamma0).collapses == expected

    @pytest.mark.parametrize("closure, m_max, expected", [
        ("free_top", 2, 27), ("zero_top", 10, 19),
    ])
    def test_planned_collapses_equal_executed(self, monkeypatch, closure, m_max,
                                              expected):
        # each sourced level is integrated once, whatever m_max; a zero_top
        # source is collapsed once
        grid = GridSpec(n=1, L=2 * np.pi, M=6)
        phi = band_profile(grid, seed=78)
        gamma0 = HierarchySequence(
            4, 0.5, tuple(FactorizedKernel(grid, k, phi) for k in range(1, 5))
        )
        config = SolverConfig(
            grid=grid, interaction=Interaction("cubic", 1), params=PARAMS, K=4,
            T=0.05, N_t=8, m_max=m_max, closure=ClosureRule(closure),
        )
        calls = count_collapses(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solve(gamma0, config)
        assert len(calls) == plan(config, gamma0).collapses == expected


# Low-rank levels move values at rounding level against the dense path:
# every level and RunReport number within this relative tolerance.  A level
# is relative to the norm of the kernel compared.  Report fields that are
# themselves relative errors (trace drift, defects; about 1e-16 on both
# paths) are compared within it absolutely, on their own unit scale.
LOW_RANK_TOL = 1e-12
# A low-rank level's defects from one QR per column stack against each
# node's from a QR of its own factors: absolute, on the relative defects.
LEVEL_DEFECT_TOL = 1e-14


def low_rank_case(name):
    """A product state at M=8, N_t=8 and its configuration; cubic_n2 is
    cubic K=3 in two dimensions at M=4."""
    grid = GridSpec(n=1, L=2 * np.pi, M=8)
    phi = np.exp(-grid.positions**2 / 2.0) * (1.0 + 0.3j * np.sin(grid.positions))
    if name == "cubic_n2":
        grid = GridSpec(n=2, L=2 * np.pi, M=4)
        x, y = np.meshgrid(grid.positions, grid.positions, indexing="ij")
        phi = np.exp(-(x**2 + y**2) / 2.0) * (1.0 + 0.3j * np.sin(x))
    kind, K, closure, quadrature = {
        "cubic_free_top": ("cubic", 4, "free_top", "trapezoid"),
        "cubic_simpson": ("cubic", 4, "free_top", "simpson"),
        "cubic_factorized_top": ("cubic", 4, "factorized_top", "trapezoid"),
        "cubic_n2": ("cubic", 3, "free_top", "trapezoid"),
        "quintic_trapezoid": ("quintic", 5, "free_top", "trapezoid"),
        "quintic_simpson": ("quintic", 5, "free_top", "simpson"),
    }[name]
    config = SolverConfig(
        grid=grid, interaction=Interaction(kind, 1),
        params=PARAMS if grid.n == 1 else NormParams(alpha=1.5, xi=0.5), K=K, T=0.05,
        N_t=8, quadrature=quadrature,
        closure=ClosureRule(closure, phi0=phi if closure == "factorized_top" else None,
                            substeps=8),
    )
    return phi, config


def assert_close(got, want, scale=None):
    scale = abs(want) if scale is None else scale
    assert abs(got - want) <= LOW_RANK_TOL * scale, (got, want)


class TestLowRankLevels:
    @pytest.mark.parametrize("name, low_rank", [
        ("cubic_free_top", {3}), ("cubic_factorized_top", {3}),
        ("quintic_trapezoid", {2, 3}), ("quintic_simpson", {2, 3}),
    ])
    def test_factorized_start_matches_the_dense_start(self, name, low_rank):
        # the dense start holds the same product state with dense sourced
        # levels; its closure levels stay factorized, since a dense level 4
        # is 268 MB per node at M=8 and a dense level 5 17 GB
        phi, config = low_rank_case(name)
        K, off = config.K, config.offset
        lazy = product_sequence(phi, config.grid, K, 0.5, dense_up_to=0)
        dense = product_sequence(phi, config.grid, K, 0.5, dense_up_to=K - off)
        assert plan(config, lazy).low_rank == low_rank
        assert plan(config, dense).low_rank == frozenset()
        traj, report = solve(lazy, config, c_hat=0.4)
        ref, ref_report = solve(dense, config, c_hat=0.4)

        for i, (got, want) in enumerate(zip(traj.states, ref.states)):
            for k in range(1, K + 1):
                a, b = got.level(k), want.level(k)
                if k in low_rank:
                    # the start's column and two per integrand up to node i
                    assert isinstance(a, LowRankKernel) and a.rank <= 2 * i + 3
                assert_close(level_diff_norm(a, b, 1.0), 0.0, sobolev_norm(b, 1.0))

        fields, ref_fields = asdict(report), asdict(ref_report)
        assert ref_fields["planned_bytes"] > fields.pop("planned_bytes")
        del ref_fields["planned_bytes"], fields["wall_seconds"], ref_fields["wall_seconds"]
        assert fields.keys() == ref_fields.keys()
        for key in ("iterations", "converged", "stop_weight", "c_hat",
                    "quadrature", "closure"):
            assert fields[key] == ref_fields[key]
        for key in ("trajectory_norm", "initial_norm"):
            assert_close(fields[key], ref_fields[key])
        for key in ("trace_drift", "hermiticity_defects", "symmetry_defects"):
            assert fields[key].keys() == ref_fields[key].keys()
            for k, value in fields[key].items():
                assert_close(value, ref_fields[key][k], 1.0)

    @pytest.mark.parametrize("name, low_rank", [
        ("cubic_free_top", {3}), ("cubic_simpson", {3}), ("cubic_factorized_top", {3}),
        ("quintic_trapezoid", {2, 3}), ("quintic_simpson", {2, 3}), ("cubic_n2", {2}),
    ])
    def test_level_defects_match_each_node_from_its_own_factors(self, name, low_rank):
        # the defects solve() reports for a low-rank level come from one QR
        # per column stack; each node's, from a QR of its own phased factors,
        # agrees within LEVEL_DEFECT_TOL (absolute, on relative defects)
        phi, config = low_rank_case(name)
        gamma0 = product_sequence(phi, config.grid, config.K, 0.5, dense_up_to=0)
        times = config.times()
        levels = {k: [None] * len(times) for k in range(1, config.K + 1)}
        start = solver_module._initial_data(gamma0, config, plan(config, gamma0).low_rank)
        stacks = solver_module._step(levels, levels, times, start,
                                     solver_module._closure_states(gamma0, config), config)
        assert set(stacks) == low_rank
        for k, level in stacks.items():
            herm, symm = _hermiticity_defects(level), _symmetry_defects(level)
            assert len(herm) == len(symm) == config.N_t + 1
            for got_h, got_s, node in zip(herm, symm, levels[k]):
                want_h, want_s = low_rank_node_defects(node)
                assert abs(got_h - want_h) <= LEVEL_DEFECT_TOL
                assert abs(got_s - want_s) <= LEVEL_DEFECT_TOL
            assert max(herm) == hermiticity_defect(level) < 1e-9
            assert max(symm) == symmetry_defect(level) < 1e-9
        _, report = solve(gamma0, config)
        for k, level in stacks.items():
            assert report.hermiticity_defects[k] == hermiticity_defect(level)
            assert report.symmetry_defects[k] == symmetry_defect(level)

    def test_low_rank_level_refuses_a_low_rank_source(self):
        # a low-rank level is built from factorized sources only; a prev
        # whose closure nodes are low rank would grow its nodes past the
        # plan's width
        phi, config = low_rank_case("cubic_free_top")
        lazy = product_sequence(phi, config.grid, config.K, 0.5, dense_up_to=0)
        assert plan(config, lazy).low_rank == {3}
        traj, _ = solve(lazy, config)
        states = [HierarchySequence(config.K, 0.5, state.levels[:-1] + (
            LowRankKernel.from_factorized(state.level(config.K)),)) for state in traj.states]
        with pytest.raises(TypeError, match="factorized source"):
            picard_step(Trajectory(traj.times, states), lazy, config)

    @pytest.mark.parametrize("name", ["cubic_free", "quintic_simpson"])
    def test_low_rank_levels_are_never_multiplied_out(self, monkeypatch, name):
        # collapse, norms and defects of a low-rank level work on its
        # factors; only the integrands of the dense level below it (rank
        # 2 T r) are multiplied out
        gamma0, config = plan_case(name)
        low_rank = plan(config, gamma0).low_rank
        assert low_rank
        densified = []
        original = LowRankKernel.dense

        def dense(kernel):
            densified.append(kernel.k)
            return original(kernel)

        def materialize(kernel, budget=None):
            raise AssertionError(f"materialized a level-{kernel.k} low-rank kernel")

        monkeypatch.setattr(LowRankKernel, "dense", dense)
        monkeypatch.setattr(LowRankKernel, "materialize", materialize)
        traj, _ = solve(gamma0, config)
        assert densified and not set(densified) & low_rank
        assert all(isinstance(kern, LowRankKernel)
                   for k in low_rank for kern in traj.level_series(k))

    def test_representation_follows_the_plan(self):
        # low rank only from factorized data, above a closure level whose
        # initial data are factorized too, and while the widest node
        # (2N_t+3 columns) is narrower than half the rows (36 at M=6, k=2)
        phi = band_profile(GRID, seed=90)
        lazy = product_sequence(phi, GRID, 3, 0.5, dense_up_to=0)
        for N_t, low_rank in ((4, {2}), (8, set())):
            config = config_for(K=3, N_t=N_t)
            assert plan(config, lazy).low_rank == low_rank
            traj, _ = solve(lazy, config)
            for k in (1, 2):
                assert isinstance(traj.states[-1].level(k), LowRankKernel) == (
                    k in low_rank)
        zero_top = config_for(K=3, N_t=4, closure=ClosureRule("zero_top"))
        assert plan(zero_top, lazy).low_rank == {2}
        # the convention start of a dense level 3 is a dense source
        mixed = HierarchySequence(3, 0.5, lazy.levels[:2] + (as_dense(lazy.level(3)),))
        assert plan(zero_top, mixed).low_rank == frozenset()
        assert plan(config_for(K=3, N_t=4), product_sequence(phi, GRID, 3, 0.5)
                    ).low_rank == frozenset()

def plan_case(name):
    """Initial data and configuration of one tracemalloc bound case (M=8, N_t=8;
    the README's CLI example has N_t=4, the dense free_top cases named _m10
    have M=10, whose level 3 is traced on the block pool)."""
    if name == "readme":
        grid = GridSpec(n=1, L=2 * np.pi, M=8)
        phi_x = 0.6 * np.exp(-grid.positions**2 / (2.0 * 0.8**2))
        config = SolverConfig(grid=grid, interaction=Interaction("cubic", 1),
                              params=PARAMS, K=3, T=0.02, N_t=4)
        return product_sequence(phi_x, grid, 3, 0.5, dense_up_to=0), config
    kind, K, quadrature, closure, dense = {
        "cubic_free": ("cubic", 4, "trapezoid", "free_top", False),
        "cubic_k5": ("cubic", 5, "trapezoid", "free_top", False),
        "quintic_simpson": ("quintic", 5, "simpson", "free_top", False),
        "dense_free": ("cubic", 3, "trapezoid", "free_top", True),
        "dense_zero": ("cubic", 3, "trapezoid", "zero_top", True),
        "dense_factorized": ("cubic", 3, "trapezoid", "factorized_top", True),
        "dense_free_m10": ("cubic", 3, "trapezoid", "free_top", True),
        "dense_simpson_m10": ("cubic", 3, "simpson", "free_top", True),
    }[name]
    grid = GridSpec(n=1, L=2 * np.pi, M=10 if name.endswith("_m10") else 8)
    phi = band_profile(grid, seed=79)
    levels = []
    for k in range(1, K + 1):
        level = FactorizedKernel(grid, k, phi)
        levels.append(as_dense(level) if dense else level)
    config = SolverConfig(
        grid=grid, interaction=Interaction(kind, 1), params=PARAMS, K=K,
        T=0.05, N_t=8, quadrature=quadrature,
        closure=ClosureRule(closure, phi0=inverse_transform(phi, grid)),
    )
    return HierarchySequence(K, 0.5, tuple(levels)), config


class TestMemoryPlanning:
    def test_plan_under_budget(self):
        gamma0 = random_sequence(GRID, 3, seed=57)
        config = config_for(K=3)
        planned = plan(config, gamma0)
        assert planned.peak_bytes <= kernel_budget(config.budget)
        _, report = solve(gamma0, config)
        assert report.planned_bytes == planned.peak_bytes

    def test_oversized_refused(self, monkeypatch):
        config = config_for(K=3, budget=10_000)
        gamma0 = random_sequence(GRID, 3, seed=58)
        assert plan(config, gamma0).peak_bytes > 10_000
        calls = count_collapses(monkeypatch)
        with pytest.raises(ResourceBudgetError):
            solve(gamma0, config)
        assert calls == []  # refused before the first collapse

    @pytest.mark.parametrize("name", [
        "cubic_free", "quintic_simpson", "dense_free", "dense_zero",
        "dense_factorized", "readme", "cubic_k5", "dense_free_m10", "dense_simpson_m10",
    ])
    def test_plan_bounds_traced_peak(self, monkeypatch, name):
        # the plan is an upper bound on what the solve allocates, and tight.
        # It counts one pool run's block scratch and norm buffers and leaves
        # further runs out (plan), so the M=10 cases, whose level-3 passes
        # are pooled, run on two workers on any machine
        if name.endswith("_m10"):
            monkeypatch.setattr(blocks, "WORKERS", 2)
        gamma0, config = plan_case(name)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _, report = solve(gamma0, config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert report.planned_bytes == plan(config, gamma0).peak_bytes
        assert peak <= report.planned_bytes <= 1.25 * peak

    def test_dense_free_top_list_holds_no_array(self):
        # the closure list is U0(t_i) over gamma0's own level-3 array at
        # every node; writing the nine copies out took 9.3 level-3 kernels
        gamma0, config = plan_case("dense_free_m10")
        (traj, _), peak = traced_peak(lambda: solve(gamma0, config))
        for t, node in zip(config.times(), traj.level_series(3)):
            assert isinstance(node, EvolvedKernel)
            assert node.base is gamma0.level(3) and node.t == t
        assert peak < config.grid.kernel_bytes(3)


class TestSweep:
    def test_each_level_once_descending_from_the_new_level_above(self, monkeypatch):
        # the sweep integrates levels 3, 2, 1 once each, and level k
        # collapses the node objects just made for level k+1 (level 3 the
        # closure list), not the convention start
        gamma0 = factorized_sequence(GRID, 4, seed=80)
        config = config_for(K=4, N_t=4)
        original = solver_module._duhamel_nodes
        seen, made, collapsed = [], {}, {}
        original_collapse = solver_module.apply_btilde

        def tracking(sources, times, rule, gamma0_data, grid, k, interaction):
            seen.append(k)
            made[k] = []
            for node in original(sources, times, rule, gamma0_data, grid, k, interaction):
                made[k].append(node)
                yield node

        def collapse(kernel, interaction):
            collapsed.setdefault(kernel.k, []).append(kernel)
            return original_collapse(kernel, interaction)

        monkeypatch.setattr(solver_module, "_duhamel_nodes", tracking)
        monkeypatch.setattr(solver_module, "apply_btilde", collapse)
        traj, report = solve(gamma0, config)
        assert seen == [3, 2, 1]
        assert report.iterations == 1
        want = {4: traj.level_series(4), 3: made[3], 2: made[2]}
        assert sorted(collapsed) == sorted(want)
        for k, nodes in want.items():
            assert len(collapsed[k]) == config.N_t + 1
            assert all(a is b for a, b in zip(collapsed[k], nodes))
        for k in (1, 2, 3):
            assert all(a is b for a, b in zip(traj.level_series(k), made[k]))


    def test_solve_takes_one_step(self, monkeypatch):
        calls = []
        original = solver_module._step
        gamma0, config = factorized_sequence(GRID, 4, seed=81), config_for(K=4)

        def counting(*args):
            calls.append(args[0] is args[1])  # the sweep reads the new levels
            stacks = original(*args)
            # one column stack per low-rank level, for its defects
            assert set(stacks) == plan(config, gamma0).low_rank == {3}
            return stacks

        monkeypatch.setattr(solver_module, "_step", counting)
        _, report = solve(gamma0, config)
        assert calls == [True]
        assert report.iterations == 1

    @pytest.mark.parametrize("name", ["cubic_free", "cubic_factorized_top",
                                      "quintic_simpson"])
    def test_one_streamed_norm_per_node(self, monkeypatch, name):
        # the sweep measures no distance: the only streamed reductions are
        # the final norms, one per node and level
        gamma0, config = schedule_case(name)
        calls = []
        for attr in ("level_diff_norm", "sobolev_norm"):
            original = getattr(solver_module, attr)

            def recording(kernel, *args, _attr=attr, _original=original):
                calls.append(_attr)
                return _original(kernel, *args)

            monkeypatch.setattr(solver_module, attr, recording)
        solve(gamma0, config)
        assert calls == ["sobolev_norm"] * (config.K * (config.N_t + 1))


class TestResidualStep:
    def test_final_trajectory_is_a_fixed_point(self):
        # one whole Jacobi Duhamel step on the swept trajectory reproduces
        # it bitwise, so the residuals are 0.0
        gamma0 = factorized_sequence(GRID, 4, seed=75)
        config = config_for(K=4)
        traj, _ = solve(gamma0, config)
        extra = picard_step(traj, gamma0, config)
        residuals = {}
        for k in config.sourced_levels:
            denom = max(sobolev_norm(node, 1.0) for node in traj.level_series(k))
            gap = max(level_diff_norm(a, b, 1.0) for a, b in
                      zip(traj.level_series(k), extra.level_series(k)))
            residuals[k] = gap / denom if denom > 0 else gap
        assert set(residuals.values()) == {0.0}
        for k in range(1, config.K + 1):
            for a, b in zip(traj.level_series(k), extra.level_series(k)):
                assert np.array_equal(as_dense(a).data, as_dense(b).data)


class TestTrajectoryType:
    def test_uniformity_enforced(self):
        gamma0 = random_sequence(GRID, 3, seed=59)
        state = HierarchySequence(
            3, 0.5, tuple(gamma0.level(k) for k in (1, 2, 3))
        )
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.1, 0.3]), [state] * 3)
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.1]), [state] * 3)


class TestBoundChecks:
    def _measured_c(self, gamma0, config):
        k_top = config.K
        top = gamma0.level(k_top)
        ratio = sobolev_norm(apply_btilde(top, config.interaction), 1.0) / (
            (k_top - config.offset) * sobolev_norm(top, 1.0)
        )
        return 1.5 * ratio

    def test_apriori_bound_passes(self):
        gamma0 = factorized_sequence(GRID, 3, seed=60)
        config = config_for(K=3, T=0.05, N_t=4)
        c_hat = self._measured_c(gamma0, config)
        traj, _ = solve(gamma0, config, c_hat=c_hat)
        report = apriori_bound_check(traj, gamma0, config, c_hat)
        assert report.passed and not report.flagged
        assert report.ratio <= report.factor
        assert report.eta == pytest.approx(0.5 - c_hat * 0.05)

    def test_apriori_eta_guard(self):
        gamma0 = factorized_sequence(GRID, 3, seed=61)
        config = config_for(K=3, T=0.05, N_t=4)
        traj, _ = solve(gamma0, config)
        with pytest.raises(ValueError):
            apriori_bound_check(traj, gamma0, config, c_hat=100.0)

    def test_contraction_exact_equality_pass(self):
        gamma0 = factorized_sequence(GRID, 3, seed=62)
        config = config_for(K=3, T=0.05, N_t=4)
        c_hat = self._measured_c(gamma0, config)
        report = contraction_factor_check(gamma0, gamma0, config, c_hat)
        assert report.passed and report.ratio == 0.0
        assert report.details["exact_equality"]

    def test_contraction_perturbation(self):
        gamma0 = factorized_sequence(GRID, 3, seed=63)
        c_hat = self._measured_c(gamma0, config_for(K=3, T=0.05, N_t=4))
        T = 0.5 / (5 * c_hat)
        config = config_for(K=3, T=T, N_t=4)
        other = combine(
            [gamma0, random_sequence(GRID, 3, seed=64)], [1.0, 1e-3]
        )
        report = contraction_factor_check(gamma0, other, config, c_hat)
        assert report.passed
        assert report.details["T_matches_special"]
        assert report.ratio <= 0.8 + 1e-12

    def test_duhamel_bound_rows(self):
        gamma0 = factorized_sequence(GRID, 4, seed=65)
        config = config_for(K=4, T=0.05, N_t=4)
        c_hat = self._measured_c(gamma0, config)
        rows = duhamel_bound_rows(gamma0, config, c_hat)
        assert {(r["j"], r["k"]) for r in rows} == {
            (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3),
        }
        for row in rows:
            assert math.isfinite(row["ratio"]) and row["ratio"] > 0
