"""Norm layer: closed forms, invariances, and weighted sums."""

import math

import numpy as np
import pytest

from gphier import blocks
from gphier.kernels import (
    FactorizedKernel,
    HierarchySequence,
    LowRankKernel,
    MarginalKernel,
    as_dense,
    random_test_kernel,
)
from gphier.norms import (
    NormParams,
    accurate_sum,
    level_diff_norm,
    profile_norm_sq,
    sobolev_norm,
    weighted_distance,
    weighted_norm,
)
from gphier.operators import free_evolve
from gphier.spectral import GridSpec, variable_bracket
from kernel_oracles import permute_particles, zeros
from spectral_oracles import bracket

GRID = GridSpec(n=1, L=2 * np.pi, M=6)


def random_dense(grid, k, seed):
    rng = np.random.default_rng(seed)
    shape = grid.kernel_shape(k)
    return MarginalKernel(
        grid, k, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )


def explicit_norm(kernel, alpha):
    """Direct meshgrid evaluation of the weighted sum (n=1 only)."""
    grid, k = kernel.grid, kernel.k
    p = grid.momenta
    w = bracket(p) ** (2 * alpha)
    total = np.abs(kernel.data) ** 2
    for axis in range(2 * k):
        shape = [1] * (2 * k)
        shape[axis] = grid.M
        total = total * w.reshape(shape)
    return math.sqrt(float(total.sum()) * grid.measure_weight ** (2 * k))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            NormParams(alpha=-0.5)
        with pytest.raises(ValueError):
            NormParams(xi=1.0)
        with pytest.raises(ValueError):
            NormParams(xi=0.0)


class TestAccurateSum:
    def test_matches_fsum_on_adversarial_values(self):
        rng = np.random.default_rng(0)
        vals = np.concatenate(
            [rng.standard_normal(200000) * 1e12, rng.standard_normal(200000)]
        )
        assert accurate_sum(vals) == pytest.approx(math.fsum(vals.tolist()), rel=1e-13)

    def test_small_and_empty(self):
        assert accurate_sum(np.array([1.0, 2.0, 3.0])) == 6.0
        assert accurate_sum(np.array([])) == 0.0


class TestSobolevNorm:
    def test_matches_explicit_weights(self):
        gamma = random_dense(GRID, 2, seed=1)
        for alpha in (0.0, 1.0, 1.7):
            np.testing.assert_allclose(
                sobolev_norm(gamma, alpha), explicit_norm(gamma, alpha), rtol=1e-13
            )

    def test_blocked_weights_match_whole_array_passes(self):
        # 8^6 entries: the weight passes run over many leading-axis blocks
        grid = GridSpec(n=1, L=2 * np.pi, M=8)
        gamma = random_dense(grid, 3, seed=6)
        for alpha in (0.5, 1.0, 2.0):
            acc = np.abs(gamma.data) ** 2
            w = variable_bracket(grid) ** (2.0 * alpha)
            for var in range(6):
                shape = [1] * 6
                shape[var] = grid.M
                acc *= w.reshape(shape)
            expect = math.sqrt(accurate_sum(acc) * grid.measure_weight ** 6)
            assert sobolev_norm(gamma, alpha) == expect

    def test_alpha_zero_is_scaled_frobenius(self):
        gamma = random_dense(GRID, 2, seed=2)
        expect = np.linalg.norm(gamma.data) * GRID.measure_weight ** 2
        np.testing.assert_allclose(sobolev_norm(gamma, 0.0), expect, rtol=1e-13)

    def test_factorized_closed_form(self):
        rng = np.random.default_rng(3)
        phi = rng.standard_normal(GRID.M) + 1j * rng.standard_normal(GRID.M)
        for k in (1, 2, 3):
            lazy = FactorizedKernel(GRID, k, phi)
            dense = lazy.materialize()
            for alpha in (0.0, 1.0):
                np.testing.assert_allclose(
                    sobolev_norm(lazy, alpha), sobolev_norm(dense, alpha), rtol=1e-12
                )
        one = profile_norm_sq(phi, GRID, 1.0)
        np.testing.assert_allclose(
            sobolev_norm(FactorizedKernel(GRID, 3, phi), 1.0), one**3, rtol=1e-12
        )

    def test_free_evolution_isometry(self):
        gamma = random_dense(GRID, 2, seed=4)
        for alpha in (0.0, 1.0, 2.0):
            np.testing.assert_allclose(
                sobolev_norm(free_evolve(gamma, 0.83), alpha),
                sobolev_norm(gamma, alpha),
                rtol=1e-12,
            )

    def test_permutation_invariance(self):
        gamma = random_dense(GRID, 3, seed=5)
        swapped = permute_particles(gamma, (2, 0, 1))
        np.testing.assert_allclose(
            sobolev_norm(swapped, 1.3), sobolev_norm(gamma, 1.3), rtol=1e-13
        )

    def test_monotone_in_alpha(self):
        gamma = random_dense(GRID, 2, seed=6)
        norms = [sobolev_norm(gamma, a) for a in (0.0, 0.5, 1.0, 2.0)]
        assert norms == sorted(norms)

    def test_zero_kernel(self):
        zero = zeros(GRID, 2)
        assert sobolev_norm(zero, 1.0) == 0.0


class TestDiffNorm:
    def test_dense_pair(self):
        a = random_dense(GRID, 2, seed=7)
        b = random_dense(GRID, 2, seed=8)
        expect = sobolev_norm(MarginalKernel(GRID, 2, a.data - b.data), 1.0)
        np.testing.assert_allclose(level_diff_norm(a, b, 1.0), expect, rtol=1e-13)

    def test_mixed_pair_and_self(self):
        rng = np.random.default_rng(9)
        phi = rng.standard_normal(GRID.M) + 1j * rng.standard_normal(GRID.M)
        lazy = FactorizedKernel(GRID, 2, phi)
        dense = lazy.materialize()
        assert level_diff_norm(lazy, dense, 1.0) < 1e-12
        assert level_diff_norm(lazy, lazy, 1.0) == 0.0

    def test_factorized_pair_closed_form(self):
        rng = np.random.default_rng(10)
        phi = rng.standard_normal(GRID.M) + 1j * rng.standard_normal(GRID.M)
        psi = rng.standard_normal(GRID.M) + 1j * rng.standard_normal(GRID.M)
        a, b = FactorizedKernel(GRID, 2, phi), FactorizedKernel(GRID, 2, psi)
        expect = level_diff_norm(a.materialize(), b.materialize(), 1.0)
        np.testing.assert_allclose(level_diff_norm(a, b, 1.0), expect, rtol=1e-10)

    @pytest.mark.parametrize("eps, rtol", [(1e-9, 1e-6), (1e-12, 1e-3)])
    def test_factorized_pair_close_states(self, eps, rtol):
        # na^2k + nb^2k - 2|z|^2k cancels to nothing here; the difference
        # of the materialized kernels is the reference
        grid = GridSpec(n=1, L=2 * np.pi, M=8)
        rng = np.random.default_rng(3)
        phi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        phi *= np.exp(-0.1 * grid.modes**2)
        direction = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = phi + eps * np.linalg.norm(phi) / np.linalg.norm(direction) * direction
        a, b = FactorizedKernel(grid, 2, phi), FactorizedKernel(grid, 2, psi)
        dense = MarginalKernel(grid, 2, a.materialize().data - b.materialize().data)
        expect = sobolev_norm(dense, 1.0)
        np.testing.assert_allclose(level_diff_norm(a, b, 1.0), expect, rtol=rtol)

    def test_factorized_pair_two_dimensions(self):
        grid = GridSpec(n=2, L=2 * np.pi, M=4)
        rng = np.random.default_rng(12)
        phi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        psi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a, b = FactorizedKernel(grid, 2, phi), FactorizedKernel(grid, 2, psi)
        expect = level_diff_norm(a.materialize(), b.materialize(), 1.5)
        np.testing.assert_allclose(level_diff_norm(a, b, 1.5), expect, rtol=1e-10)

    def test_factorized_phase_rotation_is_zero_distance(self):
        rng = np.random.default_rng(4)
        phi = rng.standard_normal(GRID.M) + 1j * rng.standard_normal(GRID.M)
        a = FactorizedKernel(GRID, 3, phi)
        b = FactorizedKernel(GRID, 3, np.exp(0.7j) * phi)
        assert level_diff_norm(a, b, 1.0) <= 1e-14 * sobolev_norm(a, 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            level_diff_norm(random_dense(GRID, 1, 11), random_dense(GRID, 2, 12))


def row_block_norm(data, grid, k, alpha):
    """The H^alpha norm in the streamed order: |data|^2 times the row, then
    the column weights of the (unprimed x primed) matrix, summed per
    blocks.rows row block, the block sums fsum'ed in row order."""
    R = grid.M ** (k * grid.n)
    w = np.array(1.0)
    for _ in range(k):
        w = np.multiply.outer(w, variable_bracket(grid) ** (2.0 * alpha))
    w = w.reshape(-1)
    acc = np.abs(data.reshape(R, R)) ** 2
    acc *= w[:, None]
    acc *= w
    step = max(1, blocks.BLOCK // R)
    total = math.fsum(float(np.sum(acc[s:s + step])) for s in range(0, R, step))
    return math.sqrt(total * grid.measure_weight ** (2 * k))


class TestStreamedReduction:
    """Norms and distances streamed row block by row block equal the
    row-block formula exactly for dense sides, and are the same on one
    worker or several."""

    @pytest.mark.parametrize("n, M, k", [(1, 10, 3), (2, 4, 2)])
    def test_row_block_formulas_on_any_worker_count(self, monkeypatch, n, M, k):
        monkeypatch.setattr(blocks, "MIN_POOLED", 0)
        grid = GridSpec(n=n, L=2 * np.pi, M=M)
        a = random_dense(grid, k, seed=20)
        b = random_dense(grid, k, seed=21)
        rng = np.random.default_rng(22)
        lazy = FactorizedKernel(
            grid, k, rng.standard_normal((M,) * n) + 1j * rng.standard_normal((M,) * n))
        dense_lazy = lazy.materialize()
        mixed = {}
        for workers in (1, 2):
            monkeypatch.setattr(blocks, "WORKERS", workers)
            for alpha in (0.0, 0.6, 1.0, 2.0):
                assert sobolev_norm(a, alpha) == row_block_norm(a.data, grid, k, alpha)
                assert level_diff_norm(a, b, alpha) == row_block_norm(
                    a.data - b.data, grid, k, alpha)
                # a factorized side's entries are its rank-one product, not
                # materialize()'s chain of outer products
                got = (level_diff_norm(lazy, a, alpha), level_diff_norm(a, lazy, alpha))
                np.testing.assert_allclose(
                    got, level_diff_norm(dense_lazy, a, alpha), rtol=1e-13)
                mixed.setdefault(alpha, []).append(got)
        assert all(one == two for one, two in mixed.values())


class TestEvolvedSides:
    """An evolved kernel's norms and distances are bitwise those of its
    materialized copy: its rows are phased block by block into a complex
    buffer, as apply_free_phase writes them."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("t", [0.0, 0.37])
    @pytest.mark.parametrize("n, M, k", [(1, 6, 3), (1, 8, 3), (2, 4, 2)])
    def test_equal_to_the_materialized_kernel(self, monkeypatch, workers, t, n, M, k):
        monkeypatch.setattr(blocks, "WORKERS", workers)
        monkeypatch.setattr(blocks, "MIN_POOLED", 0)
        grid = GridSpec(n=n, L=2 * np.pi, M=M)
        evolved = free_evolve(random_dense(grid, k, seed=30), t)
        dense = as_dense(evolved)
        rng = np.random.default_rng(31)
        profile = rng.standard_normal((M,) * n) + 1j * rng.standard_normal((M,) * n)
        rows = M ** (k * n)
        factors = [rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3))
                   for _ in range(2)]
        other = free_evolve(random_dense(grid, k, seed=32), -0.21)
        partners = [random_dense(grid, k, seed=33), FactorizedKernel(grid, k, profile),
                    LowRankKernel(grid, k, *factors), other, as_dense(other)]
        for alpha in (0.0, 1.0):
            assert sobolev_norm(evolved, alpha) == sobolev_norm(dense, alpha)
            for partner in partners:
                assert level_diff_norm(evolved, partner, alpha) == level_diff_norm(
                    dense, as_dense(partner) if partner is other else partner, alpha)
                assert level_diff_norm(partner, evolved, alpha) == level_diff_norm(
                    as_dense(partner) if partner is other else partner, dense, alpha)


def long_double_norm(mat, grid, k, alpha):
    """||mat||_{H^alpha} of a level-k (unprimed x primed) matrix, evaluated
    in long double."""
    p2 = np.zeros((grid.M,) * grid.n, dtype=np.longdouble)
    for p in np.meshgrid(*[grid.momenta] * grid.n, indexing="ij"):
        p2 += p.astype(np.longdouble) ** 2
    w1 = ((1 + p2) ** np.longdouble(alpha)).reshape(-1)
    w = np.ones(1, dtype=np.longdouble)
    for _ in range(k):
        w = np.multiply.outer(w, w1).reshape(-1)
    total = np.sum((mat.real ** 2 + mat.imag ** 2) * w[:, None] * w[None, :])
    return float(np.sqrt(total * np.longdouble(grid.measure_weight) ** (2 * k)))


def long_double_product(phi, k):
    """The (unprimed x primed) matrix of F(phi, k) in long double."""
    p = np.ones(1, dtype=np.clongdouble)
    for _ in range(k):
        p = np.multiply.outer(p, phi.reshape(-1).astype(np.clongdouble)).reshape(-1)
    return np.multiply.outer(p, np.conj(p))


class TestLongDoubleReference:
    """Streamed norms and distances agree with a long-double evaluation."""

    @pytest.mark.parametrize("n, M, k", [(1, 8, 3), (2, 4, 2)])
    @pytest.mark.parametrize("alpha", [0.0, 0.6, 1.0, 2.0])
    def test_every_pairing_of_sides(self, n, M, k, alpha):
        grid = GridSpec(n=n, L=2 * np.pi, M=M)
        R = grid.lattice_size ** k
        rng = np.random.default_rng(30)

        def cnormal(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        a = random_dense(grid, k, seed=31)
        b = MarginalKernel(grid, k, a.data + 1e-9 * cnormal(*a.data.shape))
        lazy = FactorizedKernel(grid, k, cnormal(*(M,) * n))
        low = LowRankKernel(grid, k, cnormal(R, 3), cnormal(R, 3))
        exact = {
            id(a): a.data.reshape(R, R).astype(np.clongdouble),
            id(b): b.data.reshape(R, R).astype(np.clongdouble),
            id(lazy): long_double_product(lazy.phi_hat, k),
            id(low): low.U.astype(np.clongdouble) @ np.conj(low.V.T.astype(np.clongdouble)),
        }
        for x in (a, low):
            np.testing.assert_allclose(
                sobolev_norm(x, alpha), long_double_norm(exact[id(x)], grid, k, alpha),
                rtol=1e-13)
        for x, y in ((a, b), (a, lazy), (low, lazy)):
            np.testing.assert_allclose(
                level_diff_norm(x, y, alpha),
                long_double_norm(exact[id(x)] - exact[id(y)], grid, k, alpha), rtol=1e-13)

    def test_equal_low_rank_factors_are_zero_distance(self):
        grid = GridSpec(n=1, L=2 * np.pi, M=8)
        rng = np.random.default_rng(32)
        U = rng.standard_normal((512, 4)) + 1j * rng.standard_normal((512, 4))
        V = rng.standard_normal((512, 4)) + 1j * rng.standard_normal((512, 4))
        a = LowRankKernel(grid, 3, U, V)
        b = LowRankKernel(grid, 3, U.copy(), V.copy())
        assert level_diff_norm(a, b, 1.0) == 0.0


class TestWeightedNorms:
    def _unit_profile(self, seed):
        rng = np.random.default_rng(seed)
        phi = rng.standard_normal(GRID.M) + 1j * rng.standard_normal(GRID.M)
        return phi / math.sqrt(profile_norm_sq(phi, GRID, 1.0))

    def test_geometric_sum_for_unit_levels(self):
        phi = self._unit_profile(13)
        K, xi = 4, 0.5
        seq = HierarchySequence(
            K, xi, tuple(FactorizedKernel(GRID, k, phi) for k in range(1, K + 1))
        )
        params = NormParams(alpha=1.0, xi=xi)
        expect = sum(xi**k for k in range(1, K + 1))
        np.testing.assert_allclose(weighted_norm(seq, params), expect, rtol=1e-12)

    def test_monotone_in_xi(self):
        phi = self._unit_profile(14)
        seq = HierarchySequence(
            3, 0.5, tuple(FactorizedKernel(GRID, k, phi) for k in (1, 2, 3))
        )
        a = weighted_norm(seq, NormParams(alpha=1.0, xi=0.3))
        b = weighted_norm(seq, NormParams(alpha=1.0, xi=0.6))
        assert a < b

    def test_weighted_distance_and_trajectory(self):
        phi = self._unit_profile(15)
        psi = self._unit_profile(16)
        mk = lambda p: HierarchySequence(
            2, 0.5, tuple(FactorizedKernel(GRID, k, p) for k in (1, 2))
        )
        params = NormParams(alpha=1.0, xi=0.5)
        d = weighted_distance(mk(phi), mk(psi), params)
        expect = sum(
            0.5**k
            * level_diff_norm(
                FactorizedKernel(GRID, k, phi).materialize(),
                FactorizedKernel(GRID, k, psi).materialize(),
                1.0,
            )
            for k in (1, 2)
        )
        np.testing.assert_allclose(d, expect, rtol=1e-10)
        assert weighted_distance(mk(phi), mk(phi), params) == 0.0
