import os
import struct
import subprocess
import sys
from itertools import permutations
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from gphier import blocks
from gphier.spectral import GridSpec, forward_transform
from gphier.kernels import (
    FactorizedKernel,
    HierarchySequence,
    LowRankKernel,
    LowRankLevel,
    MarginalKernel,
    ResourceBudgetError,
    _hermiticity_defects,
    _symmetry_defects,
    as_dense,
    bracket_envelope,
    draw_bytes,
    factorized_sequence,
    frobenius_norm,
    product_norm,
    hermitize,
    hermiticity_defect,
    kernel_budget,
    load_kernel,
    load_wavefunction,
    random_test_kernel,
    save_kernel,
    save_wavefunction,
    symmetrize,
    symmetrize_bytes,
    symmetry_defect,
    thin_r,
    trace,
)
from gphier.norms import level_diff_norm, sobolev_norm
from gphier.operators import Interaction, apply_btilde, collapse, free_evolve
from kernel_oracles import (
    adjoint,
    copied,
    factorized,
    hermitize_whole,
    is_hermitian,
    is_symmetric,
    low_rank_node_defects,
    partial_trace_last,
    permute_particles,
    random_test_kernel_whole,
    symmetrize_bruteforce,
    symmetrize_whole,
    traced_peak,
    zeros,
)

GRID = GridSpec(1, 2 * np.pi, 6)
SRC = Path(__file__).resolve().parents[1] / "src"


def gaussian_phi(grid, width=1.0, amp=1.0):
    return amp * np.exp(-grid.positions ** 2 / (2.0 * width ** 2))


def random_kernel_raw(grid, k, seed):
    rng = np.random.default_rng(seed)
    shape = grid.kernel_shape(k)
    return MarginalKernel(grid, k, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestFactorized:
    def test_dense_structure(self):
        phi = gaussian_phi(GRID)
        kern = factorized(phi, GRID, 2)
        phihat = forward_transform(phi, GRID)
        expect = np.einsum("a,b,c,d->abcd", phihat, phihat, np.conj(phihat), np.conj(phihat))
        np.testing.assert_allclose(kern.data, expect, rtol=1e-13)

    def test_lazy_matches_dense(self):
        phi = gaussian_phi(GRID, width=0.7)
        lazy = FactorizedKernel.from_position(phi, GRID, 3)
        np.testing.assert_allclose(lazy.materialize().data, factorized(phi, GRID, 3).data, rtol=1e-13)

    def test_trace_is_mass_power(self):
        phi = gaussian_phi(GRID, amp=0.9)
        mass = np.sum(np.abs(phi) ** 2) * (GRID.L / GRID.M)
        for k in (1, 2, 3):
            dense = factorized(phi, GRID, k)
            assert trace(dense) == pytest.approx(mass ** k, rel=1e-10)
            lazy = FactorizedKernel.from_position(phi, GRID, k)
            assert trace(lazy) == pytest.approx(mass ** k, rel=1e-10)

    def test_factorized_is_symmetric_and_hermitian(self):
        kern = factorized(gaussian_phi(GRID), GRID, 3)
        assert is_symmetric(kern)
        assert is_hermitian(kern)


def random_low_rank(grid, k, r, seed):
    rng = np.random.default_rng(seed)
    shape = (grid.M ** (k * grid.n), r)
    U, V = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    return LowRankKernel(grid, k, U, V)


class TestLowRankKernel:
    """Each operation on U V^H against the same operation on the
    materialized kernel."""

    GRIDS = [(GRID, 3), (GridSpec(2, 3.0, 4), 2)]

    @pytest.mark.parametrize("grid, k", GRIDS)
    def test_materialize_is_the_factor_product(self, grid, k):
        lr = random_low_rank(grid, k, 5, seed=1)
        rows = lr.U.shape[0]
        dense = as_dense(lr)
        assert dense.data.shape == grid.kernel_shape(k)
        np.testing.assert_allclose(dense.data.reshape(rows, rows),
                                   lr.U @ lr.V.conj().T, rtol=1e-14, atol=1e-14)
        assert lr.rank == 5

    def test_materialize_allocates_only_its_output(self):
        # an M=8, k=3, rank-19 node: the row-block products need no scratch
        lr = random_low_rank(GridSpec(1, 2 * np.pi, 8), 3, 19, seed=4)
        dense, peak = traced_peak(lr.dense)
        assert peak - dense.nbytes < 500_000

    def test_factor_shapes_validated(self):
        lr = random_low_rank(GRID, 2, 3, seed=2)
        with pytest.raises(ValueError):
            LowRankKernel(GRID, 3, lr.U, lr.V)
        with pytest.raises(ValueError):
            LowRankKernel(GRID, 2, lr.U, lr.V[:, :2])
        with pytest.raises(ValueError):
            LowRankKernel(GRID, 0, lr.U, lr.V)

    def test_materialize_checks_the_budget(self):
        lr = random_low_rank(GRID, 3, 2, seed=3)
        with pytest.raises(ResourceBudgetError):
            lr.materialize(budget=GRID.kernel_bytes(3) - 1)

    def test_from_factorized_is_the_product_state(self):
        lazy = FactorizedKernel.from_position(gaussian_phi(GRID, amp=1.2), GRID, 3)
        lr = LowRankKernel.from_factorized(lazy)
        assert lr.rank == 1
        np.testing.assert_allclose(lr.materialize().data, lazy.materialize().data,
                                   rtol=1e-14)

    @pytest.mark.parametrize("grid, k", GRIDS)
    def test_free_phase(self, grid, k):
        lr = random_low_rank(grid, k, 4, seed=4)
        for t in (0.37, -0.21):
            got = free_evolve(lr, t)
            assert isinstance(got, LowRankKernel) and got.rank == 4
            np.testing.assert_allclose(got.materialize().data,
                                       as_dense(free_evolve(lr.materialize(), t)).data,
                                       rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("grid, k", GRIDS)
    def test_trace(self, grid, k):
        lr = random_low_rank(grid, k, 4, seed=5)
        assert trace(lr) == pytest.approx(trace(lr.materialize()), rel=1e-13)

    @pytest.mark.parametrize("grid, k", GRIDS)
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_norm_and_gap(self, grid, k, alpha):
        a = random_low_rank(grid, k, 4, seed=6)
        b = random_low_rank(grid, k, 3, seed=7)
        lazy = FactorizedKernel(grid, k, np.ones((grid.M,) * grid.n, dtype=complex))
        dense_a = a.materialize()
        assert sobolev_norm(a, alpha) == pytest.approx(sobolev_norm(dense_a, alpha),
                                                       rel=1e-13)
        for other in (b, lazy, b.materialize()):
            want = level_diff_norm(dense_a, as_dense(other), alpha)
            assert level_diff_norm(a, other, alpha) == pytest.approx(want, rel=1e-12)
            assert level_diff_norm(other, a, alpha) == pytest.approx(want, rel=1e-12)

    def test_gap_of_close_states_keeps_its_digits(self):
        # two kernels 1e-9 apart: a Gram-matrix formula would cancel
        # ||a||^2 + ||b||^2 - 2 Re<a, b> down to rounding noise
        a = random_low_rank(GRID, 2, 4, seed=8)
        dU = np.random.default_rng(9).standard_normal(a.U.shape) * 1e-9
        b = LowRankKernel(GRID, 2, a.U + dU, a.V)
        want = sobolev_norm(LowRankKernel(GRID, 2, dU, a.V), 1.0)
        assert level_diff_norm(a, b, 1.0) == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("kind, grid, k", [
        ("cubic", GRID, 3), ("quintic", GRID, 3),
        # n = 2: the smallest kernels each arity collapses (268 MB dense quintic)
        ("cubic", GridSpec(2, 3.0, 4), 2), ("quintic", GridSpec(2, 3.0, 4), 3),
    ])
    def test_collapse_from_the_factors(self, kind, grid, k):
        # low rank in, low rank out (2 T r columns, T = M^n or (2M-1)^n
        # lattice-index sums), against the dense collapse of the multiplied-out
        # kernel: the default terms, Btilde and every single (j, side, sign)
        r = 3
        lr = random_low_rank(grid, k, r, seed=10)
        interaction = Interaction(kind, -1)
        dense = lr.materialize()
        groups = (grid.M if kind == "cubic" else 2 * grid.M - 1) ** grid.n
        kept = k - interaction.source_offset
        singles = [[(j, side, sign)] for j in range(1, kept + 1) for side in (1, 2)
                   for sign in (1, -1)]
        pairs = [(collapse(lr, interaction), collapse(dense, interaction)),
                 (apply_btilde(lr, interaction), apply_btilde(dense, interaction))]
        pairs += [(collapse(lr, interaction, t), collapse(dense, interaction, t))
                  for t in singles]
        for i, (got, want) in enumerate(pairs):
            assert isinstance(got, LowRankKernel)
            assert got.rank == (2 if i < 2 else 1) * groups * r
            scale = np.max(np.abs(want.data))
            assert np.max(np.abs(got.dense() - want.data)) <= 1e-13 * scale

    def test_factorized_collapse_is_two_columns(self):
        # S_1 P^H + P S_2^H, with P the prefix product of the profile
        lazy = FactorizedKernel.from_position(gaussian_phi(GRID), GRID, 3)
        out = collapse(lazy, Interaction())
        assert isinstance(out, LowRankKernel) and out.rank == 2
        p = LowRankKernel.from_factorized(FactorizedKernel(GRID, 2, lazy.phi_hat)).U[:, 0]
        assert np.array_equal(out.V[:, 0], p) and np.array_equal(out.U[:, 1], p)
        one_side = collapse(lazy, Interaction(), [(1, 2, 1)])
        assert one_side.rank == 1 and np.array_equal(one_side.U[:, 0], p)


class TestSymmetryOps:
    def test_adjoint_involution(self):
        kern = random_kernel_raw(GRID, 2, 0)
        np.testing.assert_allclose(adjoint(adjoint(kern)).data, kern.data, rtol=1e-15)

    def test_tiled_hermitize_averages_conjugate_transpose(self):
        # 6^3 = 216 rows: several hermitize tiles, including ragged edge tiles
        for grid, k in ((GridSpec(1, 2 * np.pi, 6), 3), (GridSpec(2, 2 * np.pi, 4), 2)):
            kern = random_kernel_raw(grid, k, 4)
            expect = adjoint(kern).data
            assert np.array_equal(hermitize(copied(kern)).data, 0.5 * (kern.data + expect))

    def test_hermitize_projects(self):
        kern = random_kernel_raw(GRID, 2, 1)
        h = hermitize(copied(kern))
        assert hermiticity_defect(h) < 1e-14
        np.testing.assert_allclose(hermitize(copied(h)).data, h.data, rtol=1e-14)

    def test_random_kernel_not_symmetric(self):
        kern = random_kernel_raw(GRID, 2, 2)
        assert not is_symmetric(kern)
        assert not is_hermitian(kern)

    def test_symmetrize_matches_bruteforce(self):
        for k in (2, 3):
            kern = random_kernel_raw(GRID, k, 3 + k)
            fast = symmetrize(copied(kern))
            brute = symmetrize_bruteforce(kern)
            np.testing.assert_allclose(fast.data, brute.data, rtol=1e-13, atol=1e-13)

    def test_symmetrize_idempotent_and_symmetric(self):
        kern = symmetrize(random_kernel_raw(GRID, 3, 9))
        assert symmetry_defect(kern) < 1e-12
        np.testing.assert_allclose(symmetrize(copied(kern)).data, kern.data,
                                   rtol=1e-12, atol=1e-13)

    def test_symmetrize_preserves_trace(self):
        kern = random_kernel_raw(GRID, 3, 10)
        assert trace(symmetrize(copied(kern))) == pytest.approx(trace(kern), rel=1e-12)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_projections_in_place_match_whole_array_passes(self, monkeypatch, workers):
        # 216 rows (ragged tiles) and 256
        monkeypatch.setattr(blocks, "WORKERS", workers)
        monkeypatch.setattr(blocks, "MIN_POOLED", 0)
        for grid, k in ((GridSpec(1, 2 * np.pi, 6), 3), (GridSpec(2, 2 * np.pi, 4), 2)):
            kern = random_kernel_raw(grid, k, 12)
            want = hermitize_whole(kern).data
            got = hermitize(kern)
            assert np.shares_memory(got.data, kern.data)
            assert np.array_equal(got.data, want)
        for k in (2, 3, 4):
            grid = GridSpec(1, 2 * np.pi, 6 if k < 4 else 4)
            kern = random_kernel_raw(grid, k, 13 + k)
            want = symmetrize_whole(copied(kern)).data
            got = symmetrize(kern)
            assert np.shares_memory(got.data, kern.data)
            assert np.array_equal(got.data, want)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n, M, k", [(1, 6, 1), (1, 6, 2), (1, 6, 3), (1, 6, 4),
                                         (1, 10, 3), (1, 4, 5), (1, 4, 6), (2, 4, 2),
                                         (2, 4, 3), (2, 6, 2)])
    def test_symmetrize_over_orbits_is_in_place_and_bitwise(self, monkeypatch, workers,
                                                            n, M, k):
        # M=10, k=3 cuts 10 indices into ranges of 3, 3 and 4; (1, 4, 5)
        # into two ranges, and (2, 4, 3) into 8 of the 16 per particle
        monkeypatch.setattr(blocks, "WORKERS", workers)
        monkeypatch.setattr(blocks, "MIN_POOLED", 0)
        grid = GridSpec(n, 2 * np.pi, M)
        shape = grid.kernel_shape(k)
        rng = np.random.default_rng(10 * M + k)
        kern = MarginalKernel(grid, k, rng.standard_normal(shape + (2,)).view(np.complex128)
                              .reshape(shape))
        want = symmetrize_whole(kern).data
        brute = symmetrize_bruteforce(kern).data if M ** (2 * k * n) <= 2**20 else None
        got, peak = traced_peak(lambda: symmetrize(kern))
        assert np.shares_memory(got.data, kern.data)
        assert np.array_equal(got.data, want)
        if brute is not None:
            np.testing.assert_allclose(got.data, brute, rtol=1e-12, atol=1e-14)
        if k > 1:  # k = 1 allocates nothing; the peak is the call's own frame
            assert peak <= symmetrize_bytes(grid, k)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_random_test_kernel_matches_whole_array_passes(self, monkeypatch, workers):
        monkeypatch.setattr(blocks, "WORKERS", workers)
        monkeypatch.setattr(blocks, "MIN_POOLED", 0)
        for grid, k in ((GridSpec(1, 2 * np.pi, 6), 3), (GridSpec(2, 2 * np.pi, 4), 2),
                        (GridSpec(1, 2 * np.pi, 4), 4)):
            got = random_test_kernel(grid, k, alpha=1.0, seed=31)
            assert np.array_equal(got.data, random_test_kernel_whole(grid, k, 1.0, 31).data)

    @pytest.mark.parametrize("n, M, k", [(1, 8, 3), (1, 10, 3), (2, 4, 2)])
    def test_random_test_kernel_budget_check_covers_the_traced_peak(self, n, M, k):
        # the check counted the draw alone, while symmetrize allocated a
        # second kernel-sized array beside it
        grid = GridSpec(n, 2 * np.pi, M)
        checked = grid.kernel_bytes(k) + symmetrize_bytes(grid, k)
        with pytest.raises(ResourceBudgetError):
            random_test_kernel(grid, k, alpha=1.0, seed=3, budget=checked - 1)
        _, peak = traced_peak(lambda: random_test_kernel(grid, k, 1.0, seed=3, budget=checked))
        assert peak <= checked

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n, M", [(1, 8), (1, 16), (2, 4)])
    def test_random_test_kernel_budget_check_covers_hermitize_at_k1(self, monkeypatch,
                                                                   workers, n, M):
        # symmetrize holds nothing at k = 1, and the check counted the draw
        # alone (1-4 kB) while hermitize's tile buffers took about 70 kB
        monkeypatch.setattr(blocks, "WORKERS", workers)
        grid = GridSpec(n, 2 * np.pi, M)
        checked = draw_bytes(grid, 1)
        with pytest.raises(ResourceBudgetError):
            random_test_kernel(grid, 1, alpha=1.0, seed=3, budget=checked - 1)
        _, peak = traced_peak(lambda: random_test_kernel(grid, 1, 1.0, seed=3, budget=checked))
        assert peak <= checked

    def test_random_test_kernel_holds_one_kernel(self, monkeypatch):
        # the draw and two runs' orbit buffers (0.375 kernels); a scratch
        # copy of the draw took 2.2 kernels
        monkeypatch.setattr(blocks, "WORKERS", 2)
        grid = GridSpec(1, 2 * np.pi, 12)
        _, peak = traced_peak(lambda: random_test_kernel(grid, 3, alpha=1.0, seed=3))
        assert peak <= 1.4 * grid.kernel_bytes(3)

    def test_permute_particles_swap(self):
        kern = random_kernel_raw(GRID, 3, 11)
        swapped = permute_particles(kern, (1, 0, 2))
        np.testing.assert_allclose(permute_particles(swapped, (1, 0, 2)).data, kern.data)
        assert not np.allclose(swapped.data, kern.data)


def reference_defects(kern):
    """(hermiticity, symmetry) defects from whole-array differences."""
    data, k, n = kern.data, kern.k, kern.grid.n
    half = k * n
    scale = np.linalg.norm(data)
    if scale == 0.0:
        return 0.0, 0.0
    adj = np.conj(data.transpose(list(range(half, 2 * half)) + list(range(half))))
    herm = np.linalg.norm(data - adj) / scale
    symm = 0.0
    for i in range(1, k):
        sigma = list(range(k))
        sigma[0], sigma[i] = sigma[i], sigma[0]
        axes = [a for j in sigma for a in range(j * n, (j + 1) * n)]
        axes += [a + half for a in axes]
        symm = max(symm, np.linalg.norm(data - data.transpose(axes)) / scale)
    return herm, symm


class TestDefects:
    @pytest.mark.parametrize("grid, k", [
        # 1000 rows: ragged edge tiles, and 10 leading-axis slices per swap
        (GridSpec(1, 2 * np.pi, 10), 3),
        (GridSpec(1, 2 * np.pi, 10), 1),
        (GridSpec(2, 2 * np.pi, 4), 2),
    ])
    def test_match_whole_array_differences(self, grid, k):
        kern = random_kernel_raw(grid, k, 12)
        herm, symm = reference_defects(kern)
        assert herm > 0.1 and (k == 1 or symm > 0.1)
        assert hermiticity_defect(kern) == pytest.approx(herm, rel=1e-12)
        assert symmetry_defect(kern) == pytest.approx(symm, rel=1e-12, abs=0.0)

    def test_zero_kernel(self):
        kern = zeros(GridSpec(1, 2 * np.pi, 10), 3)
        assert hermiticity_defect(kern) == 0.0
        assert symmetry_defect(kern) == 0.0

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-9j])
    def test_near_invariant_kernels_match_whole_array_differences(self, eps):
        # an exactly Hermitian kernel with a rounding-level symmetry defect,
        # then a Hermitian and an anti-Hermitian exchange-symmetric perturbation
        grid = GridSpec(1, 2 * np.pi, 8)
        a = random_test_kernel(grid, 3, alpha=1.0, seed=5).data
        b = random_test_kernel(grid, 3, alpha=1.0, seed=6).data
        kern = MarginalKernel(grid, 3, a + eps * np.conj(b))
        herm, symm = reference_defects(kern)
        assert 0.0 < symm < 1e-15 and (herm > 1e-10) == (eps == 1e-9j)
        assert hermiticity_defect(kern) == pytest.approx(herm, rel=1e-12, abs=0.0)
        assert symmetry_defect(kern) == pytest.approx(symm, rel=1e-12, abs=0.0)

    @pytest.mark.skipif(blocks.WORKERS < 2, reason="needs 2 CPUs")
    def test_independent_of_blas_thread_count(self):
        script = (
            "import numpy as np\n"
            "from gphier.kernels import MarginalKernel, hermiticity_defect, "
            "random_test_kernel, symmetry_defect\n"
            "from gphier.spectral import GridSpec\n"
            "grid = GridSpec(1, 2 * np.pi, 8)\n"
            "a = random_test_kernel(grid, 3, alpha=1.0, seed=5).data\n"
            "b = np.conj(random_test_kernel(grid, 3, alpha=1.0, seed=6).data)\n"
            "for eps in (1e-9, 1e-9j):\n"
            "    kern = MarginalKernel(grid, 3, a + eps * b)\n"
            "    print(repr(hermiticity_defect(kern)), repr(symmetry_defect(kern)))\n"
        )
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        outs = [
            subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": path,
                                "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")
        ]
        assert outs[0] == outs[1]
        assert len(outs[0].split()) == 4


def hermitian_symmetric_factors(grid, k, r, seed):
    """U = [A, B], V = [B, A] with exchange-symmetric rows: U V^H = A B^H +
    B A^H is exactly hermitian and exactly symmetric."""
    rng = np.random.default_rng(seed)
    M, n = grid.M, grid.n
    shape = (M,) * (k * n) + (r,)
    halves = []
    for _ in range(2):
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        sym = sum(raw.transpose([a for j in sigma for a in range(j * n, (j + 1) * n)]
                                + [k * n]) for sigma in permutations(range(k)))
        halves.append(sym.reshape(-1, r) / factorial(k))
    A, B = halves
    return np.hstack([A, B]), np.hstack([B, A])


def long_double_defects(U, V, grid, k):
    """(hermiticity, symmetry) defects of U V^H in long double."""
    M, n = grid.M, grid.n
    mat = U.astype(np.clongdouble) @ np.conj(V.T.astype(np.clongdouble))

    def norm(x):
        return np.sqrt(np.sum(x.real**2 + x.imag**2))

    scale = norm(mat)
    herm = norm(mat - np.conj(mat.T)) / scale
    symm = 0.0
    index = np.arange(mat.shape[0]).reshape((M,) * (k * n))
    for i in range(1, k):
        sigma = list(range(k))
        sigma[0], sigma[i] = sigma[i], sigma[0]
        p = index.transpose([a for j in sigma for a in range(j * n, (j + 1) * n)]).reshape(-1)
        symm = max(symm, norm(mat - mat[np.ix_(p, p)]) / scale)
    return float(herm), float(symm)


class TestLowRankDefects:
    """Defects and norm of U V^H from a thin QR of the factors."""

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-9j])
    @pytest.mark.parametrize("grid, k", [(GridSpec(1, 2 * np.pi, 8), 3),
                                         (GridSpec(2, 3.0, 4), 2)])
    def test_against_long_double(self, grid, k, eps):
        # exactly hermitian-symmetric factors, then a perturbation that
        # breaks both symmetries at 1e-9
        U, V = hermitian_symmetric_factors(grid, k, 4, seed=40)
        rng = np.random.default_rng(41)
        U = U + eps * (rng.standard_normal(U.shape) + 1j * rng.standard_normal(U.shape))
        lr = LowRankKernel(grid, k, U, V)
        herm, symm = long_double_defects(U, V, grid, k)
        assert (herm > 1e-11) == (symm > 1e-11) == (eps != 0.0)
        for got, want in ((hermiticity_defect(lr), herm), (symmetry_defect(lr), symm)):
            assert abs(got - want) <= 1e-12
        dense = lr.materialize()
        assert product_norm(U, V) == pytest.approx(frobenius_norm(dense), rel=1e-13)
        for alpha in (0.0, 1.0):
            w = bracket_envelope(grid, k, alpha).reshape(-1).astype(np.longdouble)
            mat = U.astype(np.clongdouble) @ np.conj(V.T.astype(np.clongdouble))
            weighted = w[:, None] * mat * w
            want = np.sqrt(np.sum(weighted.real**2 + weighted.imag**2)
                           * np.longdouble(grid.measure_weight) ** (2 * k))
            assert sobolev_norm(lr, alpha) == pytest.approx(float(want), rel=1e-13)

    def test_zero_and_one_particle(self):
        grid = GridSpec(1, 2 * np.pi, 8)
        zero = LowRankKernel(grid, 2, np.zeros((64, 3)), np.ones((64, 3)))
        assert product_norm(zero.U, zero.V) == 0.0
        assert hermiticity_defect(zero) == symmetry_defect(zero) == 0.0
        one = random_low_rank(grid, 1, 3, seed=42)
        assert symmetry_defect(one) == 0.0

    @pytest.mark.parametrize("rows, columns", [(300, 6), (5, 9)])
    def test_thin_r_is_a_qr_factor(self, rows, columns):
        # R^H R = X^H X and R is upper triangular, also for a zero column
        # and for fewer rows than columns (a collapse's 2 T r columns)
        rng = np.random.default_rng(43)
        x = rng.standard_normal((rows, columns)) + 1j * rng.standard_normal((rows, columns))
        x[:, 2] = 0.0
        r = thin_r(x)
        assert np.array_equal(r, np.triu(r)) and not r[rows:].any()
        np.testing.assert_allclose(np.conj(r.T) @ r, np.conj(x.T) @ x, atol=1e-12 * rows)

    @pytest.mark.skipif(blocks.WORKERS < 2, reason="needs 2 CPUs")
    def test_independent_of_blas_thread_count(self):
        # a level-3 node of an M=12 solve: 1728 rows, 19 columns, exactly
        # hermitian-symmetric ([A, B, C] [B, A, C]^H with symmetric rows),
        # then perturbed at 1e-9, so the defects are all cancellation
        script = (
            "import itertools\n"
            "import numpy as np\n"
            "from gphier.kernels import LowRankKernel, hermiticity_defect, product_norm, "
            "symmetry_defect\n"
            "from gphier.norms import sobolev_norm\n"
            "from gphier.spectral import GridSpec\n"
            "grid = GridSpec(1, 2 * np.pi, 12)\n"
            "rng = np.random.default_rng(44)\n"
            "shape = (12, 12, 12, 19)\n"
            "raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)\n"
            "X = sum(raw.transpose(list(s) + [3]) for s in itertools.permutations(range(3)))\n"
            "X = X.reshape(1728, 19)\n"
            "A, B, C = X[:, :9], X[:, 9:18], X[:, 18:]\n"
            "U, V = np.hstack([A, B, C]), np.hstack([B, A, C])\n"
            "noise = rng.standard_normal((1728, 19)) * 1e-9\n"
            "for eps in (0.0, 1.0):\n"
            "    lr = LowRankKernel(grid, 3, U + eps * noise, V)\n"
            "    print(repr(product_norm(lr.U, lr.V)), repr(hermiticity_defect(lr)),\n"
            "          repr(symmetry_defect(lr)), repr(sobolev_norm(lr, 1.0)))\n"
        )
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        outs = [
            subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": path,
                                "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")
        ]
        assert outs[0] == outs[1]
        assert len(outs[0].split()) == 8


# The level path (one QR per stack) against the per-node formulas: the same
# quantities through different QRs, so they agree to rounding, absolutely,
# on the relative defects.
LEVEL_DEFECT_TOL = 1e-14


def random_level(grid, k, nodes, seed, eps=1.0):
    """A LowRankLevel of hermitian, exchange-symmetric rank-2 integrands,
    their U perturbed by eps times complex noise: node i weighs integrand j
    by a random weight, and integrand 1 by 0 at node 2 (left out of that
    node's factors, but inside its prefix of the stack); node 0 is start's
    column alone, as in a solve.  Returns the closed level and its nodes."""
    rng = np.random.default_rng(seed)
    a = hermitian_symmetric_factors(grid, k, 1, seed)[0][:, :1]
    level = LowRankLevel(LowRankKernel(grid, k, a, a.copy()))
    made = []
    for i in range(nodes):
        A, B = hermitian_symmetric_factors(grid, k, 1, seed + 1 + i)
        noise = rng.standard_normal(A.shape) + 1j * rng.standard_normal(A.shape)
        w = rng.uniform(0.1, 1.0, i + 1) if i else np.zeros(1)
        if i == 2:
            w[1] = 0.0
        made.append(level.add(LowRankKernel(grid, k, A + eps * noise, B), w))
    level.close(made[-1])
    return level, made


class TestLowRankLevelDefects:
    """Every node's defects from one QR per stack of the level."""

    @pytest.mark.parametrize("eps", [1.0, 1e-9, 0.0])
    @pytest.mark.parametrize("grid, k", [(GridSpec(1, 2 * np.pi, 8), 3),
                                         (GridSpec(2, 3.0, 4), 2)])
    def test_match_each_node_from_its_own_factors(self, grid, k, eps):
        level, nodes = random_level(grid, k, 5, seed=60, eps=eps)
        herm, symm = _hermiticity_defects(level), _symmetry_defects(level)
        assert len(herm) == len(symm) == len(nodes)
        for i, (got_h, got_s, node) in enumerate(zip(herm, symm, nodes)):
            want_h, want_s = low_rank_node_defects(node)
            # node 0, start's column alone, is exactly hermitian-symmetric
            assert (want_h > 1e-12) == (want_s > 1e-12) == (eps != 0.0 and i > 0)
            assert abs(got_h - want_h) <= LEVEL_DEFECT_TOL
            assert abs(got_s - want_s) <= LEVEL_DEFECT_TOL
        assert hermiticity_defect(level) == max(herm)
        assert symmetry_defect(level) == max(symm)

    def test_nodes_are_prefixes_of_the_stack(self):
        # the stack is the last node's factors, each node's weights relative
        # to the last node's
        grid = GridSpec(1, 2 * np.pi, 6)
        level, nodes = random_level(grid, 2, 4, seed=61)
        U, V, W = level.stacks
        assert U is nodes[-1].U and V is nodes[-1].V
        assert U.shape == (36, 1 + 2 * 4) and W.shape == (4, 9)
        for node, w in zip(nodes, W):
            m = np.flatnonzero(w)[-1] + 1
            kept = w[:m] != 0.0
            np.testing.assert_allclose(node.U, (U[:, :m] * w[:m])[:, kept], rtol=1e-15)
            np.testing.assert_array_equal(node.V, V[:, :m][:, kept])
        assert W[0].tolist() == [1.0] + [0.0] * 8  # start's column alone
        assert W[2, 3:5].tolist() == [0.0, 0.0]    # integrand 1 weighs 0 at node 2
        assert W[3].tolist() == [1.0] * 9

    def test_last_node_must_weigh_every_column(self):
        grid = GridSpec(1, 2 * np.pi, 6)
        level = LowRankLevel(random_low_rank(grid, 2, 1, seed=65))
        level.add(random_low_rank(grid, 2, 2, seed=66), np.ones(1))
        last = level.add(random_low_rank(grid, 2, 2, seed=67), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="every column"):
            level.close(last)

    def test_zero_level(self):
        # an all-zero level, or zero nodes in a nonzero level, have zero
        # defects rather than a zero division
        grid = GridSpec(1, 2 * np.pi, 8)
        zero = LowRankKernel(grid, 3, np.zeros((512, 1)), np.zeros((512, 1)))
        level = LowRankLevel(zero)
        for i in range(3):
            node = level.add(LowRankKernel(grid, 3, np.zeros((512, 2)), np.ones((512, 2))),
                             np.full(i + 1, 0.5))
        level.close(node)
        assert _hermiticity_defects(level) == _symmetry_defects(level) == [0.0] * 3
        assert hermiticity_defect(level) == symmetry_defect(level) == 0.0
        live = LowRankLevel(zero)
        live.add(random_low_rank(grid, 3, 2, seed=62), np.zeros(1))
        live.close(live.add(random_low_rank(grid, 3, 2, seed=63), np.ones(2)))
        for defects in (_hermiticity_defects(live), _symmetry_defects(live)):
            assert defects[0] == 0.0 and defects[1] > 0.1

    @pytest.mark.parametrize("rows, columns", [(300, 12), (7, 12)])
    def test_thin_r_prefix_property(self, rows, columns):
        # the R of a leading block of columns is the leading block of R,
        # bitwise: what lets one QR of a stack serve every node
        rng = np.random.default_rng(64)
        x = rng.standard_normal((rows, columns)) + 1j * rng.standard_normal((rows, columns))
        x[:, 4] = x[:, 1]  # a dependent column
        r = thin_r(x)
        for m in range(1, columns + 1):
            assert np.array_equal(thin_r(x[:, :m]), r[:m, :m])


class TestTraces:
    def test_partial_trace_factorized(self):
        phi = gaussian_phi(GRID)
        phi = phi / np.sqrt(np.sum(np.abs(phi) ** 2) * (GRID.L / GRID.M))  # unit mass
        k3 = factorized(phi, GRID, 3)
        k2 = factorized(phi, GRID, 2)
        np.testing.assert_allclose(partial_trace_last(k3).data, k2.data, rtol=1e-10, atol=1e-12)

    def test_partial_trace_lazy_matches_dense(self):
        phi = gaussian_phi(GRID, amp=1.3)
        lazy = partial_trace_last(FactorizedKernel.from_position(phi, GRID, 3))
        dense = partial_trace_last(factorized(phi, GRID, 3))
        np.testing.assert_allclose(lazy.materialize().data, dense.data, rtol=1e-11)

    def test_partial_trace_consistent_with_trace(self):
        kern = random_kernel_raw(GRID, 2, 12)
        assert trace(partial_trace_last(kern)) == pytest.approx(trace(kern), rel=1e-12)

    def test_partial_trace_needs_two_particles(self):
        with pytest.raises(ValueError):
            partial_trace_last(random_kernel_raw(GRID, 1, 13))


class TestRandomTestKernel:
    def test_seed_reproducible(self):
        a = random_test_kernel(GRID, 2, 1.0, seed=42)
        b = random_test_kernel(GRID, 2, 1.0, seed=42)
        np.testing.assert_array_equal(a.data, b.data)
        c = random_test_kernel(GRID, 2, 1.0, seed=43)
        assert not np.allclose(a.data, c.data)

    def test_projections_applied(self):
        kern = random_test_kernel(GRID, 3, 1.0, seed=7)
        assert is_symmetric(kern, tol=1e-10)
        assert is_hermitian(kern, tol=1e-10)
        assert np.all(np.isfinite(kern.data.view(float)))
        assert np.linalg.norm(kern.data.ravel()) > 0


class TestSerialization:
    def test_kernel_round_trip(self, tmp_path):
        kern = random_test_kernel(GRID, 2, 0.5, seed=5)
        path = tmp_path / "k2.bin"
        save_kernel(path, kern)
        back = load_kernel(path)
        assert back.grid == GRID
        assert back.k == 2
        np.testing.assert_array_equal(back.data, kern.data)

    @pytest.mark.parametrize("kind", ["evolved", "low_rank"])
    def test_lazy_kernel_is_written_row_slice_by_row_slice(self, tmp_path, kind):
        # as_dense's copy took 1.2 kernels (evolved) and 1.0 (low rank)
        grid = GridSpec(1, 2 * np.pi, 10)
        lazy = (free_evolve(random_test_kernel(grid, 3, 0.5, seed=6), 0.3) if kind == "evolved"
                else random_low_rank(grid, 3, 5, seed=6).free_evolved(0.3))
        path, dense_path = tmp_path / "k3.bin", tmp_path / "dense.bin"
        _, peak = traced_peak(lambda: save_kernel(path, lazy))
        save_kernel(dense_path, as_dense(lazy))
        assert path.read_bytes() == dense_path.read_bytes()
        assert peak <= 0.1 * grid.kernel_bytes(3)
        with pytest.raises(ResourceBudgetError):
            save_kernel(tmp_path / "refused.bin", lazy, budget=grid.kernel_bytes(3) - 1)

    def test_wavefunction_round_trip(self, tmp_path):
        phihat = forward_transform(gaussian_phi(GRID), GRID)
        path = tmp_path / "phi.bin"
        save_wavefunction(path, phihat, GRID)
        grid, back = load_wavefunction(path)
        assert grid == GRID
        np.testing.assert_array_equal(back, phihat)

    def test_type_confusion_rejected(self, tmp_path):
        path = tmp_path / "phi.bin"
        save_wavefunction(path, forward_transform(gaussian_phi(GRID), GRID), GRID)
        with pytest.raises(ValueError):
            load_kernel(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "k1.bin"
        save_kernel(path, factorized(gaussian_phi(GRID), GRID, 1))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError):
            load_kernel(path)

    @pytest.mark.parametrize("n, M, k", [(0, 4, 1), (1, 0, 1), (1, 4, -1)])
    def test_invalid_header_fields_rejected(self, tmp_path, n, M, k):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<idii", n, 2 * np.pi, M, k))
        with pytest.raises(ValueError, match="invalid kernel file header"):
            load_kernel(path)

    def test_oversized_header_refused_before_reading(self, tmp_path):
        path = tmp_path / "huge.bin"
        path.write_bytes(struct.pack("<idii", 2**30, 2 * np.pi, 4, 2**30))
        with pytest.raises(ResourceBudgetError):
            load_kernel(path)


class TestBudget:
    def test_oversized_materialization_refused(self):
        with pytest.raises(ResourceBudgetError):
            factorized(gaussian_phi(GRID), GRID, 2, budget=1024)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("GPHIER_BUDGET_BYTES", "1000")
        with pytest.raises(ResourceBudgetError):
            random_test_kernel(GRID, 2, 1.0, seed=1)
        monkeypatch.setenv("GPHIER_BUDGET_BYTES", "1e9")
        random_test_kernel(GRID, 2, 1.0, seed=1)

    def test_malformed_env_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("GPHIER_BUDGET_BYTES", "lots")
        with pytest.raises(ValueError, match="GPHIER_BUDGET_BYTES"):
            kernel_budget()
        with pytest.raises(ValueError, match="GPHIER_BUDGET_BYTES"):
            random_test_kernel(GRID, 2, 1.0, seed=1)


class TestHierarchySequence:
    def test_basic(self):
        phi = gaussian_phi(GRID)
        seq = factorized_sequence(phi, GRID, 3, xi=0.5)
        assert seq.K == 3
        assert seq.level(2).k == 2
        assert seq.grid == GRID

    def test_lazy_tail(self):
        seq = factorized_sequence(gaussian_phi(GRID), GRID, 4, xi=0.5, dense_up_to=2)
        assert isinstance(seq.level(2), MarginalKernel)
        assert isinstance(seq.level(3), FactorizedKernel)
        assert isinstance(seq.level(4), FactorizedKernel)

    def test_validation(self):
        phi = gaussian_phi(GRID)
        lv1 = factorized(phi, GRID, 1)
        lv2 = factorized(phi, GRID, 2)
        with pytest.raises(ValueError):
            HierarchySequence(2, 0.5, (lv2, lv1))
        with pytest.raises(ValueError):
            HierarchySequence(2, 1.5, (lv1, lv2))
