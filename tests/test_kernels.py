import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gphier import blocks
from gphier.spectral import GridSpec, forward_transform
from gphier.kernels import (
    FactorizedKernel,
    HierarchySequence,
    LowRankKernel,
    MarginalKernel,
    ResourceBudgetError,
    adjoint,
    as_dense,
    factorized,
    factorized_sequence,
    hermitize,
    hermiticity_defect,
    kernel_budget,
    load_kernel,
    load_wavefunction,
    permute_particles,
    random_test_kernel,
    save_kernel,
    save_wavefunction,
    symmetrize,
    symmetry_defect,
    trace,
)
from gphier.norms import level_diff_norm, sobolev_norm
from gphier.operators import Interaction, apply_btilde, collapse, free_evolve
from kernel_oracles import (
    is_hermitian,
    is_symmetric,
    partial_trace_last,
    symmetrize_bruteforce,
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
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            dense = lr.dense()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
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
                                       free_evolve(lr.materialize(), t).data,
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

    @pytest.mark.parametrize("kind, k", [("cubic", 3), ("quintic", 3)])
    def test_collapse(self, kind, k):
        lr = random_low_rank(GRID, k, 5, seed=10)
        interaction = Interaction(kind, -1)
        dense = lr.materialize()
        for got, want in ((collapse(lr, interaction), collapse(dense, interaction)),
                          (apply_btilde(lr, interaction), apply_btilde(dense, interaction))):
            assert isinstance(got, MarginalKernel)
            np.testing.assert_allclose(got.data, want.data, rtol=1e-13, atol=1e-13)

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

    def test_tiled_adjoint_is_conjugate_transpose(self):
        # 6^3 = 216 rows: several adjoint tiles, including ragged edge tiles
        for grid, k in ((GridSpec(1, 2 * np.pi, 6), 3), (GridSpec(2, 2 * np.pi, 4), 2)):
            kern = random_kernel_raw(grid, k, 4)
            half = k * grid.n
            axes = list(range(half, 2 * half)) + list(range(half))
            expect = np.conj(kern.data.transpose(axes))
            assert np.array_equal(adjoint(kern).data, expect)
            assert np.array_equal(hermitize(kern).data, 0.5 * (kern.data + expect))

    def test_hermitize_projects(self):
        kern = random_kernel_raw(GRID, 2, 1)
        h = hermitize(kern)
        assert hermiticity_defect(h) < 1e-14
        np.testing.assert_allclose(hermitize(h).data, h.data, rtol=1e-14)

    def test_random_kernel_not_symmetric(self):
        kern = random_kernel_raw(GRID, 2, 2)
        assert not is_symmetric(kern)
        assert not is_hermitian(kern)

    def test_symmetrize_matches_bruteforce(self):
        for k in (2, 3):
            kern = random_kernel_raw(GRID, k, 3 + k)
            fast = symmetrize(kern)
            brute = symmetrize_bruteforce(kern)
            np.testing.assert_allclose(fast.data, brute.data, rtol=1e-13, atol=1e-13)

    def test_symmetrize_idempotent_and_symmetric(self):
        kern = symmetrize(random_kernel_raw(GRID, 3, 9))
        assert symmetry_defect(kern) < 1e-12
        np.testing.assert_allclose(symmetrize(kern).data, kern.data, rtol=1e-12, atol=1e-13)

    def test_symmetrize_preserves_trace(self):
        kern = random_kernel_raw(GRID, 3, 10)
        assert trace(symmetrize(kern)) == pytest.approx(trace(kern), rel=1e-12)

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
        kern = MarginalKernel.zeros(GridSpec(1, 2 * np.pi, 10), 3)
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

    def test_zeros_budget(self):
        with pytest.raises(ResourceBudgetError):
            MarginalKernel.zeros(GRID, 3, budget=10_000)

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
