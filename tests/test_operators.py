"""Free evolution and collapse operators against brute-force and closed-form oracles."""

import numpy as np
import pytest

from gphier.kernels import (
    FactorizedKernel,
    MarginalKernel,
    as_dense,
    factorized,
    hermitize,
    is_hermitian,
    partial_trace_last,
    random_test_kernel,
    symmetrize,
    trace,
)
from gphier.operators import (
    Interaction,
    apply_btilde,
    collapse_b1,
    collapse_b2,
    collapse_cubic,
    collapse_q1,
    collapse_q2,
    collapse_quintic,
    collapse_sum_cubic,
    collapse_sum_quintic,
    cubic_collapse_profile,
    cubic_contractions,
    free_evolve,
    quintic_collapse_profile,
)
from gphier.spectral import GridSpec, forward_transform, inverse_transform

GRID = GridSpec(n=1, L=2 * np.pi, M=6)


def random_dense(grid, k, seed):
    rng = np.random.default_rng(seed)
    shape = grid.kernel_shape(k)
    return MarginalKernel(
        grid, k, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )


def random_profile(grid, seed, band=None):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(grid.kernel_shape(1)[:grid.n]) * 0j
    phi += rng.standard_normal(phi.shape) + 1j * rng.standard_normal(phi.shape)
    if band is not None:
        mask = np.zeros(grid.M, dtype=bool)
        mask[np.abs(grid.modes) <= band] = True
        for axis in range(grid.n):
            shape = [1] * grid.n
            shape[axis] = grid.M
            phi = phi * mask.reshape(shape)
    return phi


class TestInteraction:
    def test_defaults_and_offsets(self):
        assert Interaction().source_offset == 1
        assert Interaction("quintic", -1).source_offset == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Interaction("quartic", 1)
        with pytest.raises(ValueError):
            Interaction("cubic", 2)


class TestFreeEvolve:
    def test_t_zero_identity(self):
        gamma = random_dense(GRID, 2, seed=3)
        out = free_evolve(gamma, 0.0)
        np.testing.assert_array_equal(out.data, gamma.data)

    def test_matches_explicit_phase_matrix(self):
        gamma = random_dense(GRID, 1, seed=4)
        t = 0.37
        p = GRID.momenta
        phase = np.exp(-1j * t * (p[:, None] ** 2 - p[None, :] ** 2))
        np.testing.assert_allclose(
            free_evolve(gamma, t).data, gamma.data * phase, rtol=1e-13
        )

    def test_isometry(self):
        gamma = random_dense(GRID, 2, seed=5)
        out = free_evolve(gamma, 0.8)
        np.testing.assert_allclose(
            np.linalg.norm(out.data), np.linalg.norm(gamma.data), rtol=1e-13
        )

    def test_group_law(self):
        gamma = random_dense(GRID, 2, seed=6)
        once = free_evolve(gamma, 0.7)
        np.testing.assert_allclose(
            free_evolve(free_evolve(gamma, 0.3), 0.4).data, once.data, rtol=1e-12
        )
        back = free_evolve(once, -0.7)
        np.testing.assert_allclose(back.data, gamma.data, rtol=1e-12)

    def test_factorized_matches_dense(self):
        phi = random_profile(GRID, seed=7)
        lazy = FactorizedKernel(GRID, 2, phi)
        t = 0.21
        np.testing.assert_allclose(
            free_evolve(lazy, t).materialize().data,
            free_evolve(lazy.materialize(), t).data,
            rtol=1e-12,
        )

    def test_commutes_with_partial_trace(self):
        gamma = random_test_kernel(GRID, 2, alpha=1.0, seed=8)
        t = 0.45
        a = partial_trace_last(free_evolve(gamma, t))
        b = free_evolve(partial_trace_last(gamma), t)
        np.testing.assert_allclose(a.data, b.data, rtol=1e-12, atol=1e-14)

    def test_preserves_trace(self):
        gamma = random_test_kernel(GRID, 2, alpha=1.0, seed=9)
        np.testing.assert_allclose(
            trace(free_evolve(gamma, 1.3)), trace(gamma), rtol=1e-12
        )

    def test_two_dimensional_phase(self):
        grid = GridSpec(n=2, L=4.0, M=4)
        gamma = random_dense(grid, 1, seed=10)
        t = 0.19
        p = grid.momenta
        psq = p[:, None] ** 2 + p[None, :] ** 2
        phase = np.exp(
            -1j * t * (psq[:, :, None, None] - psq[None, None, :, :])
        )
        np.testing.assert_allclose(
            free_evolve(gamma, t).data, gamma.data * phase, rtol=1e-13
        )


def brute_b1(data, grid):
    """Loop implementation of the first cubic term on a two-particle kernel."""
    M, w = grid.M, grid.measure_weight
    out = np.zeros((M, M), dtype=np.complex128)
    for ip in range(M):
        for ipp in range(M):
            acc = 0.0
            for iq in range(M):
                for iqp in range(M):
                    idx = ip - iq + iqp
                    if 0 <= idx < M:
                        acc += data[idx, iq, ipp, iqp]
            out[ip, ipp] = acc
    return out * w**2


def brute_b2(data, grid):
    M, w = grid.M, grid.measure_weight
    out = np.zeros((M, M), dtype=np.complex128)
    for ip in range(M):
        for ipp in range(M):
            acc = 0.0
            for iq in range(M):
                for iqp in range(M):
                    idx = ipp + iq - iqp
                    if 0 <= idx < M:
                        acc += data[ip, iq, idx, iqp]
            out[ip, ipp] = acc
    return out * w**2


def brute_q1(data, grid):
    """Loop implementation of the first quintic term on a three-particle kernel."""
    M, w = grid.M, grid.measure_weight
    out = np.zeros((M, M), dtype=np.complex128)
    rng4 = [(a, b, c, d) for a in range(M) for b in range(M)
            for c in range(M) for d in range(M)]
    for ip in range(M):
        for ipp in range(M):
            acc = 0.0
            for iq1, iq2, iqp1, iqp2 in rng4:
                idx = ip - iq1 - iq2 + iqp1 + iqp2
                if 0 <= idx < M:
                    acc += data[idx, iq1, iq2, ipp, iqp1, iqp2]
            out[ip, ipp] = acc
    return out * w**4


class TestCubicCollapse:
    def test_b1_matches_brute_force(self):
        grid = GridSpec(n=1, L=3.0, M=4)
        gamma = random_dense(grid, 2, seed=11)
        np.testing.assert_allclose(
            collapse_b1(1, gamma).data, brute_b1(gamma.data, grid), rtol=1e-13
        )

    def test_b2_matches_brute_force(self):
        grid = GridSpec(n=1, L=3.0, M=4)
        gamma = random_dense(grid, 2, seed=12)
        np.testing.assert_allclose(
            collapse_b2(1, gamma).data, brute_b2(gamma.data, grid), rtol=1e-13
        )

    def test_shared_contractions_give_identical_terms(self):
        gamma = random_dense(GRID, 3, seed=15)
        shared = cubic_contractions(gamma)
        for j in (1, 2):
            assert np.array_equal(collapse_b1(j, gamma, shared).data, collapse_b1(j, gamma).data)
            assert np.array_equal(collapse_b2(j, gamma, shared).data, collapse_b2(j, gamma).data)

    def test_b2_is_adjoint_conjugate_of_b1(self):
        from gphier.kernels import adjoint

        gamma = random_dense(GRID, 3, seed=13)
        lhs = collapse_b2(2, gamma)
        rhs = adjoint(collapse_b1(2, adjoint(gamma)))
        np.testing.assert_allclose(lhs.data, rhs.data, rtol=1e-12)

    def test_linearity(self):
        a = random_dense(GRID, 2, seed=14)
        b = random_dense(GRID, 2, seed=15)
        summed = MarginalKernel(GRID, 2, 2.0 * a.data + 1j * b.data)
        np.testing.assert_allclose(
            collapse_b1(1, summed).data,
            2.0 * collapse_b1(1, a).data + 1j * collapse_b1(1, b).data,
            rtol=1e-12,
        )

    def test_factorized_plane_wave_profile(self):
        # single-mode profile: the contraction leaves the mode in place and
        # scales by |A|^2 / L^2
        amp = 1.5 - 0.5j
        phi = np.zeros(GRID.M, dtype=np.complex128)
        phi[GRID.M // 2 + 1] = amp
        h = cubic_collapse_profile(phi, GRID)
        expected = np.zeros_like(phi)
        expected[GRID.M // 2 + 1] = abs(amp) ** 2 * amp * GRID.measure_weight**2
        np.testing.assert_allclose(h, expected, atol=1e-14)

    def test_factorized_matches_dense_collapse(self):
        phi = random_profile(GRID, seed=16)
        lazy = FactorizedKernel(GRID, 2, phi)
        dense = lazy.materialize()
        for op in (collapse_b1, collapse_b2):
            np.testing.assert_allclose(
                op(1, lazy).data, op(1, dense).data, rtol=1e-12, atol=1e-13
            )
        np.testing.assert_allclose(
            collapse_sum_cubic(lazy).data,
            collapse_sum_cubic(dense).data,
            rtol=1e-12,
            atol=1e-13,
        )

    def test_factorized_matches_dense_three_particles(self):
        phi = random_profile(GRID, seed=17)
        lazy = FactorizedKernel(GRID, 3, phi)
        dense = lazy.materialize()
        for j in (1, 2):
            np.testing.assert_allclose(
                collapse_b1(j, lazy).data, collapse_b1(j, dense).data,
                rtol=1e-12, atol=1e-12,
            )

    def test_position_space_product_oracle(self):
        # band-limited profile, so neither truncation nor aliasing bites:
        # B1_1 F(phi, 2) has kernel psi(x) conj(phi(x')) with psi = |phi|^2 phi
        grid = GridSpec(n=1, L=5.0, M=16)
        phi_hat = random_profile(grid, seed=18, band=2)
        got = collapse_b1(1, FactorizedKernel(grid, 2, phi_hat))

        phi_x = inverse_transform(phi_hat, grid)
        psi_hat = forward_transform(np.abs(phi_x) ** 2 * phi_x, grid)
        want = np.multiply.outer(psi_hat, np.conj(phi_hat))
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-13)

    def test_two_dimensional_factorized_matches_dense(self):
        grid = GridSpec(n=2, L=2 * np.pi, M=4)
        rng = np.random.default_rng(19)
        phi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lazy = FactorizedKernel(grid, 2, phi)
        dense = lazy.materialize()
        np.testing.assert_allclose(
            collapse_sum_cubic(lazy).data,
            collapse_sum_cubic(dense).data,
            rtol=1e-12,
            atol=1e-13,
        )

    def test_trace_of_collapse_sum_vanishes(self):
        gamma = random_dense(GRID, 3, seed=20)
        scale = np.linalg.norm(gamma.data)
        assert abs(trace(collapse_sum_cubic(gamma))) < 1e-13 * scale

    def test_prefixed_collapse_preserves_hermiticity(self):
        gamma = random_test_kernel(GRID, 2, alpha=1.0, seed=21)
        for mu in (1, -1):
            out = collapse_cubic(gamma, Interaction("cubic", mu))
            assert is_hermitian(out)

    def test_collapse_of_symmetric_is_symmetric(self):
        gamma = random_test_kernel(GRID, 3, alpha=1.0, seed=22)
        out = collapse_cubic(gamma, Interaction())
        sym = symmetrize(out)
        np.testing.assert_allclose(out.data, sym.data, rtol=1e-11, atol=1e-12)

    def test_argument_validation(self):
        gamma = random_dense(GRID, 2, seed=23)
        with pytest.raises(ValueError):
            collapse_b1(2, gamma)
        with pytest.raises(ValueError):
            collapse_b1(0, gamma)
        with pytest.raises(ValueError):
            collapse_b1(1, random_dense(GRID, 1, seed=24))
        with pytest.raises(ValueError):
            collapse_cubic(gamma, Interaction("quintic", 1))


class TestQuinticCollapse:
    def test_q1_matches_brute_force(self):
        grid = GridSpec(n=1, L=3.0, M=4)
        gamma = random_dense(grid, 3, seed=25)
        np.testing.assert_allclose(
            collapse_q1(1, gamma).data, brute_q1(gamma.data, grid), rtol=1e-13
        )

    def test_q2_is_adjoint_conjugate_of_q1(self):
        from gphier.kernels import adjoint

        grid = GridSpec(n=1, L=3.0, M=4)
        gamma = random_dense(grid, 3, seed=26)
        lhs = collapse_q2(1, gamma)
        rhs = adjoint(collapse_q1(1, adjoint(gamma)))
        np.testing.assert_allclose(lhs.data, rhs.data, rtol=1e-12)

    def test_factorized_matches_dense(self):
        grid = GridSpec(n=1, L=4.0, M=6)
        phi = random_profile(grid, seed=27)
        lazy = FactorizedKernel(grid, 3, phi)
        dense = lazy.materialize()
        np.testing.assert_allclose(
            collapse_sum_quintic(lazy).data,
            collapse_sum_quintic(dense).data,
            rtol=1e-12,
            atol=1e-12,
        )

    def test_position_space_product_oracle(self):
        # |phi|^4 phi with narrow band: support 5W must stay inside the lattice
        grid = GridSpec(n=1, L=5.0, M=16)
        phi_hat = random_profile(grid, seed=28, band=1)
        got = collapse_q1(1, FactorizedKernel(grid, 3, phi_hat))

        phi_x = inverse_transform(phi_hat, grid)
        psi_hat = forward_transform(np.abs(phi_x) ** 4 * phi_x, grid)
        want = np.multiply.outer(psi_hat, np.conj(phi_hat))
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-13)

    def test_trace_vanishes_and_hermiticity(self):
        grid = GridSpec(n=1, L=3.0, M=4)
        gamma = random_test_kernel(grid, 3, alpha=1.0, seed=29)
        out = collapse_quintic(gamma, Interaction("quintic", -1))
        assert abs(trace(MarginalKernel(grid, 1, out.data * 1j))) < 1e-12
        assert is_hermitian(out)

    def test_validation(self):
        gamma = random_dense(GRID, 2, seed=30)
        with pytest.raises(ValueError):
            collapse_q1(1, gamma)
        with pytest.raises(ValueError):
            collapse_quintic(random_dense(GRID, 3, seed=31), Interaction("cubic", 1))


class TestDispatch:
    def test_apply_btilde_matches_kind(self):
        gamma3 = random_dense(GRID, 3, seed=32)
        cubic = apply_btilde(gamma3, Interaction("cubic", -1))
        np.testing.assert_allclose(
            cubic.data, collapse_cubic(gamma3, Interaction("cubic", -1)).data
        )
        quintic = apply_btilde(gamma3, Interaction("quintic", 1))
        np.testing.assert_allclose(
            quintic.data, collapse_quintic(gamma3, Interaction("quintic", 1)).data
        )

    def test_btilde_scaling_against_raw_sum(self):
        gamma = random_dense(GRID, 2, seed=33)
        raw = collapse_sum_cubic(gamma)
        for mu in (1, -1):
            out = collapse_cubic(gamma, Interaction("cubic", mu))
            np.testing.assert_allclose(out.data, -1j * mu * raw.data, rtol=1e-14)

    def test_quintic_profile_plane_wave(self):
        amp = 0.7 + 0.4j
        phi = np.zeros(GRID.M, dtype=np.complex128)
        phi[GRID.M // 2] = amp
        h = quintic_collapse_profile(phi, GRID)
        expected = np.zeros_like(phi)
        expected[GRID.M // 2] = abs(amp) ** 4 * amp * GRID.measure_weight**4
        np.testing.assert_allclose(h, expected, atol=1e-14)
