"""Free evolution and collapse operators against brute-force and closed-form oracles."""

from itertools import product

import numpy as np
import pytest

from gphier import blocks
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
    _quintic_contractions,
    _trace_last_pairs,
    apply_btilde,
    apply_free_phase,
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


# -- the one-pass kernels against the formulas they replaced -----------------------

def max_rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def chained_outer_collapse(kernel, terms, profile_fn, offset):
    """The factorized collapse as 2k chained outer products per term."""
    grid, k = kernel.grid, kernel.k - offset
    phi = kernel.phi_hat
    h = profile_fn(phi, grid)
    base = [phi] * k + [np.conj(phi)] * k
    out = np.zeros(grid.kernel_shape(k), dtype=np.complex128)
    for j, side, sign in terms:
        factors = list(base)
        if side == 1:
            factors[j - 1] = h
        else:
            factors[k + j - 1] = np.conj(h)
        term = np.array(1.0 + 0.0j)
        for b in factors:
            term = np.multiply.outer(term, b)
        out += sign * term
    return out


def per_axis_phase(data, grid, k, t):
    """The free phase as 2kn broadcast passes, one per axis."""
    ph = np.exp(-1j * t * grid.momenta * grid.momenta)
    out = data.copy()
    for axis in range(2 * k * grid.n):
        shape = [1] * (2 * k * grid.n)
        shape[axis] = grid.M
        out *= (ph if axis < k * grid.n else np.conj(ph)).reshape(shape)
    return out


class TestOnePassKernels:
    @pytest.mark.parametrize("grid, kind, K", [
        (GridSpec(n=1, L=4.0, M=6), "cubic", 4),
        (GridSpec(n=2, L=3.0, M=4), "cubic", 3),
        (GridSpec(n=1, L=4.0, M=6), "quintic", 5),
        (GridSpec(n=2, L=3.0, M=4), "quintic", 4),
    ])
    def test_factorized_collapse_matches_chained_outer_products(self, grid, kind, K):
        lazy = FactorizedKernel(grid, K, random_profile(grid, seed=40 + K))
        if kind == "cubic":
            offset, profile = 1, cubic_collapse_profile
            unprimed, primed, total = collapse_b1, collapse_b2, collapse_sum_cubic
        else:
            offset, profile = 2, quintic_collapse_profile
            unprimed, primed, total = collapse_q1, collapse_q2, collapse_sum_quintic
        k = K - offset
        for j in range(1, k + 1):
            for op, side in ((unprimed, 1), (primed, 2)):
                want = chained_outer_collapse(lazy, [(j, side, 1)], profile, offset)
                assert max_rel(op(j, lazy).data, want) <= 1e-14
        terms = [(j, 1, 1) for j in range(1, k + 1)] + [(j, 2, -1) for j in range(1, k + 1)]
        want = chained_outer_collapse(lazy, terms, profile, offset)
        assert max_rel(total(lazy).data, want) <= 1e-14

    @pytest.mark.parametrize("grid, k", [
        # M=10, k=3: 1000 rows, not a multiple of the row block
        (GridSpec(n=1, L=2 * np.pi, M=10), 1),
        (GridSpec(n=1, L=2 * np.pi, M=10), 2),
        (GridSpec(n=1, L=2 * np.pi, M=10), 3),
        (GridSpec(n=2, L=3.0, M=4), 1),
        (GridSpec(n=2, L=3.0, M=4), 2),
    ])
    @pytest.mark.parametrize("t", [0.37, -0.21])
    def test_free_phase_matches_per_axis_passes(self, grid, k, t):
        gamma = random_dense(grid, k, seed=50 + k)
        want = per_axis_phase(gamma.data, grid, k, t)
        data = gamma.data.copy()
        assert apply_free_phase(data, grid, k, t) is data
        assert max_rel(data, want) <= 1e-14


# -- plane-wise contractions against nested np.trace -------------------------------

def np_trace_last_pair(data, u_end, c):
    """The last-pair contraction as nested np.trace calls, one per component."""
    n = len(c)
    t = data
    for i in range(n):
        t = np.trace(t, offset=-c[n - 1 - i], axis1=u_end - 1 - i, axis2=t.ndim - 1)
    return t


def all_shifts(grid):
    return list(product(range(-(grid.M - 1), grid.M), repeat=grid.n))


class TestPlaneWiseContractions:
    @pytest.fixture(autouse=True)
    def pool_every_plane(self, monkeypatch):
        # small test kernels would otherwise stay on the calling thread
        monkeypatch.setattr(blocks, "MIN_POOLED", 0)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("grid, kp", [
        (GridSpec(n=1, L=2 * np.pi, M=8), 3),
        (GridSpec(n=2, L=3.0, M=4), 2),
    ])
    def test_cubic_bitwise_np_trace_for_every_shift(self, monkeypatch, workers, grid, kp):
        monkeypatch.setattr(blocks, "WORKERS", workers)
        kernel = random_dense(grid, kp, seed=60)
        got = cubic_contractions(kernel)
        assert [c for c, _ in got] == all_shifts(grid)
        for c, C in got:
            assert np.array_equal(C, np_trace_last_pair(kernel.data, kp * grid.n, c))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_quintic_bitwise_np_trace_for_every_shift(self, monkeypatch, workers):
        monkeypatch.setattr(blocks, "WORKERS", workers)
        grid, kp = GridSpec(n=1, L=2 * np.pi, M=6), 4
        kernel = random_dense(grid, kp, seed=61)
        want = []
        for c2 in all_shifts(grid):
            t2 = np_trace_last_pair(kernel.data, kp, c2)
            for c1 in all_shifts(grid):
                c = (c1[0] + c2[0],)
                if abs(c[0]) < grid.M:
                    want.append((c, np_trace_last_pair(t2, kp - 1, c1)))
        got = _quintic_contractions(kernel)
        assert [c for c, _ in got] == [c for c, _ in want]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))

    def test_two_component_double_pair_trace(self):
        # the quintic nesting at n=2 on a 3-particle array; side 3 keeps it
        # small while every diagonal still has up to three terms
        n, kp, M = 2, 3, 3
        rng = np.random.default_rng(62)
        shape = (M,) * (2 * kp * n)
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        shifts = list(product(range(-(M - 1), M), repeat=n))
        first = [np.empty(shape[:-2 * n], dtype=complex) for _ in shifts]
        _trace_last_pairs(data, kp * n, shifts, first)
        for c2, t2 in zip(shifts, first):
            assert np.array_equal(t2, np_trace_last_pair(data, kp * n, c2))
            second = [np.empty(shape[:-4 * n], dtype=complex) for _ in shifts]
            _trace_last_pairs(t2, (kp - 1) * n, shifts, second)
            for c1, C in zip(shifts, second):
                assert np.array_equal(C, np_trace_last_pair(t2, (kp - 1) * n, c1))
