"""Free evolution and collapse operators against brute-force and closed-form oracles."""

import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from gphier import blocks
from gphier.kernels import (
    EvolvedKernel,
    FactorizedKernel,
    MarginalKernel,
    ResourceBudgetError,
    apply_free_phase,
    as_dense,
    bracket_envelope,
    damp,
    free_phase_vector,
    hermitize,
    random_test_kernel,
    symmetrize,
    trace,
)
from gphier.operators import (
    GROUPS,
    Interaction,
    _convolve,
    _quintic_contractions,
    _row_groups,
    _trace_last_pairs,
    apply_btilde,
    collapse,
    collapse_b1,
    collapse_b2,
    cubic_collapse_profile,
    cubic_contractions,
    free_evolve,
    quintic_collapse_profile,
)
from gphier.spectral import GridSpec, forward_transform, inverse_transform
from kernel_oracles import adjoint, copied, is_hermitian, partial_trace_last

GRID = GridSpec(n=1, L=2 * np.pi, M=6)
CUBIC = Interaction("cubic")
QUINTIC = Interaction("quintic")


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
        out = as_dense(free_evolve(gamma, 0.0))
        np.testing.assert_array_equal(out.data, gamma.data)

    def test_matches_explicit_phase_matrix(self):
        gamma = random_dense(GRID, 1, seed=4)
        t = 0.37
        p = GRID.momenta
        phase = np.exp(-1j * t * (p[:, None] ** 2 - p[None, :] ** 2))
        np.testing.assert_allclose(
            as_dense(free_evolve(gamma, t)).data, gamma.data * phase, rtol=1e-13
        )

    def test_isometry(self):
        gamma = random_dense(GRID, 2, seed=5)
        out = as_dense(free_evolve(gamma, 0.8))
        np.testing.assert_allclose(
            np.linalg.norm(out.data), np.linalg.norm(gamma.data), rtol=1e-13
        )

    def test_group_law(self):
        gamma = random_dense(GRID, 2, seed=6)
        once = as_dense(free_evolve(gamma, 0.7))
        np.testing.assert_allclose(
            as_dense(free_evolve(free_evolve(gamma, 0.3), 0.4)).data, once.data, rtol=1e-12
        )
        back = as_dense(free_evolve(once, -0.7))
        np.testing.assert_allclose(back.data, gamma.data, rtol=1e-12)

    def test_factorized_matches_dense(self):
        phi = random_profile(GRID, seed=7)
        lazy = FactorizedKernel(GRID, 2, phi)
        t = 0.21
        np.testing.assert_allclose(
            free_evolve(lazy, t).materialize().data,
            as_dense(free_evolve(lazy.materialize(), t)).data,
            rtol=1e-12,
        )

    def test_commutes_with_partial_trace(self):
        gamma = random_test_kernel(GRID, 2, alpha=1.0, seed=8)
        t = 0.45
        a = partial_trace_last(as_dense(free_evolve(gamma, t)))
        b = as_dense(free_evolve(partial_trace_last(gamma), t))
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
            as_dense(free_evolve(gamma, t)).data, gamma.data * phase, rtol=1e-13
        )


def phase_pass(kernel, t):
    """U0(t) of a dense kernel as one pass over blocks.rows writes it into a
    new array: each row block copied, then multiplied by P[r, None] *
    conj(P)."""
    grid, k = kernel.grid, kernel.k
    rows = grid.M ** (k * grid.n)
    src = kernel.data.reshape(rows, rows)
    out = np.empty_like(src)
    ph = free_phase_vector(grid, k, t)
    ph_conj = np.conj(ph)

    def block(r, phase):
        np.copyto(out[r], src[r])
        if t != 0.0:
            out[r] *= np.multiply.outer(ph[r], ph_conj, out=phase)

    blocks.rows(block, out)
    return out.reshape(kernel.data.shape)


class TestEvolvedKernel:
    """free_evolve of a dense kernel writes no array; whatever reads it sees
    bitwise the array the phase pass would have written."""

    def test_free_evolve_only_moves_t(self):
        gamma = random_dense(GRID, 2, seed=11)
        evolved = free_evolve(free_evolve(gamma, 0.3), 0.4)
        assert isinstance(evolved, EvolvedKernel)
        assert evolved.base is gamma and evolved.t == 0.3 + 0.4
        assert (evolved.grid, evolved.k) == (GRID, 2)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("t", [0.0, 0.37, -0.21])
    @pytest.mark.parametrize("grid, k", [
        (GridSpec(n=1, L=2 * np.pi, M=6), 3), (GridSpec(n=1, L=2 * np.pi, M=10), 3),
        (GridSpec(n=2, L=3.0, M=4), 2)])
    def test_materialize_is_the_phase_pass(self, monkeypatch, workers, t, grid, k):
        monkeypatch.setattr(blocks, "WORKERS", workers)
        monkeypatch.setattr(blocks, "MIN_POOLED", 0)
        gamma = random_dense(grid, k, seed=12)
        got = as_dense(free_evolve(gamma, t))
        assert got.data is not gamma.data
        assert np.array_equal(got.data, phase_pass(gamma, t))

    def test_materialize_checks_the_budget(self):
        evolved = free_evolve(random_dense(GRID, 2, seed=13), 0.5)
        with pytest.raises(ResourceBudgetError):
            evolved.materialize(budget=GRID.kernel_bytes(2) - 1)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("t", [0.0, 0.37])
    @pytest.mark.parametrize("n, M, kp, interactions", [
        (1, 6, 3, (CUBIC, QUINTIC)), (1, 6, 4, (CUBIC, QUINTIC)),
        (1, 8, 3, (CUBIC, QUINTIC)), (2, 4, 2, (CUBIC,))])
    def test_collapse_is_that_of_the_materialized_kernel(self, monkeypatch, workers, t,
                                                         n, M, kp, interactions):
        # the trace pass phases each row group into the group buffer, one
        # chunk per pool run; quintic n=2 needs a 268 MB level at M=4
        monkeypatch.setattr(blocks, "WORKERS", workers)
        monkeypatch.setattr(blocks, "MIN_POOLED", 0)
        grid = GridSpec(n, 2.0 * np.pi, M)
        evolved = free_evolve(random_dense(grid, kp, seed=14), t)
        dense = as_dense(evolved)
        for interaction in interactions:
            got = collapse(evolved, interaction)
            assert isinstance(got, MarginalKernel)
            assert np.array_equal(got.data, collapse(dense, interaction).data)


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
                as_dense(op(1, lazy)).data, op(1, dense).data, rtol=1e-12, atol=1e-13
            )
        np.testing.assert_allclose(
            as_dense(collapse(lazy, CUBIC)).data,
            collapse(dense, CUBIC).data,
            rtol=1e-12,
            atol=1e-13,
        )

    def test_factorized_matches_dense_three_particles(self):
        phi = random_profile(GRID, seed=17)
        lazy = FactorizedKernel(GRID, 3, phi)
        dense = lazy.materialize()
        for j in (1, 2):
            np.testing.assert_allclose(
                as_dense(collapse_b1(j, lazy)).data, collapse_b1(j, dense).data,
                rtol=1e-12, atol=1e-12,
            )

    def test_position_space_product_oracle(self):
        # band-limited profile, so neither truncation nor aliasing bites:
        # B1_1 F(phi, 2) has kernel psi(x) conj(phi(x')) with psi = |phi|^2 phi
        grid = GridSpec(n=1, L=5.0, M=16)
        phi_hat = random_profile(grid, seed=18, band=2)
        got = as_dense(collapse_b1(1, FactorizedKernel(grid, 2, phi_hat)))

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
            as_dense(collapse(lazy, CUBIC)).data,
            collapse(dense, CUBIC).data,
            rtol=1e-12,
            atol=1e-13,
        )

    def test_trace_of_collapse_sum_vanishes(self):
        gamma = random_dense(GRID, 3, seed=20)
        scale = np.linalg.norm(gamma.data)
        assert abs(trace(collapse(gamma, CUBIC))) < 1e-13 * scale

    def test_prefixed_collapse_preserves_hermiticity(self):
        gamma = random_test_kernel(GRID, 2, alpha=1.0, seed=21)
        for mu in (1, -1):
            out = apply_btilde(gamma, Interaction("cubic", mu))
            assert is_hermitian(out)

    def test_collapse_of_symmetric_is_symmetric(self):
        gamma = random_test_kernel(GRID, 3, alpha=1.0, seed=22)
        out = apply_btilde(gamma, Interaction())
        sym = symmetrize(copied(out))
        np.testing.assert_allclose(out.data, sym.data, rtol=1e-11, atol=1e-12)


class TestQuinticCollapse:
    def test_q1_matches_brute_force(self):
        grid = GridSpec(n=1, L=3.0, M=4)
        gamma = random_dense(grid, 3, seed=25)
        np.testing.assert_allclose(
            collapse(gamma, QUINTIC, [(1, 1, 1)]).data, brute_q1(gamma.data, grid), rtol=1e-13
        )

    def test_q2_is_adjoint_conjugate_of_q1(self):
        grid = GridSpec(n=1, L=3.0, M=4)
        gamma = random_dense(grid, 3, seed=26)
        lhs = collapse(gamma, QUINTIC, [(1, 2, 1)])
        rhs = adjoint(collapse(adjoint(gamma), QUINTIC, [(1, 1, 1)]))
        np.testing.assert_allclose(lhs.data, rhs.data, rtol=1e-12)

    def test_factorized_matches_dense(self):
        grid = GridSpec(n=1, L=4.0, M=6)
        phi = random_profile(grid, seed=27)
        lazy = FactorizedKernel(grid, 3, phi)
        dense = lazy.materialize()
        np.testing.assert_allclose(
            as_dense(collapse(lazy, QUINTIC)).data,
            collapse(dense, QUINTIC).data,
            rtol=1e-12,
            atol=1e-12,
        )

    def test_position_space_product_oracle(self):
        # |phi|^4 phi with narrow band: support 5W must stay inside the lattice
        grid = GridSpec(n=1, L=5.0, M=16)
        phi_hat = random_profile(grid, seed=28, band=1)
        got = as_dense(collapse(FactorizedKernel(grid, 3, phi_hat), QUINTIC, [(1, 1, 1)]))

        phi_x = inverse_transform(phi_hat, grid)
        psi_hat = forward_transform(np.abs(phi_x) ** 4 * phi_x, grid)
        want = np.multiply.outer(psi_hat, np.conj(phi_hat))
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-13)

    def test_trace_vanishes_and_hermiticity(self):
        grid = GridSpec(n=1, L=3.0, M=4)
        gamma = random_test_kernel(grid, 3, alpha=1.0, seed=29)
        out = apply_btilde(gamma, Interaction("quintic", -1))
        assert abs(trace(MarginalKernel(grid, 1, out.data * 1j))) < 1e-12
        assert is_hermitian(out)


class TestCollapseValidation:
    @pytest.mark.parametrize("kind", ["cubic", "quintic"])
    @pytest.mark.parametrize("rep", ["dense", "factorized"])
    def test_k_and_j_range(self, kind, rep):
        interaction = Interaction(kind)
        offset = interaction.source_offset

        def kernel(K):
            if rep == "dense":
                return random_dense(GRID, K, seed=23 + K)
            return FactorizedKernel(GRID, K, random_profile(GRID, seed=23 + K))

        too_small = kernel(offset)  # k = 0
        with pytest.raises(ValueError):
            collapse(too_small, interaction)
        with pytest.raises(ValueError):
            collapse(too_small, interaction, [(1, 1, 1)])
        gamma = kernel(offset + 1)  # k = 1
        for j in (0, 2):
            for side in (1, 2):
                with pytest.raises(ValueError):
                    collapse(gamma, interaction, [(j, side, 1)])
        if kind == "cubic":
            for op in (collapse_b1, collapse_b2):
                with pytest.raises(ValueError):
                    op(1, too_small)
                for j in (0, 2):
                    with pytest.raises(ValueError):
                        op(j, gamma)


class TestDispatch:
    def test_apply_btilde_matches_kind(self):
        gamma3 = random_dense(GRID, 3, seed=32)
        cubic = apply_btilde(gamma3, Interaction("cubic", -1))
        assert cubic.k == 2
        np.testing.assert_allclose(cubic.data, 1j * collapse(gamma3, CUBIC).data)
        quintic = apply_btilde(gamma3, Interaction("quintic", 1))
        assert quintic.k == 1
        np.testing.assert_allclose(quintic.data, -1j * collapse(gamma3, QUINTIC).data)

    def test_btilde_scaling_against_raw_sum(self):
        gamma = random_dense(GRID, 2, seed=33)
        raw = collapse(gamma, CUBIC)
        for mu in (1, -1):
            out = apply_btilde(gamma, Interaction("cubic", mu))
            np.testing.assert_allclose(out.data, -1j * mu * raw.data, rtol=1e-14)

    def test_quintic_profile_plane_wave(self):
        amp = 0.7 + 0.4j
        phi = np.zeros(GRID.M, dtype=np.complex128)
        phi[GRID.M // 2] = amp
        h = quintic_collapse_profile(phi, GRID)
        expected = np.zeros_like(phi)
        expected[GRID.M // 2] = abs(amp) ** 4 * amp * GRID.measure_weight**4
        np.testing.assert_allclose(h, expected, atol=1e-14)


# -- the profiles' convolution, numpy only ------------------------------------------

def brute_convolve(a, b):
    """out[z] = sum over x + y = z of a[x] b[y], entry by entry."""
    out = np.zeros([x + y - 1 for x, y in zip(a.shape, b.shape)], dtype=np.complex128)
    for x in np.ndindex(a.shape):
        for y in np.ndindex(b.shape):
            out[tuple(i + j for i, j in zip(x, y))] += a[x] * b[y]
    return out


class TestNumpyConvolution:
    def test_one_axis_is_np_convolve(self):
        phi = random_profile(GridSpec(1, 2 * np.pi, 12), seed=91)
        np.testing.assert_array_equal(_convolve(phi, np.conj(phi[::-1])),
                                      np.convolve(phi, np.conj(phi[::-1])))

    @pytest.mark.parametrize("shapes", [((5, 3), (2, 4)), ((3, 2, 4), (2, 3, 2))],
                             ids=["n2", "n3"])
    def test_matches_brute_force_sum(self, shapes):
        rng = np.random.default_rng(92)
        a, b = (rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes)
        assert max_rel(_convolve(a, b), brute_convolve(a, b)) < 1e-14

    def test_gphier_imports_no_scipy(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import importlib, pkgutil, sys, gphier\n"
                "names = [m.name for m in pkgutil.iter_modules(gphier.__path__)]\n"
                "for name in names:\n"
                "    importlib.import_module('gphier.' + name)\n"
                "print(len(names), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, check=True)
        assert proc.stdout.split() == [str(len(list((src / "gphier").glob("[!_]*.py")))), "[]"]


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
    @pytest.mark.parametrize("grid, kind, K, dense", [
        (GridSpec(n=1, L=4.0, M=6), "cubic", 4, False),
        (GridSpec(n=2, L=3.0, M=4), "cubic", 3, False),
        (GridSpec(n=1, L=4.0, M=6), "quintic", 5, False),
        (GridSpec(n=2, L=3.0, M=4), "quintic", 4, False),
        # the dense path on the materialized product kernel; quintic j = 2
        # has no other independent reference
        (GridSpec(n=1, L=4.0, M=6), "cubic", 3, True),
        (GridSpec(n=1, L=4.0, M=4), "quintic", 4, True),
        (GridSpec(n=2, L=3.0, M=4), "cubic", 2, True),
    ])
    def test_factorized_collapse_matches_chained_outer_products(self, grid, kind, K, dense):
        lazy = FactorizedKernel(grid, K, random_profile(grid, seed=40 + K))
        interaction = Interaction(kind)
        offset = interaction.source_offset
        profile = cubic_collapse_profile if kind == "cubic" else quintic_collapse_profile
        kernel = lazy.materialize() if dense else lazy
        k = K - offset
        for j in range(1, k + 1):
            for side in (1, 2):
                want = chained_outer_collapse(lazy, [(j, side, 1)], profile, offset)
                got = as_dense(collapse(kernel, interaction, [(j, side, 1)]))
                assert max_rel(got.data, want) <= 1e-14
        terms = [(j, 1, 1) for j in range(1, k + 1)] + [(j, 2, -1) for j in range(1, k + 1)]
        want = chained_outer_collapse(lazy, terms, profile, offset)
        assert max_rel(as_dense(collapse(kernel, interaction)).data, want) <= 1e-14

    @pytest.mark.parametrize("grid, k", [
        # M=10, k=3: 1000 rows, not a multiple of the row block
        (GridSpec(n=1, L=2 * np.pi, M=10), 1),
        (GridSpec(n=1, L=2 * np.pi, M=10), 2),
        (GridSpec(n=1, L=2 * np.pi, M=10), 3),
        (GridSpec(n=2, L=3.0, M=4), 1),
        (GridSpec(n=2, L=3.0, M=4), 2),
    ])
    @pytest.mark.parametrize("t", [0.37, -0.21, 0.0])
    @pytest.mark.parametrize("nterms", [0, 1, 2])
    def test_free_phase_matches_per_axis_passes(self, grid, k, t, nterms):
        # with terms, data is first overwritten by their sum; at t = 0 the
        # result is exactly that sum (or data itself without terms)
        gamma = random_dense(grid, k, seed=50 + k)
        terms = [random_dense(grid, k, seed=60 + i).data for i in range(nterms)]
        source = gamma.data if not terms else terms[0] if nterms == 1 else terms[0] + terms[1]
        data = gamma.data.copy()
        assert apply_free_phase(data, grid, k, t, *terms) is data
        if t == 0.0:
            assert np.array_equal(data, source)
        else:
            assert max_rel(data, per_axis_phase(source, grid, k, t)) <= 1e-14


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
    @pytest.mark.parametrize("grid, kp", [
        (GridSpec(n=1, L=2 * np.pi, M=6), 4),
        (GridSpec(n=2, L=3.0, M=4), 3),
    ])
    def test_quintic_bitwise_np_trace_for_every_shift(self, monkeypatch, workers, grid, kp):
        monkeypatch.setattr(blocks, "WORKERS", workers)
        n = grid.n
        kernel = random_dense(grid, kp, seed=61)
        want = []
        for c2 in all_shifts(grid):
            t2 = np_trace_last_pair(kernel.data, kp * n, c2)
            for c1 in all_shifts(grid):
                c = tuple(a + b for a, b in zip(c1, c2))
                if all(abs(a) < grid.M for a in c):
                    want.append((c, np_trace_last_pair(t2, (kp - 1) * n, c1)))
        got = _quintic_contractions(kernel)
        assert [c for c, _ in got] == [c for c, _ in want]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n, M, kp, block", [
        (1, 6, 2, blocks.BLOCK), (1, 6, 3, blocks.BLOCK), (1, 8, 2, blocks.BLOCK),
        (1, 8, 3, blocks.BLOCK), (1, 10, 2, blocks.BLOCK), (1, 10, 3, blocks.BLOCK),
        (1, 16, 2, blocks.BLOCK), (1, 16, 3, blocks.BLOCK), (2, 4, 2, blocks.BLOCK),
        (2, 4, 2, 1 << 10)])
    def test_damped_bitwise_np_trace_of_the_damped_kernel(self, monkeypatch, workers, n, M,
                                                          kp, block):
        # each row group is damped into its run's buffer and traced; n=2
        # traces a group component by component (one group, or sixteen
        # with 1024-entry blocks)
        monkeypatch.setattr(blocks, "WORKERS", workers)
        monkeypatch.setattr(blocks, "BLOCK", block)
        grid = GridSpec(n, 2.0 * np.pi, M)
        draw = random_test_kernel(grid, kp, alpha=0.0, seed=M + kp)
        half = bracket_envelope(grid, kp, -0.6)
        got = cubic_contractions(draw, half)
        damp(draw.data, half)  # in place: one level-sized array at M=16
        assert [c for c, _ in got] == all_shifts(grid)
        for c, C in got:
            assert np.array_equal(C, np_trace_last_pair(draw.data, kp * n, c))

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


class TestRowGroups:
    @pytest.mark.parametrize("n, M, kp", [
        (1, 6, 2), (1, 6, 3), (1, 8, 2), (1, 8, 3), (1, 10, 2), (1, 10, 3), (1, 12, 2),
        (1, 12, 3), (1, 16, 2), (1, 16, 3), (1, 16, 4), (2, 4, 2), (2, 4, 3), (2, 6, 2)])
    def test_damped_groups_are_whole_runs_near_a_sixteenth(self, n, M, kp):
        R, rows, _ = _row_groups(GridSpec(n, 2.0 * np.pi, M), kp, True)
        least = max(R // GROUPS, blocks.BLOCK // R)
        assert R == M ** (kp * n)
        assert rows == R or rows % M**n == 0
        assert min(R, blocks.BLOCK // R) <= rows < least + M**n

    def test_damped_groups_at_m12(self):
        assert _row_groups(GridSpec(1, 2.0 * np.pi, 12), 3, True)[:2] == (1728, 108)

    @pytest.mark.parametrize("workers, min_pooled", [(1, 0), (2, 1 << 30), (2, 0), (3, 0)])
    @pytest.mark.parametrize("n, M, kp", [(1, 8, 3), (1, 10, 3), (1, 12, 3), (2, 4, 3)])
    def test_undamped_group_is_one_deal_run(self, monkeypatch, workers, min_pooled, n, M, kp):
        # a view needs no buffer, so the rows are one group and each run of
        # blocks.deal traces all of its rows at once: all R on one worker or
        # below MIN_POOLED
        monkeypatch.setattr(blocks, "WORKERS", workers)
        monkeypatch.setattr(blocks, "MIN_POOLED", min_pooled)
        R, rows, step = _row_groups(GridSpec(n, 2.0 * np.pi, M), kp, False)
        runs = 1 if workers == 1 or R * R < min_pooled else workers
        starts = range(0, R, step)
        assert rows == R
        assert len(blocks.deal(starts, R * R)) == len(starts) == runs
        assert step == -(-(R // M**n) // runs) * M**n
