import numpy as np
import pytest

from gphier.spectral import (
    GridSpec,
    axis_sum,
    forward_transform,
    inverse_transform,
    variable_bracket,
)
from spectral_oracles import (
    bracket,
    bracket_nd,
    cell_volume,
    kernel_to_momentum,
    kernel_to_position,
)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    shape = (grid.M,) * grid.n
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestGridSpec:
    def test_lattices(self):
        g = GridSpec(1, 2 * np.pi, 8)
        np.testing.assert_array_equal(g.modes, np.arange(-4, 4))
        np.testing.assert_allclose(g.momenta, np.arange(-4, 4))
        np.testing.assert_allclose(g.positions, np.arange(8) * np.pi / 4 - np.pi)
        assert g.lattice_size == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1, 2 * np.pi, 7)
        with pytest.raises(ValueError):
            GridSpec(1, 2 * np.pi, 2)
        with pytest.raises(ValueError):
            GridSpec(0, 2 * np.pi, 8)
        with pytest.raises(ValueError):
            GridSpec(1, -1.0, 8)
        for L in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                GridSpec(1, L, 8)

    def test_quadrature_weight(self):
        assert cell_volume(GridSpec(1, 2 * np.pi, 8)) == pytest.approx(1.0)
        assert cell_volume(GridSpec(2, 2 * np.pi, 8)) == pytest.approx(1.0)
        assert cell_volume(GridSpec(1, 4 * np.pi, 8)) == pytest.approx(0.5)

    def test_kernel_bookkeeping(self):
        g = GridSpec(1, 2 * np.pi, 8)
        assert g.kernel_shape(2) == (8, 8, 8, 8)
        assert g.kernel_entries(2) == 8 ** 4
        assert g.kernel_bytes(2) == 16 * 8 ** 4


class TestBracket:
    def test_values(self):
        assert bracket(0.0) == pytest.approx(1.0)
        assert bracket(1.0) == pytest.approx(np.sqrt(2.0))
        assert bracket_nd(np.array([3.0, 4.0])) == pytest.approx(np.sqrt(26.0))

    def test_bounds_on_lattice(self):
        g = GridSpec(1, 2 * np.pi, 32)
        p = g.momenta
        b = bracket(p)
        assert np.all(b >= np.maximum(1.0, np.abs(p)))
        assert np.all(b <= 1.0 + np.abs(p))

    def test_variable_bracket_nd(self):
        g = GridSpec(2, 2 * np.pi, 4)
        w = variable_bracket(g)
        assert w.shape == (4, 4)
        q = g.momenta
        expect = np.sqrt(1.0 + q[:, None] ** 2 + q[None, :] ** 2)
        np.testing.assert_allclose(w, expect, rtol=1e-14)

    def test_axis_sum_adds_in_axis_order(self):
        a, b, c = np.arange(3.0), np.arange(4.0) / 3.0, np.array([-0.1, 0.7])
        out = axis_sum([a, b, c])
        assert out.shape == (3, 4, 2)
        expect = (0.0 + a[:, None, None]) + b[None, :, None] + c[None, None, :]
        assert out.tobytes() == expect.tobytes()


class TestTransforms:
    def test_constant_maps_to_delta(self):
        g = GridSpec(1, 2 * np.pi, 8)
        fhat = forward_transform(np.ones(8), g)
        expect = np.zeros(8, dtype=complex)
        expect[4] = 2 * np.pi  # m = 0 sits at index M/2
        np.testing.assert_allclose(fhat, expect, atol=1e-12)

    def test_constant_maps_to_delta_2d(self):
        g = GridSpec(2, 2 * np.pi, 4)
        fhat = forward_transform(np.ones((4, 4)), g)
        expect = np.zeros((4, 4), dtype=complex)
        expect[2, 2] = (2 * np.pi) ** 2
        np.testing.assert_allclose(fhat, expect, atol=1e-12)

    def test_plane_wave_single_mode(self):
        g = GridSpec(1, 2 * np.pi, 8)
        for m0 in (-4, -1, 0, 3):
            f = np.exp(1j * m0 * g.positions)
            fhat = forward_transform(f, g)
            expect = np.zeros(8, dtype=complex)
            expect[m0 + 4] = g.L
            np.testing.assert_allclose(fhat, expect, atol=1e-12)

    def test_round_trip(self):
        for g in (GridSpec(1, 2 * np.pi, 8), GridSpec(1, 4 * np.pi, 12), GridSpec(2, 2 * np.pi, 6)):
            f = random_field(g, seed=3)
            back = inverse_transform(forward_transform(f, g), g)
            np.testing.assert_allclose(back, f, rtol=1e-12, atol=1e-12)

    def test_linearity(self):
        g = GridSpec(1, 2 * np.pi, 16)
        f1, f2 = random_field(g, 1), random_field(g, 2)
        lhs = forward_transform(2.0 * f1 + 1j * f2, g)
        rhs = 2.0 * forward_transform(f1, g) + 1j * forward_transform(f2, g)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_parseval(self):
        g = GridSpec(1, 4 * np.pi, 16)
        f = random_field(g, 5)
        pos = np.sum(np.abs(f) ** 2) * (g.L / g.M)
        mom = np.sum(np.abs(forward_transform(f, g)) ** 2) / g.L
        assert mom == pytest.approx(pos, rel=1e-12)

    def test_shift_property(self):
        g = GridSpec(1, 2 * np.pi, 8)
        f = random_field(g, 7)
        j = 3
        a = g.L * j / g.M
        shifted = np.roll(f, j)  # f(x - a) on the periodic lattice
        lhs = forward_transform(shifted, g)
        rhs = np.exp(-1j * g.momenta * a) * forward_transform(f, g)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestKernelTransforms:
    def test_factorized_kernel_transform(self):
        # kernel phi(x) conj(phi(x')) must map to phihat(p) conj(phihat(p'))
        g = GridSpec(1, 2 * np.pi, 8)
        phi = random_field(g, 11)
        kern = phi[:, None] * np.conj(phi)[None, :]
        khat = kernel_to_momentum(kern, g, 1)
        phihat = forward_transform(phi, g)
        expect = phihat[:, None] * np.conj(phihat)[None, :]
        np.testing.assert_allclose(khat, expect, rtol=1e-12, atol=1e-10)

    def test_kernel_round_trip(self):
        g = GridSpec(1, 2 * np.pi, 6)
        rng = np.random.default_rng(13)
        kern = rng.standard_normal((6,) * 4) + 1j * rng.standard_normal((6,) * 4)
        back = kernel_to_position(kernel_to_momentum(kern, g, 2), g, 2)
        np.testing.assert_allclose(back, kern, rtol=1e-12, atol=1e-12)

    def test_kernel_parseval(self):
        g = GridSpec(1, 2 * np.pi, 6)
        rng = np.random.default_rng(17)
        kern = rng.standard_normal((6,) * 4) + 1j * rng.standard_normal((6,) * 4)
        khat = kernel_to_momentum(kern, g, 2)
        pos = np.sum(np.abs(kern) ** 2) * (g.L / g.M) ** 4
        mom = np.sum(np.abs(khat) ** 2) * g.L ** (-4)
        assert mom == pytest.approx(pos, rel=1e-12)
