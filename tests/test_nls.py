"""Split-step reference solver: conservation laws, exact solutions, order."""

import numpy as np
import pytest

from gphier.kernels import FactorizedKernel
from gphier.nls import (
    compare_marginals,
    evolve,
    factorized_trajectory,
    solve_nodes,
    split_step,
)
from gphier.norms import sobolev_norm
from gphier.operators import Interaction
from gphier.spectral import GridSpec
from spectral_oracles import energy, mass

GRID = GridSpec(n=1, L=2 * np.pi, M=32)
CUBIC = Interaction("cubic", 1)
FOCUSING = Interaction("cubic", -1)
QUINTIC = Interaction("quintic", 1)


def smooth_data(grid, seed=0):
    x = grid.positions
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(2) * 0.3
    return (1.0 + 0.5 * np.cos(2 * np.pi * x / grid.L) + a) * np.exp(
        1j * b * np.sin(2 * np.pi * x / grid.L)
    )


class TestConservation:
    @pytest.mark.parametrize("interaction", [CUBIC, FOCUSING, QUINTIC])
    def test_mass_exact(self, interaction):
        phi = smooth_data(GRID, seed=1)
        m0 = mass(phi, GRID)
        out = evolve(phi, GRID, interaction, t_final=0.5, steps=200)
        np.testing.assert_allclose(mass(out, GRID), m0, rtol=1e-13)

    def test_energy_drift_small(self):
        phi = smooth_data(GRID, seed=2)
        e0 = energy(phi, GRID, CUBIC)
        out = evolve(phi, GRID, CUBIC, t_final=0.25, steps=400)
        assert abs(energy(out, GRID, CUBIC) - e0) < 1e-6 * max(1.0, abs(e0))


class TestExactSolutions:
    def test_plane_wave_cubic(self):
        # |phi| constant makes kinetic and nonlinear flows commute, so the
        # splitting is exact: phase advances by |p|^2 + mu |A|^2 per unit time
        amp = 0.8 - 0.3j
        p = GRID.momenta[GRID.M // 2 + 2]
        phi = amp * np.exp(1j * p * GRID.positions)
        T = 0.7
        out = evolve(phi, GRID, CUBIC, T, steps=10)
        omega = p**2 + 1 * abs(amp) ** 2
        np.testing.assert_allclose(out, phi * np.exp(-1j * omega * T), rtol=1e-11)

    def test_plane_wave_quintic_focusing_sign(self):
        amp = 1.1
        phi = amp * np.ones(GRID.M, dtype=np.complex128)
        T = 0.4
        out = evolve(phi, GRID, Interaction("quintic", -1), T, steps=8)
        omega = -(amp**4)
        np.testing.assert_allclose(out, phi * np.exp(-1j * omega * T), rtol=1e-11)

    def test_zero_solution(self):
        phi = np.zeros(GRID.M, dtype=np.complex128)
        out = evolve(phi, GRID, CUBIC, 1.0, steps=5)
        np.testing.assert_array_equal(out, phi)


class TestConvergence:
    def test_second_order_in_dt(self):
        phi = smooth_data(GRID, seed=3)
        T = 0.3
        ref = evolve(phi, GRID, CUBIC, T, steps=4096)
        errs = []
        for steps in (32, 64):
            out = evolve(phi, GRID, CUBIC, T, steps=steps)
            errs.append(np.linalg.norm(out - ref))
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5

    def test_single_step_matches_evolve(self):
        phi = smooth_data(GRID, seed=4)
        np.testing.assert_allclose(
            evolve(phi, GRID, CUBIC, 0.05, steps=1),
            split_step(phi, GRID, CUBIC, 0.05),
            rtol=1e-14,
        )


class TestNodes:
    def test_node_times_validated(self):
        phi = smooth_data(GRID, seed=5)
        with pytest.raises(ValueError):
            solve_nodes(phi, GRID, CUBIC, [0.1, 0.2])
        with pytest.raises(ValueError):
            solve_nodes(phi, GRID, CUBIC, [0.0, 0.2, 0.2])

    def test_nodes_consistent_with_direct_run(self):
        phi = smooth_data(GRID, seed=6)
        times = [0.0, 0.1, 0.2, 0.3]
        nodes = solve_nodes(phi, GRID, CUBIC, times, substeps=8)
        direct = evolve(phi, GRID, CUBIC, 0.3, steps=24)
        np.testing.assert_allclose(nodes[-1], direct, rtol=1e-12)
        np.testing.assert_array_equal(nodes[0], phi)

    def test_factorized_trajectory_structure(self):
        phi = smooth_data(GRID, seed=7)
        times = [0.0, 0.05, 0.1]
        traj = factorized_trajectory(phi, GRID, CUBIC, K=3, xi=0.5, times=times)
        assert len(traj) == 3
        seq = traj[-1]
        assert seq.K == 3 and all(
            isinstance(seq.level(k), FactorizedKernel) for k in (1, 2, 3)
        )
        m = mass(solve_nodes(phi, GRID, CUBIC, times)[-1], GRID)
        np.testing.assert_allclose(
            sobolev_norm(seq.level(2), 0.0), m**2, rtol=1e-12
        )

    def test_compare_marginals_flags_agreement_and_gap(self):
        phi = smooth_data(GRID, seed=8)
        times = [0.0, 0.1]
        ref = factorized_trajectory(phi, GRID, CUBIC, K=2, xi=0.5, times=times,
                                    substeps=32)
        gaps = compare_marginals(ref, ref, k=1, alpha=0.0)
        np.testing.assert_allclose(gaps, 0.0, atol=1e-13)

        frozen = [ref[0], ref[0]]
        gaps = compare_marginals(frozen, ref, k=1, alpha=0.0)
        assert gaps[0] < 1e-13 and gaps[1] > 1e-3

    def test_compare_marginals_scaled_input(self):
        phi = smooth_data(GRID, seed=9)
        ref = factorized_trajectory(phi, GRID, CUBIC, K=1, xi=0.5,
                                    times=[0.0, 0.05])
        from gphier.kernels import HierarchySequence, MarginalKernel

        doubled = [
            HierarchySequence(
                1, 0.5,
                (MarginalKernel(GRID, 1, 2.0 * seq.level(1).materialize().data),),
            )
            for seq in ref
        ]
        gaps = compare_marginals(doubled, ref, k=1, alpha=0.0)
        np.testing.assert_allclose(gaps, 1.0, rtol=1e-12)
