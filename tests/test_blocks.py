"""Block pool: map_blocks semantics, and solves that do not depend on the
number of workers."""

import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest
from dataclasses import asdict

from gphier import blocks
from gphier.kernels import FactorizedKernel, HierarchySequence, random_test_kernel
from gphier.norms import NormParams
from gphier.operators import Interaction
from gphier.solver import ClosureRule, SolverConfig, solve
from gphier.spectral import GridSpec, inverse_transform
from kernel_oracles import bitwise_equal

PARAMS = NormParams(alpha=1.0, xi=0.5)


class TestMapBlocks:
    def test_results_in_item_order(self, monkeypatch):
        monkeypatch.setattr(blocks, "WORKERS", 2)
        assert blocks.map_blocks(lambda x: x * x, range(50)) == [x * x for x in range(50)]

    def test_work_runs_on_pool_threads(self, monkeypatch):
        monkeypatch.setattr(blocks, "WORKERS", 2)
        idents = blocks.map_blocks(lambda _: threading.get_ident(), range(8))
        assert threading.get_ident() not in idents

    @pytest.mark.parametrize("workers, items", [(1, 8), (2, 1), (2, 0)])
    def test_serial_cases_stay_on_caller(self, monkeypatch, workers, items):
        monkeypatch.setattr(blocks, "WORKERS", workers)
        me = threading.get_ident()
        assert blocks.map_blocks(lambda _: threading.get_ident(), range(items)) == [me] * items

    def test_nested_call_runs_serially_on_the_pool_thread(self, monkeypatch):
        monkeypatch.setattr(blocks, "WORKERS", 2)

        def outer(_):
            inner = blocks.map_blocks(lambda _: threading.get_ident(), range(4))
            return inner == [threading.get_ident()] * 4

        assert all(blocks.map_blocks(outer, range(4)))

    def test_exceptions_reach_the_caller(self, monkeypatch):
        monkeypatch.setattr(blocks, "WORKERS", 2)

        def fail(x):
            if x == 3:
                raise ValueError("block 3")
            return x

        with pytest.raises(ValueError, match="block 3"):
            blocks.map_blocks(fail, range(6))

    def test_small_passes_form_one_run(self, monkeypatch):
        monkeypatch.setattr(blocks, "WORKERS", 2)
        assert blocks.deal(range(8), blocks.MIN_POOLED - 1) == [range(8)]
        assert blocks.deal(range(8), blocks.MIN_POOLED) == [range(0, 8, 2), range(1, 8, 2)]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_a_working_pool(self, monkeypatch):
        monkeypatch.setattr(blocks, "WORKERS", 2)
        blocks.map_blocks(abs, range(4))  # the parent's pool now exists
        pid = os.fork()
        if pid == 0:
            try:
                code = 0 if blocks.map_blocks(lambda x: x + 1, range(4)) == [1, 2, 3, 4] else 1
            except BaseException:
                code = 2
            os._exit(code)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("map_blocks hung in the forked child")
        assert os.waitstatus_to_exitcode(status) == 0

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_map_items_order_and_scratch(self, monkeypatch, workers):
        monkeypatch.setattr(blocks, "WORKERS", workers)
        me = threading.get_ident()
        for n in (0, 1, 2, 5, 17):
            made = []

            def scratch():
                made.append(threading.get_ident())
                return [len(made)]

            got = blocks.map_items(lambda x, buf: (x * x, buf[0]), range(n),
                                   blocks.MIN_POOLED, scratch)
            assert [value for value, _ in got] == [x * x for x in range(n)]
            # one buffer set per run, all made on the calling thread
            assert made == [me] * max(1, min(workers, n))
            assert {run for _, run in got} <= set(range(1, len(made) + 1))


class TestRows:
    @pytest.mark.parametrize("height, width", [(10, 1), (7, 1 << 14), (3, 1 << 17), (1, 5)])
    def test_slices_in_row_order_cover_every_row(self, monkeypatch, height, width):
        monkeypatch.setattr(blocks, "WORKERS", 2)
        monkeypatch.setattr(blocks, "MIN_POOLED", 0)
        mat = np.zeros((height, width))
        got = blocks.rows(lambda r, buf: r, mat)
        step = max(1, blocks.BLOCK // width)
        assert got == [slice(s, s + step) for s in range(0, height, step)]
        assert [i for r in got for i in range(height)[r]] == list(range(height))

    def test_ragged_last_block(self):
        width = blocks.BLOCK // 4  # four rows per block
        mat = np.zeros((10, width))
        shapes = blocks.rows(lambda r, buf: (mat[r].shape, buf.shape), mat)
        assert [s for s, _ in shapes] == [(4, width), (4, width), (2, width)]
        assert all(a == b for a, b in shapes)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_scratch_has_the_slice_shape_and_dtype(self, dtype):
        mat = np.ones((300, 1000), dtype=dtype)
        seen = blocks.rows(lambda r, buf: (buf.shape == mat[r].shape, buf.dtype), mat)
        assert seen == [(True, np.dtype(dtype))] * len(seen)
        assert len(seen) == 5  # 65 rows of 1000 entries per block

    def test_small_pass_is_one_run_on_the_caller(self, monkeypatch):
        monkeypatch.setattr(blocks, "WORKERS", 2)
        mat = np.zeros((blocks.MIN_POOLED // 1000 - 1, 1000))
        me = threading.get_ident()
        got = blocks.rows(lambda r, buf: (threading.get_ident(), id(buf.base)), mat)
        assert {ident for ident, _ in got} == {me}
        assert len({base for _, base in got}) == 1

    def test_output_independent_of_worker_count(self, monkeypatch):
        monkeypatch.setattr(blocks, "MIN_POOLED", 0)
        rng = np.random.default_rng(3)
        src = rng.standard_normal((500, 700)) + 1j * rng.standard_normal((500, 700))
        outs = []
        for workers in (1, 2):
            monkeypatch.setattr(blocks, "WORKERS", workers)
            out = np.empty_like(src)

            def square_rows(r, buf):
                np.multiply(src[r], src[r], out=buf)
                np.add(buf, 1.0, out=out[r])
                return float(np.sum(np.abs(buf)))

            outs.append((out, blocks.rows(square_rows, out)))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert outs[0][1] == outs[1][1]


def band_profile(grid, seed, band=1):
    rng = np.random.default_rng(seed)
    shape = (grid.M,) * grid.n
    phi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for axis in range(grid.n):
        index = [slice(None)] * grid.n
        index[axis] = np.abs(grid.modes) > band
        phi[tuple(index)] = 0.0
    return phi


def product_state(grid, K, seed):
    phi = band_profile(grid, seed)
    return HierarchySequence(K, 0.5, tuple(FactorizedKernel(grid, k, phi)
                                           for k in range(1, K + 1)))


def solve_case(name):
    """Configurations whose level-3 kernels span several blocks (M=8)."""
    grid = GridSpec(n=1, L=2 * np.pi, M=8)
    cubic = Interaction("cubic", 1)
    if name == "cubic_free_top":
        return product_state(grid, 4, 80), SolverConfig(
            grid=grid, interaction=cubic, params=PARAMS, K=4, T=0.05, N_t=4)
    if name == "quintic_simpson":
        return product_state(grid, 5, 81), SolverConfig(
            grid=grid, interaction=Interaction("quintic", -1), params=PARAMS, K=5,
            T=0.05, N_t=4, quadrature="simpson")
    if name == "cubic_dense_start":
        levels = tuple(random_test_kernel(grid, k, alpha=1.0, seed=82 + k)
                       for k in range(1, 4))
        return HierarchySequence(3, 0.5, levels), SolverConfig(
            grid=grid, interaction=cubic, params=PARAMS, K=3, T=0.05, N_t=4)
    if name == "cubic_zero_top":
        return product_state(grid, 4, 83), SolverConfig(
            grid=grid, interaction=cubic, params=PARAMS, K=4, T=0.05, N_t=4,
            closure=ClosureRule("zero_top"))
    if name == "cubic_factorized_top":
        gamma0 = product_state(grid, 4, 84)
        phi_x = inverse_transform(gamma0.level(1).phi_hat, grid)
        return gamma0, SolverConfig(
            grid=grid, interaction=cubic, params=PARAMS, K=4, T=0.05, N_t=4,
            closure=ClosureRule("factorized_top", phi0=phi_x, substeps=8))
    grid2 = GridSpec(n=2, L=2 * np.pi, M=4)
    return product_state(grid2, 3, 85), SolverConfig(
        grid=grid2, interaction=cubic, params=NormParams(alpha=1.5, xi=0.5), K=3,
        T=0.05, N_t=4)


def run_with_workers(monkeypatch, workers, gamma0, config):
    monkeypatch.setattr(blocks, "WORKERS", workers)
    # passes over these small kernels would otherwise stay on the caller
    monkeypatch.setattr(blocks, "MIN_POOLED", 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj, report = solve(gamma0, config)
    fields = asdict(report)
    fields.pop("wall_seconds")
    return traj, fields


@pytest.mark.parametrize("name", [
    "cubic_free_top", "quintic_simpson", "cubic_dense_start", "cubic_zero_top",
    "cubic_factorized_top", "n2_m4",
])
def test_solve_is_bitwise_independent_of_worker_count(monkeypatch, name):
    gamma0, config = solve_case(name)
    pooled, pooled_report = run_with_workers(monkeypatch, 2, gamma0, config)
    serial, serial_report = run_with_workers(monkeypatch, 1, gamma0, config)
    assert pooled_report == serial_report
    assert pooled_report["converged"]
    for a_state, b_state in zip(pooled.states, serial.states):
        for k in range(1, config.K + 1):
            assert bitwise_equal(a_state.level(k), b_state.level(k))
