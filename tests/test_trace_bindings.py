"""The benchmark's span tracer must find every name it wraps, and see every
call to it on the calling thread.

perfbench/spans.py wraps functions where gphier's modules bind them; a
renamed or removed binding would only surface when a traced benchmark run
fails, and a wrapped call made from a block-pool thread would corrupt its
single span stack.  The file is only read, by path.
"""

import importlib
import threading
import warnings
from pathlib import Path

import numpy as np

from gphier import blocks, kernels, norms, solver, verify
from gphier.operators import Interaction
from gphier.spectral import GridSpec

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_wraps():
    # compiled from source, so no bytecode cache is written beside it
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace["WRAPS"]


def test_every_wrapped_binding_is_callable():
    wraps = load_wraps()
    assert wraps
    missing = []
    for modname, attr, _group in wraps:
        module = importlib.import_module(modname)
        if not callable(getattr(module, attr, None)):
            missing.append(f"{modname}.{attr}")
    assert missing == []


def test_traced_calls_stay_on_the_calling_thread(monkeypatch):
    # the tracer keeps one span stack, so every wrapped call must come from
    # the thread that started the run, also while the block pool works
    monkeypatch.setattr(blocks, "WORKERS", 2)
    monkeypatch.setattr(blocks, "MIN_POOLED", 0)  # pool even these small passes
    calls = []
    for modname, attr, _group in load_wraps():
        module = importlib.import_module(modname)
        original = getattr(module, attr)

        def recorder(*args, _original=original, _name=f"{modname}.{attr}", **kwargs):
            calls.append((_name, threading.get_ident()))
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, recorder)

    grid = GridSpec(n=1, L=2 * np.pi, M=8)
    phi = np.exp(-grid.positions**2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for kind, K in (("cubic", 4), ("quintic", 5)):
            gamma0 = kernels.factorized_sequence(phi, grid, K, 0.5, dense_up_to=0)
            config = solver.SolverConfig(
                grid=grid, interaction=Interaction(kind, 1),
                params=norms.NormParams(alpha=1.0, xi=0.5), K=K, T=0.05, N_t=4)
            solver.solve(gamma0, config)
        # two trials, each drawn (verify.random_test_kernel) and projected
        # (kernels.hermitize, kernels.symmetrize) on this thread
        verify.estimate_collapse_battery((1.0,), grid, k_range=(2,), trials=2, seed=3)

    names = {name for name, _ in calls}
    for expected in ("gphier.solver.apply_btilde", "gphier.solver.apply_free_phase",
                     "gphier.solver.sobolev_norm", "gphier.solver.hermiticity_defect",
                     "gphier.verify.collapse_b1", "gphier.verify.random_test_kernel",
                     "gphier.kernels.hermitize", "gphier.kernels.symmetrize"):
        assert expected in names
    assert {ident for _, ident in calls} == {threading.get_ident()}
