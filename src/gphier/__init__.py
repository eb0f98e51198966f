"""Spectral toolkit for truncated Gross-Pitaevskii hierarchies on the torus.

Marginal kernels live in the momentum representation on a periodic box;
the package provides the free propagator, cubic and quintic collapse
operators, weighted Sobolev norms, a Duhamel solver for the
truncated hierarchy, a split-step NLS oracle, and standalone checks of
the estimates the solver's horizon rests on.  Import the submodules
(gphier.kernels, gphier.operators, gphier.solver, ...) directly; the
package root holds only the version.
"""

__version__ = "0.1.0"
