"""The three nodal solve paths, as networks tests can swap in.

``lu`` is the generic sparse-LU reference
(:class:`~repro.xbar.nodal.ReferenceNetwork`), ``schur`` the exact
path every :class:`~repro.xbar.nodal.CrossbarNetwork` answers through,
and ``cg`` the Monte-Carlo kernel's blocked cg solve
(:func:`~repro.xbar.solvers.cg_nodal_solve`) behind the same network
API.  Each class takes ``(conductance, r_wire)``, so a test can also
substitute one for ``repro.xbar.crossbar.CrossbarNetwork`` to compute
a crossbar, tile or pipeline reference through that path.
"""

from __future__ import annotations

import numpy as np

from repro.xbar.nodal import CrossbarNetwork, ReferenceNetwork, _drive_rhs
from repro.xbar.solvers import SchurFactor, cg_nodal_solve

PATHS = ("lu", "schur", "cg")

#: Uniform conductance the cg preconditioner is factorised at: a state
#: other than the solved one, so cg genuinely iterates.
CG_NOMINAL_G = 1e-4


class _CgFactor:
    """cg answers for one state, preconditioned on the nominal state."""

    def __init__(self, conductance: np.ndarray, r_wire: float):
        self.g = conductance
        self.r_wire = r_wire
        self._precond = SchurFactor(
            np.full(conductance.shape, CG_NOMINAL_G), r_wire
        )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        block = rhs[:, None] if rhs.ndim == 1 else rhs
        v, _ = cg_nodal_solve(
            self.g[None], block[None], self.r_wire, self._precond
        )
        return v[0, :, 0] if rhs.ndim == 1 else v[0]

    def read(self, v_rows: np.ndarray, v_cols: np.ndarray) -> np.ndarray:
        n, m = self.g.shape
        v = self.solve(_drive_rhs(n, m, self.r_wire, v_rows, v_cols))
        return (v[2 * n * m - m :].T - v_cols) / self.r_wire


class CgNetwork(CrossbarNetwork):
    """The circuit answered by the Monte-Carlo kernel's cg solve."""

    _factor_type = _CgFactor


NETWORKS = {"lu": ReferenceNetwork, "schur": CrossbarNetwork, "cg": CgNetwork}


def make_network(path: str, g: np.ndarray, r_wire: float = 2.5):
    """A network whose solves and reads go through ``path``."""
    return NETWORKS[path](g, r_wire)
