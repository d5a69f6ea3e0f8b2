"""Full nodal analysis of a memristor crossbar.

This is the circuit-level ground truth for the IR-drop studies of
Section 3.2.  The crossbar is modelled as the complete resistive
network: every cross-point memristor connects its word-line (top) node
to its bit-line (bottom) node; adjacent nodes along a wire are joined
by the segment resistance ``r_wire``; each word line is driven from its
left end and each bit line is terminated (driven or virtually grounded)
at its bottom end, both through one additional wire segment.

Geometry and indexing::

        col 0   col 1  ...  col m-1
  row 0  T00-----T01--------T0,m-1      <- word line 0, driven at left
          |       |           |            (memristors are the vertical
  row 1  T10-----T11--------T1,m-1         bars between T and B planes)
          .       .           .
  bottom B(n-1,0) ... B(n-1,m-1)        <- bit lines terminate at bottom

Unknowns are the ``2*n*m`` node voltages (top plane then bottom plane).
The solver supports arbitrary driver voltages on both planes so the
same code answers both questions of the paper:

* **Read / compute mode** -- word lines driven at the input voltages,
  bit lines virtually grounded; the outputs are the bit-line currents.
* **Program mode** -- the V/2 scheme of Section 2.2.2: one word line at
  V, one bit line at 0, everything else at V/2; the output of interest
  is the voltage actually delivered across the selected cell.

One exact solver answers every solve and read:
:class:`repro.xbar.solvers.SchurFactor` eliminates the top plane and
factorises the banded bottom-plane Schur complement once per
conductance state (see ``docs/ir_drop.md``).  It is batch-invariant: a
batched solve or read returns, bit for bit, what the same configuration
returns alone, which is what lets a served answer be independent of how
the scheduler batched it.

:class:`ReferenceNetwork` answers the same circuit with a generic sparse
LU (``splu``) of the full ``2*n*m`` Laplacian.  It shares no code with
the Schur path beyond the right-hand sides, which makes it the
reference the tests and ``repro bench nodal`` compare against; nothing
in the serving or experiment paths selects it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from repro.xbar.solvers import SchurFactor, _wire_degrees, check_circuit

__all__ = ["NodalSolution", "CrossbarNetwork", "ReferenceNetwork"]


def _drive_rhs(
    n: int, m: int, r_wire: float, v_rows: np.ndarray, v_cols: np.ndarray
) -> np.ndarray:
    """Right-hand sides ``(2*n*m, B)`` of ``B`` driver configurations.

    Word line ``i`` is driven at ``v_rows[b, i]`` through one wire
    segment at its left end, bit line ``j`` held at ``v_cols[b, j]``
    through one segment at its bottom end.
    """
    g_w = 1.0 / r_wire
    rhs = np.zeros((v_rows.shape[0], 2, n, m))
    rhs[:, 0, :, 0] = v_rows * g_w
    rhs[:, 1, n - 1, :] = v_cols * g_w
    return rhs.reshape(v_rows.shape[0], 2 * n * m).T


@dataclasses.dataclass
class NodalSolution:
    """Result of one nodal solve (or a batch of them).

    Attributes:
        v_top: Word-line plane node voltages, shape ``(n, m)`` for a
            scalar solve, ``(B, n, m)`` from :meth:`CrossbarNetwork.solve_batch`.
        v_bottom: Bit-line plane node voltages, same shape.
        device_voltage: Voltage across each memristor, same shape.
        device_current: Current through each memristor, same shape.
        column_current: Current delivered into each bit-line
            termination, shape ``(m,)`` (or ``(B, m)``).
    """

    v_top: np.ndarray
    v_bottom: np.ndarray
    device_voltage: np.ndarray
    device_current: np.ndarray
    column_current: np.ndarray


class CrossbarNetwork:
    """Nodal model of an ``n x m`` crossbar with wire resistance.

    Args:
        conductance: Memristor conductance matrix ``G``, shape
            ``(n, m)``, in Siemens; finite and strictly positive.
        r_wire: Wire segment resistance in Ohm (finite, > 0).

    The conductance matrix is captured at construction; build a new
    network (or call :meth:`update_conductance`) after reprogramming.
    The factorisation is built on the first solve and reused until the
    conductances change.
    """

    #: Factorisation answering the solves, built from ``(g, r_wire)``.
    _factor_type = SchurFactor

    def __init__(self, conductance: np.ndarray, r_wire: float):
        conductance = np.asarray(conductance, dtype=float)
        if conductance.ndim != 2:
            raise ValueError("conductance must be a 2-D matrix")
        self.g = check_circuit(conductance, r_wire)
        self.n, self.m = conductance.shape
        self.r_wire = float(r_wire)
        self._factor = None

    def update_conductance(self, conductance: np.ndarray) -> None:
        """Replace the device conductances and drop the factorisation."""
        conductance = np.asarray(conductance, dtype=float)
        if conductance.shape != (self.n, self.m):
            raise ValueError(
                f"expected shape {(self.n, self.m)}, got {conductance.shape}"
            )
        self.g = check_circuit(conductance, self.r_wire)
        self._factor = None

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def _get_factor(self):
        if self._factor is None:
            self._factor = self._factor_type(self.g, self.r_wire)
        return self._factor

    def _solve_rhs(self, rhs: np.ndarray) -> np.ndarray:
        """Node voltages for ``A x = rhs`` (single or multi-RHS)."""
        return self._get_factor().solve(rhs)

    def solve(
        self, v_rows: np.ndarray, v_cols: np.ndarray | float = 0.0
    ) -> NodalSolution:
        """Solve the network for given driver voltages.

        Args:
            v_rows: Word-line driver voltages, shape ``(n,)``.
            v_cols: Bit-line termination voltages, scalar or ``(m,)``
                (0 for virtual-ground sensing).

        Returns:
            A :class:`NodalSolution` with node voltages and currents.
        """
        n, m = self.n, self.m
        v_rows = np.asarray(v_rows, dtype=float)
        if v_rows.shape != (n,):
            raise ValueError(f"v_rows must have shape ({n},), got {v_rows.shape}")
        v_cols = np.broadcast_to(np.asarray(v_cols, dtype=float), (m,))
        batch = self.solve_batch(v_rows[None, :], v_cols[None, :])
        return NodalSolution(
            **{f.name: getattr(batch, f.name)[0]
               for f in dataclasses.fields(NodalSolution)}
        )

    def solve_batch(
        self, v_rows: np.ndarray, v_cols: np.ndarray | float = 0.0
    ) -> NodalSolution:
        """Solve a batch of driver configurations against one factor.

        The multi-right-hand-side companion of :meth:`solve`: all ``B``
        configurations share the factorisation, which is what makes
        V/2 program-mode sweeps and defect pretests cheap -- they stop
        paying the solve dispatch per probed cell.  Each configuration's
        answer is bit-identical to solving it alone.

        Args:
            v_rows: Word-line driver voltages, shape ``(B, n)``.
            v_cols: Bit-line termination voltages: scalar, ``(m,)``
                shared by the batch, or per-configuration ``(B, m)``.

        Returns:
            A :class:`NodalSolution` whose fields carry a leading batch
            axis (``(B, n, m)`` planes, ``(B, m)`` column currents).
        """
        n, m = self.n, self.m
        v_rows = np.asarray(v_rows, dtype=float)
        if v_rows.ndim != 2 or v_rows.shape[1] != n:
            raise ValueError(
                f"v_rows must have shape (B, {n}), got {v_rows.shape}"
            )
        batch = v_rows.shape[0]
        v_cols = np.broadcast_to(
            np.asarray(v_cols, dtype=float), (batch, m)
        )
        v = self._solve_rhs(_drive_rhs(n, m, self.r_wire, v_rows, v_cols))
        v_top = v[: n * m].T.reshape(batch, n, m)
        v_bottom = v[n * m :].T.reshape(batch, n, m)
        dv = v_top - v_bottom
        i_dev = dv * self.g[None, :, :]
        i_col = (v_bottom[:, n - 1, :] - v_cols) / self.r_wire
        return NodalSolution(
            v_top=v_top,
            v_bottom=v_bottom,
            device_voltage=dv,
            device_current=i_dev,
            column_current=i_col,
        )

    # ------------------------------------------------------------------
    # convenience modes
    # ------------------------------------------------------------------
    def read(self, x: np.ndarray, v_read: float = 1.0) -> np.ndarray:
        """Column output currents for input vector ``x`` in [0, 1]."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"x must have shape ({self.n},), got {x.shape}")
        return self.read_batch(x, v_read)

    def read_batch(
        self,
        x: np.ndarray,
        v_read: float = 1.0,
        v_cols: np.ndarray | float = 0.0,
    ) -> np.ndarray:
        """Column output currents for a batch of read inputs.

        Reads never solve for node voltages: the factorisation's read
        transfer (:attr:`repro.xbar.solvers.SchurFactor.read_transfer`)
        maps drives to column currents, so once a programmed state is
        factorised a query costs one small product.  That is what
        makes batched inference serving cheap, and each input's
        currents are bit-identical to reading it alone.

        Args:
            x: Inputs in [0, 1], shape ``(s, n)`` or a single ``(n,)``.
            v_read: Read voltage scale.
            v_cols: Bit-line termination voltages: scalar (0 = the
                virtual-ground sensing default), ``(m,)`` shared by the
                batch, or per-input ``(s, m)``.  Matches the looped
                :meth:`solve` semantics -- the returned current is the
                current *into* each termination,
                ``(v_bottom - v_cols) * g_w``.

        Returns:
            Currents, shape ``(s, m)`` (or ``(m,)`` for 1-D input).
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        xb = np.atleast_2d(x)
        if xb.shape[1] != self.n:
            raise ValueError(
                f"inputs must have {self.n} features, got {xb.shape[1]}"
            )
        v_cols = np.broadcast_to(
            np.asarray(v_cols, dtype=float), (xb.shape[0], self.m)
        )
        i_col = self._get_factor().read(xb * v_read, v_cols)
        return i_col[0] if single else i_col

    def program_voltages(
        self, row: int, col: int, v_prog: float
    ) -> NodalSolution:
        """Nodal solve of the V/2 scheme selecting cell ``(row, col)``.

        The selected word line is driven at ``v_prog``, the selected bit
        line at 0, and every other wire at ``v_prog / 2``
        (Section 2.2.2).  The delivered programming voltage is
        ``solution.device_voltage[row, col]``.
        """
        if not (0 <= row < self.n and 0 <= col < self.m):
            raise IndexError(f"cell ({row}, {col}) outside {self.n}x{self.m}")
        v_rows = np.full(self.n, v_prog / 2.0)
        v_rows[row] = v_prog
        v_cols = np.full(self.m, v_prog / 2.0)
        v_cols[col] = 0.0
        return self.solve(v_rows, v_cols)

    def program_voltages_batch(
        self, cells: np.ndarray, v_prog: float
    ) -> NodalSolution:
        """Batched V/2-scheme solves, one per selected cell.

        Args:
            cells: Selected cells as ``(B, 2)`` ``(row, col)`` pairs
                (or any sequence of pairs).
            v_prog: Nominal programming voltage.

        Returns:
            A batched :class:`NodalSolution`; the delivered voltage of
            probe ``b`` is ``device_voltage[b, rows[b], cols[b]]``.
        """
        cells = np.asarray(cells, dtype=int)
        cells = np.atleast_2d(cells)
        if cells.ndim != 2 or cells.shape[1] != 2:
            raise ValueError(
                f"cells must be (B, 2) (row, col) pairs, got {cells.shape}"
            )
        rows, cols = cells[:, 0], cells[:, 1]
        if np.any((rows < 0) | (rows >= self.n)) or np.any(
            (cols < 0) | (cols >= self.m)
        ):
            raise IndexError(
                f"cell outside {self.n}x{self.m} in program batch"
            )
        batch = cells.shape[0]
        v_rows = np.full((batch, self.n), v_prog / 2.0)
        v_rows[np.arange(batch), rows] = v_prog
        v_cols = np.full((batch, self.m), v_prog / 2.0)
        v_cols[np.arange(batch), cols] = 0.0
        return self.solve_batch(v_rows, v_cols)

    def ideal_read(self, x: np.ndarray, v_read: float = 1.0) -> np.ndarray:
        """Zero-wire-resistance reference: ``I = v_read * (x @ G)``."""
        x = np.asarray(x, dtype=float)
        return v_read * (x @ self.g)


def _laplacian(g: np.ndarray, r_wire: float) -> csc_matrix:
    """The full ``2*n*m`` nodal conductance matrix, sparse CSC."""
    n, m = g.shape
    nm = n * m
    g_w = 1.0 / r_wire
    deg_top, deg_bottom = _wire_degrees(n, m)
    node = np.arange(nm).reshape(n, m)
    word = node[:, :-1].ravel()  # top node joined to its right neighbour
    bit = nm + node[:-1, :].ravel()  # bottom node joined to the one below
    a = np.concatenate([node.ravel(), word, bit])
    b = np.concatenate([nm + node.ravel(), word + 1, bit + m])
    off = np.concatenate([-g.ravel(), np.full(word.size + bit.size, -g_w)])
    diag = np.concatenate([
        (g + g_w * deg_top).ravel(), (g + g_w * deg_bottom[:, None]).ravel()
    ])
    index = np.arange(2 * nm)
    return csc_matrix(
        (np.concatenate([off, off, diag]),
         (np.concatenate([a, b, index]), np.concatenate([b, a, index]))),
        shape=(2 * nm, 2 * nm),
    )


class _SpluFactor:
    """Generic sparse LU (``splu``) of the full nodal system."""

    def __init__(self, conductance: np.ndarray, r_wire: float):
        self.g = conductance
        self.r_wire = r_wire
        self._lu = splu(_laplacian(conductance, r_wire))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(rhs, dtype=float))

    def read(self, v_rows: np.ndarray, v_cols: np.ndarray) -> np.ndarray:
        n, m = self.g.shape
        v = self.solve(_drive_rhs(n, m, self.r_wire, v_rows, v_cols))
        return (v[2 * n * m - m :].T - v_cols) / self.r_wire


class ReferenceNetwork(CrossbarNetwork):
    """The same circuit answered by a generic sparse LU (``splu``).

    Every :class:`CrossbarNetwork` method, solved by factorising the
    full ``2*n*m`` Laplacian instead of the Schur complement.  It is
    the reference the exact path is tested and benchmarked against,
    not a serving path: ``splu``'s multi-right-hand-side solve takes a
    different BLAS route from its single-column one, so its batched
    answers can differ from looped ones in the last bits.
    """

    _factor_type = _SpluFactor
