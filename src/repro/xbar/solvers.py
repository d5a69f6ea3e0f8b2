"""Structure-exploiting solvers for the crossbar nodal system.

The nodal Laplacian of an ``n x m`` crossbar (:mod:`repro.xbar.nodal`)
is not a generic sparse matrix: ordered top plane then bottom plane it
is the 2x2 block system::

    [ A_t   -G_d ] [ v_t ]   [ b_t ]
    [ -G_d   A_b ] [ v_b ] = [ b_b ]

where ``A_t`` decouples into ``n`` independent *word-line ladders*
(tridiagonal over the ``m`` columns, driven at the left end), ``A_b``
into ``m`` independent *bit-line ladders* (tridiagonal over the ``n``
rows, terminated at the bottom end) -- the same ladder primitive
:mod:`repro.xbar.ir_drop` solves -- and ``G_d = diag(g)`` couples the
planes only through the per-cell memristor conductances.  This module
exploits that structure twice:

* :class:`SchurFactor` -- the one exact solver.  It eliminates the top
  plane (one tridiagonal factorisation of all ``n`` word lines), and
  the Schur complement ``S = A_b - G_d A_t^-1 G_d`` over the bottom
  plane is symmetric positive definite and *banded with bandwidth
  exactly m* in ``i*m + j`` ordering, so a banded Cholesky of the
  reduced ``n*m`` system replaces a generic sparse LU of the ``2*n*m``
  one.  Every LAPACK call it makes solves each right-hand side on its
  own, and reads go through a per-state transfer matrix, so a batched
  answer is bit-identical to the looped one.
* :func:`cg_nodal_solve` -- the Monte-Carlo kernel.  The full system is
  SPD, so conjugate gradients with a matrix-free operator apply
  (:func:`nodal_operator_apply`) solves it iteratively.  Preconditioned
  with a :class:`SchurFactor` of the *nominal* conductance state, one
  factorisation serves every variation draw of a Monte-Carlo chunk:
  trials never refactorise, they only iterate.  Iteration is blocked
  over all trials and right-hand sides at once, with converged systems
  frozen (masked updates) so each system's trajectory -- and therefore
  its result -- is independent of what it is batched with.
  :func:`nodal_read_trial_stack` is the trial-stacked read kernel the
  Monte-Carlo engine (:func:`repro.runtime.map_trials_batched`) plugs
  in.

Accuracy contract (tested in ``tests/xbar/test_solvers.py`` and
documented in ``docs/ir_drop.md``), measured against the generic
sparse-LU reference :class:`repro.xbar.nodal.ReferenceNetwork`: the
Schur path agrees to <= :data:`SCHUR_RTOL` relative error on column
currents; cg runs a fixed, deterministic iteration (tolerance
:data:`CG_TOL` on the relative residual, iteration cap
:data:`CG_MAX_ITER`, no randomness, no adaptive restarts) and agrees
to <= :data:`CG_CURRENT_RTOL`.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded, solve_triangular
from scipy.linalg.lapack import dgttrf, dgttrs, dpbtrs, dtbtrs

from repro.xbar.ir_drop import IRDropDecomposition, program_factors

__all__ = [
    "CG_TOL",
    "CG_MAX_ITER",
    "CG_CURRENT_RTOL",
    "SCHUR_RTOL",
    "SchurFactor",
    "CorrectedDecomposition",
    "cg_nodal_solve",
    "check_circuit",
    "fit_decomposed_correction",
    "nodal_operator_apply",
    "nodal_read_trial_stack",
]

#: Relative-residual convergence tolerance of the CG path.  Fixed (not
#: caller-tuned per call site) so a cg solve is a deterministic function
#: of (conductance state, preconditioner state, right-hand side) alone.
CG_TOL = 1e-13

#: Iteration cap of the CG path.  A hard, deterministic bound: the loop
#: never restarts, reorders, or randomises, so two runs of the same
#: system execute the identical instruction stream.
CG_MAX_ITER = 500

#: Documented column-current agreement of the cg kernel against the
#: sparse-LU reference (relative error; Schur holds :data:`SCHUR_RTOL`).
CG_CURRENT_RTOL = 1e-8

#: Documented column-current agreement of the Schur path against the
#: sparse-LU reference.  Both are direct solves, so the only slack is
#: floating-point reassociation, not iteration.
SCHUR_RTOL = 1e-9


def check_circuit(conductance, r_wire: float) -> np.ndarray:
    """Validate a crossbar's device conductances and wire resistance.

    Both must be finite and strictly positive.  NaN compares False
    against every bound, so a bare ``g <= 0`` test would let it through
    to the factorisation.

    Returns:
        The conductances as a float array.
    """
    g = np.asarray(conductance, dtype=float)
    if not np.all(np.isfinite(g) & (g > 0)):
        raise ValueError("conductances must be finite and strictly positive")
    if not (np.isfinite(r_wire) and r_wire > 0):
        raise ValueError(f"r_wire must be finite and > 0, got {r_wire}")
    return g


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise LinAlgError(f"LAPACK {routine} failed with info={info}")


# ----------------------------------------------------------------------
# plane structure
# ----------------------------------------------------------------------
def _wire_degrees(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Wire-conductance multiplicity per node of each plane.

    Returns ``(deg_top, deg_bottom)`` where ``deg_top`` (shape ``(m,)``)
    counts the wire segments incident on column position ``j`` of any
    word line (neighbours plus the left-end driver) and ``deg_bottom``
    (shape ``(n,)``) the segments at row position ``i`` of any bit line
    (neighbours plus the bottom-end termination).
    """
    deg_top = np.zeros(m)
    deg_top[1:] += 1.0
    deg_top[:-1] += 1.0
    deg_top[0] += 1.0
    deg_bottom = np.zeros(n)
    deg_bottom[1:] += 1.0
    deg_bottom[:-1] += 1.0
    deg_bottom[n - 1] += 1.0
    return deg_top, deg_bottom


def nodal_operator_apply(
    g: np.ndarray, r_wire: float, v: np.ndarray
) -> np.ndarray:
    """Matrix-free apply of the nodal Laplacian to plane-shaped vectors.

    Args:
        g: Device conductances, shape ``(n, m)`` or any shape
            broadcastable against ``v``'s trailing ``(n, m)`` axes
            (e.g. a ``(T, 1, n, m)`` trial stack).
        r_wire: Wire segment resistance (> 0).
        v: Node voltages with the planes stacked on axis ``-3``:
            ``v[..., 0, :, :]`` is the top (word-line) plane,
            ``v[..., 1, :, :]`` the bottom (bit-line) plane.

    Returns:
        ``A @ v`` in the same layout.  Every operation is elementwise
        or a shifted-slice add, so each leading-axis system is computed
        independently of its batch mates -- the property the blocked CG
        solver's determinism contract rests on.
    """
    g = np.asarray(g, dtype=float)
    v = np.asarray(v, dtype=float)
    n, m = v.shape[-2:]
    g_w = 1.0 / r_wire
    deg_top, deg_bottom = _wire_degrees(n, m)
    vt = v[..., 0, :, :]
    vb = v[..., 1, :, :]
    out_t = (g + g_w * deg_top) * vt - g * vb
    out_t[..., :, 1:] -= g_w * vt[..., :, :-1]
    out_t[..., :, :-1] -= g_w * vt[..., :, 1:]
    out_b = (g + g_w * deg_bottom[:, None]) * vb - g * vt
    out_b[..., 1:, :] -= g_w * vb[..., :-1, :]
    out_b[..., :-1, :] -= g_w * vb[..., 1:, :]
    return np.stack([out_t, out_b], axis=-3)


# ----------------------------------------------------------------------
# Schur-complement direct solver
# ----------------------------------------------------------------------
class SchurFactor:
    """Exact direct solve of the nodal system by top-plane elimination.

    The ``n`` word-line ladders form one flat tridiagonal system (the
    entries joining consecutive word lines are zero), factorised once
    with LAPACK ``gttrf``; every top-plane solve after that is a
    ``gttrs``.  Eliminating the top plane leaves an ``n*m`` SPD system
    whose bandwidth is exactly ``m`` -- dense ``m x m`` diagonal blocks
    from ``G_d A_t^-1 G_d`` plus the ``-g_w`` bit-line wire band --
    factorised by a banded Cholesky.  For the paper's tall-thin
    crossbars (784 x 10) that is far cheaper than a generic sparse LU
    of the full system; for large square arrays it is not (see
    ``docs/ir_drop.md``).

    Both LAPACK solves (``gttrs``, ``pbtrs``) treat each right-hand
    side on its own, so a column's answer never depends on how many
    other columns share the call.

    Args:
        conductance: Device conductances ``(n, m)``, finite and
            strictly positive.
        r_wire: Wire segment resistance (finite, > 0).
    """

    def __init__(self, conductance: np.ndarray, r_wire: float):
        g = np.asarray(conductance, dtype=float)
        if g.ndim != 2:
            raise ValueError("conductance must be a 2-D matrix")
        self.g = check_circuit(g, r_wire)
        self.n, self.m = g.shape
        self.r_wire = float(r_wire)
        n, m = self.n, self.m
        nm = n * m
        g_w = 1.0 / self.r_wire
        deg_top, deg_bottom = _wire_degrees(n, m)

        off = np.full((n, m), -g_w)
        off[:, -1] = 0.0  # word lines are not joined to each other
        off = off.ravel()[:-1]
        # scipy's gttrf wrapper rejects systems of order < 3: pad tiny
        # arrays with decoupled unit nodes.
        self._top_pad = max(0, 3 - nm)
        off = np.concatenate([off, np.zeros(self._top_pad)])
        diag = np.concatenate(
            [(g + g_w * deg_top).ravel(), np.ones(self._top_pad)]
        )
        *self._top_lu, info = dgttrf(off, diag, off)
        _check_info("gttrf", info)

        # Dense diagonal blocks of S = A_b - G_d A_t^-1 G_d from one
        # blocked solve: right-hand side j carries g[i, j] * e_(i, j)
        # for every word line i at once.
        rhs = np.zeros((nm, m), order="F")
        rhs[np.arange(nm), np.tile(np.arange(m), n)] = g.ravel()
        s_blocks = self._top_solve(rhs).reshape(n, m, m)
        s_blocks *= -g[:, :, None]
        s_blocks[:, np.arange(m), np.arange(m)] += (
            g + g_w * deg_bottom[:, None]
        )

        # Lower banded storage: ab[d, k] = S[k + d, k].  Within-block
        # entries come from the dense blocks' sub-diagonals; the only
        # cross-block coupling is the bit-line wire at offset m.
        ab_s = np.zeros((m + 1, n, m))
        for d in range(m):
            ab_s[d, :, : m - d] = np.diagonal(
                s_blocks, offset=-d, axis1=1, axis2=2
            )
        if n > 1:
            ab_s[m, : n - 1, :] = -g_w
        self._cholesky = cholesky_banded(
            ab_s.reshape(m + 1, nm), lower=True, check_finite=False
        )

    def _top_solve(self, b: np.ndarray) -> np.ndarray:
        """``A_t^-1 b`` for ``b`` of shape ``(n*m, k)``."""
        if self._top_pad:
            b = np.concatenate([b, np.zeros((self._top_pad, b.shape[1]))])
        x, info = dgttrs(*self._top_lu, b)
        _check_info("gttrs", info)
        return x[: self.n * self.m]

    def _bottom_solve(self, b: np.ndarray) -> np.ndarray:
        """``S^-1 b`` for ``b`` of shape ``(n*m, k)``."""
        x, info = dpbtrs(self._cholesky, b, lower=1)
        _check_info("pbtrs", info)
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the full ``2*n*m`` nodal system.

        Args:
            rhs: Right-hand side(s), shape ``(2*n*m,)`` or
                ``(2*n*m, k)`` (top-plane entries first, the layout of
                :class:`repro.xbar.nodal.CrossbarNetwork`).

        Returns:
            Node voltages in the same shape.
        """
        rhs = np.asarray(rhs, dtype=float)
        single = rhs.ndim == 1
        b = rhs[:, None] if single else rhs
        nm = self.n * self.m
        if b.shape[0] != 2 * nm:
            raise ValueError(
                f"rhs must have {2 * nm} entries, got {b.shape[0]}"
            )
        b_t, b_b = b[:nm], b[nm:]
        gc = self.g.reshape(nm, 1)
        v_b = self._bottom_solve(b_b + gc * self._top_solve(b_t))
        v_t = self._top_solve(b_t + gc * v_b)
        out = np.concatenate([v_t, v_b], axis=0)
        return out[:, 0] if single else out

    @functools.cached_property
    def read_transfer(self) -> tuple[np.ndarray, np.ndarray]:
        """Linear maps from read drives to column currents.

        A read drives word line ``i`` at ``v_rows[i]`` and holds bit
        line ``c`` at ``v_cols[c]``; the circuit is linear, so the
        current into each termination is exactly
        ``v_rows @ t_rows + v_cols @ t_cols``.  ``t_rows`` (``(n, m)``)
        is the crossbar's effective conductance matrix -- ``g`` itself
        as ``r_wire -> 0``.

        Only the bottom plane is solved for: with ``z_i = A_t,i^-1 e_0``
        the response of word line ``i`` to a unit drive at its left
        end, and ``u = S^-1 E`` for the unit vectors ``E`` of the
        bottom-row nodes (``S`` is symmetric, so column ``c`` of ``u``
        weighs every bottom-plane source by its effect on terminal
        ``c``), ``t_rows[i, c] = g_w^2 sum_j u[i, j, c] g[i, j] z[i, j]``.
        That costs ``m`` banded back-substitutions once per state, after
        which a read is one ``(s, n) @ (n, m)`` product.

        Returns:
            ``(t_rows, t_cols)`` of shapes ``(n, m)`` and ``(m, m)``.
        """
        n, m = self.n, self.m
        nm = n * m
        g_w = 1.0 / self.r_wire
        e_left = np.zeros((n, m))
        e_left[:, 0] = 1.0
        z = self._top_solve(e_left.reshape(nm, 1)).reshape(n, m)
        # u = L^-T L^-1 E with S = L L^T.  E is zero above the last
        # block, so the forward half reduces to inverting that block of
        # L; only the back-substitution runs over the whole band.
        band = self._cholesky[:, nm - m :]
        l_last = np.zeros((m, m))
        for d in range(m):
            l_last[np.arange(d, m), np.arange(m - d)] = band[d, : m - d]
        w = np.zeros((nm, m), order="F")
        w[nm - m :] = solve_triangular(l_last, np.eye(m), lower=True)
        u, info = dtbtrs(self._cholesky, w, uplo="L", trans="T")
        _check_info("tbtrs", info)
        u = u.reshape(n, m, m)
        t_rows = (g_w * g_w) * np.einsum("ijc,ij->ic", u, self.g * z)
        t_cols = g_w * (g_w * u[n - 1] - np.eye(m))
        return t_rows, t_cols

    def read(self, v_rows: np.ndarray, v_cols: np.ndarray) -> np.ndarray:
        """Column currents of a batch of reads, from :attr:`read_transfer`.

        Args:
            v_rows: Word-line drive voltages, shape ``(s, n)``.
            v_cols: Bit-line termination voltages, shape ``(s, m)``.

        Returns:
            Currents into each termination, shape ``(s, m)``.  Each row
            is a fixed-order sum over its own inputs (einsum, not BLAS),
            so it does not depend on the other rows of the batch.
        """
        t_rows, t_cols = self.read_transfer
        return np.einsum(
            "sn,nm->sm", np.ascontiguousarray(v_rows), t_rows
        ) + np.einsum("sm,mc->sc", np.ascontiguousarray(v_cols), t_cols)


# ----------------------------------------------------------------------
# preconditioned conjugate gradients
# ----------------------------------------------------------------------
def _system_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-system inner product over the trailing plane axes.

    Both operands are ``(T, k, 2, n, m)``; the reduction runs over each
    system's own contiguous trailing block, so the value for system
    ``(t, q)`` does not depend on how many other systems share the
    batch -- the accumulation-order requirement of the determinism
    contract (cf. REP009).
    """
    return np.sum(a * b, axis=(-3, -2, -1))


def cg_nodal_solve(
    g_stack: np.ndarray,
    rhs: np.ndarray,
    r_wire: float,
    precond: SchurFactor,
    tol: float = CG_TOL,
    max_iter: int = CG_MAX_ITER,
) -> tuple[np.ndarray, int]:
    """Blocked preconditioned CG over a stack of conductance states.

    Solves ``A(g_stack[t]) x = rhs[t]`` for every trial ``t`` and every
    right-hand-side column jointly: one :func:`nodal_operator_apply`
    and one preconditioner application per iteration cover the whole
    ``T x k`` block.  The preconditioner is a single
    :class:`SchurFactor` -- typically of the *nominal* conductance
    state -- shared by every trial, which is what removes the
    per-trial factorisation from Monte-Carlo sweeps entirely.

    Determinism: iterations run in a fixed order with a fixed cap;
    converged systems are frozen (their step sizes are masked to zero)
    rather than removed, so each system's iterate sequence is a pure
    function of its own ``(g, rhs)`` and the preconditioner state --
    independent of chunking, batching, or ``--jobs``.

    Args:
        g_stack: Conductance states, shape ``(T, n, m)``.
        rhs: Right-hand sides, shape ``(T, 2*n*m, k)``.
        r_wire: Wire segment resistance (> 0).
        precond: Factorisation applied as the preconditioner.
        tol: Relative-residual convergence tolerance.
        max_iter: Hard iteration cap.

    Returns:
        ``(x, iterations)``: solutions shaped like ``rhs`` and the
        number of blocked iterations executed.
    """
    g_stack = np.asarray(g_stack, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if g_stack.ndim != 3:
        raise ValueError(
            f"g_stack must be (T, n, m), got shape {g_stack.shape}"
        )
    t_count, n, m = g_stack.shape
    size = 2 * n * m
    if rhs.ndim != 3 or rhs.shape[0] != t_count or rhs.shape[1] != size:
        raise ValueError(
            f"rhs must be ({t_count}, {size}, k), got shape {rhs.shape}"
        )
    if (precond.n, precond.m) != (n, m):
        raise ValueError(
            f"preconditioner geometry {(precond.n, precond.m)} != "
            f"system geometry {(n, m)}"
        )
    k = rhs.shape[2]
    b = np.transpose(rhs, (0, 2, 1)).reshape(t_count, k, 2, n, m)
    gb = g_stack[:, None, :, :]

    def apply_precond(r: np.ndarray) -> np.ndarray:
        flat = r.reshape(t_count * k, size).T
        return precond.solve(flat).T.reshape(t_count, k, 2, n, m)

    x = np.zeros_like(b)
    r = b.copy()
    b_norm_sq = _system_dot(b, b)
    threshold = (tol * tol) * b_norm_sq
    z = apply_precond(r)
    p = z.copy()
    rz = _system_dot(r, z)
    iterations = 0
    for _ in range(max_iter):
        active = _system_dot(r, r) > threshold
        if not active.any():
            break
        iterations += 1
        ap = nodal_operator_apply(gb, r_wire, p)
        pap = _system_dot(p, ap)
        live = active & (pap > 0)
        alpha = np.where(live, rz / np.where(pap > 0, pap, 1.0), 0.0)
        step = alpha[:, :, None, None, None]
        x = x + step * p
        r = r - step * ap
        z = apply_precond(r)
        rz_new = _system_dot(r, z)
        beta = np.where(live, rz_new / np.where(rz != 0, rz, 1.0), 0.0)
        p = z + beta[:, :, None, None, None] * p
        rz = rz_new
    out = np.transpose(x.reshape(t_count, k, size), (0, 2, 1))
    return out, iterations


# ----------------------------------------------------------------------
# trial-stacked Monte-Carlo read kernel
# ----------------------------------------------------------------------
def _read_rhs_stack(
    x: np.ndarray, t_count: int, n: int, m: int, g_w: float, v_read: float
) -> np.ndarray:
    """Read-mode right-hand sides ``(T, 2*n*m, s)`` for inputs ``x``."""
    rhs = np.zeros((t_count, 2 * n * m, x.shape[0]))
    left = np.arange(n) * m
    rhs[:, left, :] = (v_read * g_w) * x.T[None, :, :]
    return rhs


def _nodal_read_trial_stack_host(
    g_stack: np.ndarray,
    x: np.ndarray,
    r_wire: float,
    v_read: float,
    precond_g: np.ndarray | None,
    tol: float,
    max_iter: int,
) -> np.ndarray:
    """Numpy implementation behind :func:`nodal_read_trial_stack`."""
    g_stack = np.asarray(g_stack, dtype=float)
    if g_stack.ndim != 3:
        raise ValueError(
            f"g_stack must be (T, n, m), got shape {g_stack.shape}"
        )
    check_circuit(g_stack, r_wire)
    t_count, n, m = g_stack.shape
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != n:
        raise ValueError(
            f"inputs must have {n} features, got {x.shape[1]}"
        )
    g_w = 1.0 / r_wire
    nm = n * m
    bottom_row = slice(nm + (n - 1) * m, nm + n * m)
    if precond_g is None:
        precond_g = np.mean(g_stack, axis=0)
    precond = SchurFactor(precond_g, r_wire)
    rhs = _read_rhs_stack(x, t_count, n, m, g_w, v_read)
    v, _ = cg_nodal_solve(
        g_stack, rhs, r_wire, precond, tol=tol, max_iter=max_iter
    )
    # Bit lines are virtually grounded during reads.
    return np.transpose(v[:, bottom_row, :], (0, 2, 1)) * g_w


def nodal_read_trial_stack(
    g_stack,
    x,
    r_wire: float,
    v_read: float = 1.0,
    precond_g=None,
    tol: float = CG_TOL,
    max_iter: int = CG_MAX_ITER,
    backend=None,
):
    """Nodal column currents for a whole stack of conductance trials.

    The Monte-Carlo nodal kernel: instead of factorising per trial,
    all ``T`` trials and ``s`` read inputs are solved as one blocked
    multi-right-hand-side cg problem, preconditioned by one
    :class:`SchurFactor` of ``precond_g`` -- pass the nominal,
    pre-variation conductance state; the trial mean when ``None``.

    The kernel is backend-aware (see :mod:`repro.backend`): operands
    are converted at the host boundary, the solves run host-side
    (scipy), and the currents are returned on ``backend``.

    Args:
        g_stack: Trial conductances, shape ``(T, n, m)``.
        x: Read inputs in [0, 1], shape ``(s, n)`` (or ``(n,)``).
        r_wire: Wire segment resistance (> 0).
        v_read: Read voltage scale.
        precond_g: Nominal conductance state for the shared
            preconditioner.
        tol: CG relative-residual tolerance.
        max_iter: CG iteration cap.
        backend: Array namespace of the returned currents.

    Returns:
        Column currents, shape ``(T, s, m)``.
    """
    from repro.backend import resolve_backend

    bk = resolve_backend(backend)
    currents = _nodal_read_trial_stack_host(
        bk.to_numpy(bk.asarray(g_stack)),
        bk.to_numpy(bk.asarray(x)),
        r_wire,
        v_read,
        None if precond_g is None else bk.to_numpy(bk.asarray(precond_g)),
        tol,
        max_iter,
    )
    return bk.asarray(currents)


# ----------------------------------------------------------------------
# fitted correction of the decomposed beta/D fast model
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class CorrectedDecomposition:
    """A beta/D decomposition with a per-geometry fitted correction.

    The paper's decomposition (:func:`repro.xbar.ir_drop.program_factors`)
    is first-order: it composes the exact 1-D ladder solutions and
    under- or over-states the 2-D coupling by a geometry-dependent
    amount.  Fitting a single drop-scale ``gain`` against the exact
    nodal solver on a deterministic sample of cells recovers most of
    that gap at decomposed cost, so large sweeps can run near-reference
    accuracy without per-state nodal solves.

    Attributes:
        base: The uncorrected decomposition.
        gain: Fitted scale on the modelled voltage *drop*:
            ``corrected = 1 - gain * (1 - base.combined)``.
        combined: Corrected per-cell delivered-voltage factors,
            clipped to (0, 1].
        sample_cells: The ``(row, col)`` cells the fit was anchored on.
        raw_error: Max relative factor error of ``base.combined``
            against the exact solver on the sample cells.
        fitted_error: Same measure for the corrected factors.
    """

    base: IRDropDecomposition
    gain: float
    combined: np.ndarray
    sample_cells: tuple[tuple[int, int], ...]
    raw_error: float
    fitted_error: float


def _sample_cells(n: int, m: int, samples: int) -> list[tuple[int, int]]:
    """A deterministic cell grid covering corners, edges and interior."""
    side = max(2, int(round(float(samples) ** 0.5)))
    rows = np.unique(np.linspace(0, n - 1, side).round().astype(int))
    cols = np.unique(np.linspace(0, m - 1, side).round().astype(int))
    return [(int(r), int(c)) for r in rows for c in cols]


def fit_decomposed_correction(
    conductance: np.ndarray,
    r_wire: float,
    v_prog: float,
    samples: int = 16,
) -> CorrectedDecomposition:
    """Fit the decomposed model's drop scale against the exact solver.

    Computes the exact delivered-voltage factors on a deterministic
    sample of cells (one multi-right-hand-side :class:`SchurFactor`
    solve of the V/2 scheme -- the exact solver, not the fast model)
    and least-squares fits the scalar ``gain`` minimising
    ``|exact_drop - gain * modelled_drop|`` over the sample.

    Args:
        conductance: Crossbar conductances ``(n, m)``.
        r_wire: Wire segment resistance (> 0).
        v_prog: Nominal programming voltage.
        samples: Approximate number of anchor cells (gridded over the
            geometry; corners always included).

    Returns:
        A :class:`CorrectedDecomposition`.
    """
    g = np.asarray(conductance, dtype=float)
    n, m = g.shape
    base = program_factors(g, r_wire, v_prog)
    cells = _sample_cells(n, m, samples)
    g_w = 1.0 / r_wire
    nm = n * m

    # Exact V/2-scheme solves, one right-hand side per sampled cell.
    rhs = np.zeros((2 * nm, len(cells)))
    half = v_prog / 2.0
    left = np.arange(n) * m
    bottom = nm + (n - 1) * m + np.arange(m)
    for idx, (row, col) in enumerate(cells):
        v_rows = np.full(n, half)
        v_rows[row] = v_prog
        v_cols = np.full(m, half)
        v_cols[col] = 0.0
        rhs[left, idx] = v_rows * g_w
        rhs[bottom, idx] += v_cols * g_w
    v = SchurFactor(g, r_wire).solve(rhs)
    exact = np.empty(len(cells))
    for idx, (row, col) in enumerate(cells):
        node = row * m + col
        exact[idx] = (v[node, idx] - v[nm + node, idx]) / v_prog

    modelled = np.array([base.combined[r, c] for r, c in cells])
    exact_drop = 1.0 - exact
    model_drop = 1.0 - modelled
    denom = float(np.dot(model_drop, model_drop))
    gain = float(np.dot(model_drop, exact_drop)) / denom if denom > 0 else 1.0
    corrected = np.clip(1.0 - gain * (1.0 - base.combined), 1e-9, 1.0)

    raw_error = float(np.max(np.abs(modelled - exact) / exact))
    fitted = np.array([corrected[r, c] for r, c in cells])
    fitted_error = float(np.max(np.abs(fitted - exact) / exact))
    return CorrectedDecomposition(
        base=base,
        gain=gain,
        combined=corrected,
        sample_cells=tuple(cells),
        raw_error=raw_error,
        fitted_error=fitted_error,
    )
