"""Tests for the structure-exploiting nodal solver subsystem.

The accuracy contract of ``docs/ir_drop.md``, against the generic
``splu`` reference (:class:`~repro.xbar.nodal.ReferenceNetwork`): the
exact Schur path matches it to <= SCHUR_RTOL relative error on column
currents, the cg Monte-Carlo kernel to <= CG_CURRENT_RTOL with a
deterministic fixed-order iteration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import map_trials, map_trials_batched
from repro.xbar.ir_drop import program_factors
from repro.xbar.nodal import CrossbarNetwork, ReferenceNetwork
from repro.xbar.solvers import (
    CG_CURRENT_RTOL,
    SCHUR_RTOL,
    SchurFactor,
    cg_nodal_solve,
    fit_decomposed_correction,
    nodal_operator_apply,
    nodal_read_trial_stack,
)
from tests.xbar.solve_paths import PATHS, make_network

# Deliberately awkward geometries: tall-thin, wide-short, single row,
# single column, square, and the paper's 100x10 shape.
GEOMETRIES = [(8, 5), (3, 7), (16, 16), (30, 1), (1, 6), (100, 10)]


def random_conductance(n, m, seed=0, sigma=0.6):
    rng = np.random.default_rng(seed)
    return 1e-4 * np.exp(sigma * rng.normal(size=(n, m)))


def read_inputs(n, seed=1, batch=5):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(batch, n))


class TestOperatorApply:
    @pytest.mark.parametrize("n,m", GEOMETRIES)
    def test_matches_assembled_matrix(self, n, m):
        """A @ v computed matrix-free inverts the exact solve."""
        g = random_conductance(n, m)
        network = CrossbarNetwork(g, 2.5)
        rng = np.random.default_rng(3)
        v_flat = rng.normal(size=2 * n * m)
        # Solve then re-apply: A (A^-1 b) must reproduce b.
        x = network._solve_rhs(v_flat)
        applied = nodal_operator_apply(
            g, 2.5, x.reshape(2, n, m)
        ).reshape(-1)
        assert np.allclose(applied, v_flat, atol=1e-12 * np.abs(v_flat).max())


class TestSchurParity:
    @pytest.mark.parametrize("n,m", GEOMETRIES)
    def test_column_currents_within_contract(self, n, m):
        g = random_conductance(n, m)
        x = read_inputs(n)
        i_lu = ReferenceNetwork(g, 2.5).read_batch(x)
        i_schur = CrossbarNetwork(g, 2.5).read_batch(x)
        scale = np.abs(i_lu).max()
        assert np.abs(i_schur - i_lu).max() / scale <= SCHUR_RTOL

    @pytest.mark.parametrize("n,m", GEOMETRIES)
    def test_full_solution_with_nonzero_v_cols(self, n, m):
        g = random_conductance(n, m, seed=5)
        rng = np.random.default_rng(6)
        v_rows = rng.uniform(size=n)
        v_cols = rng.uniform(size=m) * 0.2
        lu = ReferenceNetwork(g, 2.5).solve(v_rows, v_cols)
        schur = CrossbarNetwork(g, 2.5).solve(v_rows, v_cols)
        scale = np.abs(lu.v_top).max()
        assert np.abs(schur.v_top - lu.v_top).max() / scale <= SCHUR_RTOL
        assert np.abs(schur.v_bottom - lu.v_bottom).max() / scale <= SCHUR_RTOL

    def test_schur_factor_multi_rhs_equals_looped(self):
        """One multi-RHS solve is bit-identical per column to loops."""
        g = random_conductance(12, 6)
        factor = SchurFactor(g, 2.5)
        rng = np.random.default_rng(7)
        rhs = rng.normal(size=(2 * 12 * 6, 4))
        batched = factor.solve(rhs)
        for k in range(4):
            assert np.array_equal(batched[:, k], factor.solve(rhs[:, k]))

    def test_read_transfer_tends_to_g_without_wire_resistance(self):
        """The effective conductance is g itself as r_wire -> 0."""
        g = random_conductance(7, 4)
        t_rows, _ = SchurFactor(g, 1e-9).read_transfer
        np.testing.assert_allclose(t_rows, g, rtol=1e-6)


class TestCgParity:
    @pytest.mark.parametrize("n,m", GEOMETRIES)
    def test_column_currents_within_contract(self, n, m):
        g = random_conductance(n, m)
        x = read_inputs(n)
        nm = n * m
        rhs = np.zeros((1, 2 * nm, x.shape[0]))
        rhs[0, np.arange(n) * m, :] = x.T / 2.5
        # Anchor the preconditioner on a *different* (nominal) state so
        # the test exercises real iteration, not an exact inverse.
        precond = SchurFactor(np.full((n, m), 1e-4), 2.5)
        v, iterations = cg_nodal_solve(g[None], rhs, 2.5, precond)
        i_cg = v[0, 2 * nm - m :, :].T / 2.5
        i_lu = ReferenceNetwork(g, 2.5).read_batch(x)
        scale = np.abs(i_lu).max()
        assert np.abs(i_cg - i_lu).max() / scale <= CG_CURRENT_RTOL
        assert iterations > 0

    def test_batch_invariance(self):
        """A system's cg answer is independent of its batch mates."""
        n, m = 20, 4
        rng = np.random.default_rng(11)
        g_stack = 1e-4 * np.exp(0.6 * rng.normal(size=(6, n, m)))
        precond = SchurFactor(np.full((n, m), 1e-4), 2.5)
        rhs = np.zeros((6, 2 * n * m, 3))
        rhs[:, np.arange(n) * m, :] = rng.uniform(size=(6, n, 3)) * 0.4
        full, _ = cg_nodal_solve(g_stack, rhs, 2.5, precond)
        # Each trial solved alone, and in a half batch, must agree
        # bit-for-bit with its slice of the full batch.
        for t in range(6):
            alone, _ = cg_nodal_solve(
                g_stack[t : t + 1], rhs[t : t + 1], 2.5, precond
            )
            assert np.array_equal(alone[0], full[t])
        half, _ = cg_nodal_solve(g_stack[:3], rhs[:3], 2.5, precond)
        assert np.array_equal(half, full[:3])

    def test_deterministic_across_jobs(self):
        """map_trials_batched chunking/jobs never changes cg results."""
        import functools

        from repro.experiments.bench_nodal import (
            NodalColumnConfig,
            _nodal_column_trial_batch,
        )

        cfg = NodalColumnConfig(n_devices=24, cols=3)
        kernel = functools.partial(_nodal_column_trial_batch, cfg=cfg)
        base = map_trials_batched(kernel, 12, seed=5, jobs=1)
        chunked = map_trials_batched(
            kernel, 12, seed=5, jobs=1, chunk_size=5
        )
        assert np.array_equal(base, chunked)


class TestStructureCache:
    def test_values_only_rewrite_is_bit_identical(self):
        """update_conductance must equal a from-scratch build exactly."""
        g1 = random_conductance(9, 4, seed=1)
        g2 = random_conductance(9, 4, seed=2)
        x = read_inputs(9)
        network = CrossbarNetwork(g1, 2.5)
        network.read_batch(x)  # force assembly of g1's factor
        network.update_conductance(g2)
        fresh = CrossbarNetwork(g2, 2.5)
        assert np.array_equal(network.read_batch(x), fresh.read_batch(x))

    def test_update_validates_shape_and_sign(self):
        network = CrossbarNetwork(random_conductance(4, 3), 2.5)
        with pytest.raises(ValueError, match="expected shape"):
            network.update_conductance(np.ones((3, 4)) * 1e-5)
        with pytest.raises(ValueError, match="positive"):
            network.update_conductance(np.zeros((4, 3)))
        for bad in (np.nan, np.inf):
            g = random_conductance(4, 3)
            g[1, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                network.update_conductance(g)

    def test_schur_factor_rejects_non_finite_inputs(self):
        g = random_conductance(4, 3)
        with pytest.raises(ValueError, match="r_wire"):
            SchurFactor(g, float("nan"))
        g[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SchurFactor(g, 2.5)


class TestTrialStackedKernel:
    @pytest.mark.parametrize("solver", PATHS)
    def test_matches_per_trial_networks(self, solver):
        # The stacked kernel against one network per trial, solved on
        # each path.
        n, m = 30, 5
        rng = np.random.default_rng(17)
        g_stack = 1e-4 * np.exp(0.5 * rng.normal(size=(7, n, m)))
        x = read_inputs(n, batch=4)
        stacked = nodal_read_trial_stack(
            g_stack, x, 2.5, v_read=0.8, precond_g=np.full((n, m), 1e-4),
        )
        assert stacked.shape == (7, 4, m)
        for t in range(7):
            exact = make_network(solver, g_stack[t]).read_batch(x, 0.8)
            scale = np.abs(exact).max()
            assert np.abs(stacked[t] - exact).max() / scale <= (
                CG_CURRENT_RTOL
            )

    def test_runs_under_executor(self):
        import functools

        from repro.experiments.bench_nodal import (
            NodalColumnConfig,
            _nodal_column_trial,
            _nodal_column_trial_batch,
        )

        cfg = NodalColumnConfig(n_devices=16, cols=2)
        baseline = map_trials(
            functools.partial(_nodal_column_trial, cfg=cfg), 8, seed=3
        )
        stacked = map_trials_batched(
            functools.partial(_nodal_column_trial_batch, cfg=cfg),
            8, seed=3,
        )
        scale = np.abs(baseline).max()
        assert np.abs(stacked - baseline).max() / scale <= CG_CURRENT_RTOL


class TestSolverKnob:
    """A crossbar's nodal read, checked against every solve path.

    There is no solver to select: ``Crossbar.read(ir_mode="nodal")``
    is the exact network read, and the splu reference and the cg
    kernel agree with it within their contracts.
    """

    @pytest.mark.parametrize("solver", PATHS)
    def test_crossbar_nodal_read_agrees_across_solvers(self, solver):
        from repro.config import CrossbarConfig
        from repro.xbar.crossbar import Crossbar

        crossbar = Crossbar(
            CrossbarConfig(rows=12, cols=4, r_wire=2.5),
            rng=np.random.default_rng(1),
        )
        x = read_inputs(12, batch=3)
        currents = crossbar.read(x, ir_mode="nodal")
        other = make_network(solver, crossbar.conductance).read_batch(x)
        if solver == "schur":
            assert np.array_equal(currents, other)
        else:
            rtol = SCHUR_RTOL if solver == "lu" else CG_CURRENT_RTOL
            scale = np.abs(other).max()
            assert np.abs(currents - other).max() / scale <= rtol


class TestFittedCorrection:
    def test_correction_reduces_error(self):
        g = np.full((64, 10), 1e-4)
        corrected = fit_decomposed_correction(g, 2.5, 2.9)
        assert corrected.fitted_error <= corrected.raw_error
        assert corrected.combined.shape == g.shape
        assert np.all(corrected.combined > 0)
        assert np.all(corrected.combined <= 1.0)

    def test_gain_near_one_for_easy_geometry(self):
        """Tiny crossbars have little 2-D coupling: gain stays near 1."""
        g = np.full((4, 3), 1e-4)
        corrected = fit_decomposed_correction(g, 2.5, 2.9)
        assert 0.5 < corrected.gain < 2.0

    def test_base_preserved(self):
        g = np.full((16, 5), 1e-4)
        corrected = fit_decomposed_correction(g, 2.5, 2.9)
        base = program_factors(g, 2.5, 2.9)
        assert np.array_equal(corrected.base.combined, base.combined)
