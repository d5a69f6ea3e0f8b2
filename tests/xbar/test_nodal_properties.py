"""Physics property tests for the nodal ground truth.

Whichever of the three remaining solve paths answers the system -- the
splu reference (``lu``), the exact Schur path every network answers
through (``schur``), or the Monte-Carlo cg kernel (``cg``) -- the
solution must be a valid circuit: Kirchhoff's current law holds at
every node and the current the drivers inject equals the current the
terminations collect.  Batched paths equal the looped ones at any
geometry and any batch split -- bit for bit on the batch-invariant
``schur`` and ``cg`` paths -- including at nonzero bit-line termination
voltages (the regression of the silent grounded-bit-line assumption
the old ``read_batch`` carried).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xbar.nodal import CrossbarNetwork, ReferenceNetwork
from repro.xbar.solvers import CG_CURRENT_RTOL, SCHUR_RTOL, nodal_operator_apply
from tests.xbar.solve_paths import PATHS, make_network

GEOMETRIES = [(8, 5), (3, 7), (16, 16), (30, 1), (1, 6)]

#: Geometries of the batch-invariance properties: the served layer-1
#: tile, squares where a generic sparse LU is not batch-invariant, and
#: degenerate single-row / single-column arrays.
INVARIANCE_GEOMETRIES = [(49, 24), (64, 64), (128, 128), (1, 6), (30, 1)]

#: KCL residual budget relative to the driving current scale.  The
#: direct paths sit at machine epsilon; cg is bounded by its tolerance.
KCL_RTOL = 1e-6

#: Column-current error bound of the other paths against the splu reference.
REFERENCE_RTOL = {"schur": SCHUR_RTOL, "cg": CG_CURRENT_RTOL}


def random_conductance(n, m, seed=0):
    rng = np.random.default_rng(seed)
    return 1e-4 * np.exp(0.6 * rng.normal(size=(n, m)))


def assert_batch_equal(path, batched, looped):
    """Batched equals looped: bit for bit, except on the splu reference.

    splu's multi-right-hand-side solve takes a different BLAS route from
    its single-column one, so there the two agree only to rounding.
    """
    if path == "lu":
        np.testing.assert_allclose(
            batched, looped, rtol=1e-9, atol=1e-12 * np.abs(looped).max()
        )
    else:
        assert np.array_equal(batched, looped)


@st.composite
def batch_splits(draw):
    """A geometry, a batch of inputs and a sorted list of split points."""
    n, m = draw(st.sampled_from(INVARIANCE_GEOMETRIES))
    batch = draw(st.integers(1, 12))
    cuts = draw(st.lists(st.integers(1, max(1, batch - 1)), max_size=3))
    seed = draw(st.integers(0, 2**16))
    cuts = sorted({c for c in cuts if c < batch})
    return n, m, batch, cuts, seed


def _split(a, cuts):
    return np.split(a, cuts) if cuts else [a]


def _solution_residual(network, v_rows, v_cols, solution):
    """KCL residual ``A v - b`` at every node, as one (2, n, m) array.

    ``A v`` comes from the matrix-free operator apply (independently
    coded from every factorising solver), ``b`` from the driver
    currents, so a small residual certifies both the solve and the
    assembly against each other.
    """
    n, m = network.n, network.m
    g_w = 1.0 / network.r_wire
    v = np.stack([solution.v_top, solution.v_bottom])
    applied = nodal_operator_apply(network.g, network.r_wire, v)
    b = np.zeros((2, n, m))
    b[0, :, 0] = np.asarray(v_rows) * g_w
    b[1, n - 1, :] += np.broadcast_to(np.asarray(v_cols, dtype=float), (m,)) * g_w
    return applied - b


class TestKCL:
    @pytest.mark.parametrize("n,m", GEOMETRIES)
    @pytest.mark.parametrize("solver", PATHS)
    def test_current_conservation_every_node(self, n, m, solver):
        """KCL holds at every node, not only the sensed boundary."""
        network = make_network(solver, random_conductance(n, m))
        rng = np.random.default_rng(1)
        v_rows = rng.uniform(size=n)
        v_cols = rng.uniform(size=m) * 0.1
        solution = network.solve(v_rows, v_cols)
        residual = _solution_residual(network, v_rows, v_cols, solution)
        scale = np.abs(v_rows).max() / network.r_wire
        assert np.abs(residual).max() / scale <= KCL_RTOL

    @pytest.mark.parametrize("solver", PATHS)
    def test_driver_current_balance(self, solver):
        """Injected word-line current equals collected column current.

        The network has no other terminals, so conservation over the
        whole circuit forces sum(driver currents) == sum(column
        currents) whenever the terminations are grounded.
        """
        n, m = 20, 6
        network = make_network(solver, random_conductance(n, m))
        rng = np.random.default_rng(2)
        v_rows = rng.uniform(size=n)
        solution = network.solve(v_rows, 0.0)
        g_w = 1.0 / network.r_wire
        injected = np.sum((v_rows - solution.v_top[:, 0]) * g_w)
        collected = np.sum(solution.column_current)
        assert injected == pytest.approx(collected, rel=1e-6)

    @pytest.mark.parametrize("solver", PATHS)
    def test_device_currents_sum_to_column_current(self, solver):
        """Per-column device currents equal what the termination sees.

        Within one bit line the device currents all flow to the bottom
        termination (no other exit), so their sum must match
        ``column_current`` when the bit lines are grounded.
        """
        n, m = 12, 4
        network = make_network(solver, random_conductance(n, m))
        solution = network.solve(np.linspace(0.1, 1.0, n), 0.0)
        per_column = solution.device_current.sum(axis=0)
        np.testing.assert_allclose(
            per_column, solution.column_current, rtol=1e-6
        )


class TestReadBatchEquivalence:
    @pytest.mark.parametrize("solver", PATHS)
    @settings(max_examples=25, deadline=None)
    @given(case=batch_splits())
    def test_read_batch_equals_looped_read(self, solver, case):
        """A read's currents never depend on its batch mates.

        Every row of a batched read equals reading that input alone,
        and any split of the batch concatenates back to the full read
        (bit for bit on the batch-invariant paths).
        """
        n, m, batch, cuts, seed = case
        network = make_network(solver, random_conductance(n, m, seed))
        x = np.random.default_rng(seed).uniform(size=(batch, n))
        full = network.read_batch(x, 0.9)
        assert full.shape == (batch, m)
        for s in range(batch):
            assert_batch_equal(
                solver, full[s], network.read_batch(x[s : s + 1], 0.9)[0]
            )
            assert_batch_equal(solver, full[s], network.read(x[s], 0.9))
        split = np.concatenate(
            [network.read_batch(part, 0.9) for part in _split(x, cuts)]
        )
        assert_batch_equal(solver, split, full)
        if solver != "lu":
            # The path agrees with the splu reference within its contract.
            reference = ReferenceNetwork(network.g, 2.5).read_batch(x, 0.9)
            scale = np.abs(reference).max()
            assert np.abs(full - reference).max() <= REFERENCE_RTOL[solver] * scale

    @pytest.mark.parametrize("solver", PATHS)
    def test_read_batch_supports_nonzero_v_cols(self, solver):
        """Regression: the batched path honours v_cols.

        The pre-subsystem ``read_batch`` silently computed
        ``v_bottom * g_w`` -- correct only for grounded bit lines.  The
        batched current must now equal the looped ``solve`` current at
        any termination voltage, per input and shared alike, on every
        solve path.
        """
        n, m = 9, 5
        network = make_network(solver, random_conductance(n, m))
        rng = np.random.default_rng(4)
        x = rng.uniform(size=(4, n))
        shared = rng.uniform(size=m) * 0.2
        per_input = rng.uniform(size=(4, m)) * 0.2
        for v_cols in (shared, per_input):
            batched = network.read_batch(x, 1.0, v_cols=v_cols)
            for s in range(4):
                vc = v_cols if v_cols.ndim == 1 else v_cols[s]
                looped = network.solve(x[s], vc).column_current
                np.testing.assert_allclose(
                    batched[s], looped, rtol=1e-9,
                    atol=1e-12 * np.abs(looped).max(),
                )

    def test_single_input_shape(self):
        network = CrossbarNetwork(random_conductance(5, 3), 2.5)
        single = network.read_batch(np.full(5, 0.5))
        assert single.shape == (3,)
        np.testing.assert_allclose(single, network.read(np.full(5, 0.5)))


class TestBatchedSolvePaths:
    @pytest.mark.parametrize("solver", PATHS)
    @settings(max_examples=15, deadline=None)
    @given(case=batch_splits())
    def test_solve_batch_equals_looped_solve(self, solver, case):
        """Full solves are batch-invariant too."""
        n, m, batch, cuts, seed = case
        network = make_network(solver, random_conductance(n, m, seed))
        rng = np.random.default_rng(seed)
        v_rows = rng.uniform(size=(batch, n))
        v_cols = rng.uniform(size=(batch, m)) * 0.3
        full = network.solve_batch(v_rows, v_cols)
        assert full.v_top.shape == (batch, n, m)
        fields = ("v_top", "v_bottom", "column_current")
        for b in range(batch):
            one = network.solve(v_rows[b], v_cols[b])
            for field in fields:
                assert_batch_equal(
                    solver, getattr(full, field)[b], getattr(one, field)
                )
        parts = [
            network.solve_batch(rows, cols)
            for rows, cols in zip(_split(v_rows, cuts), _split(v_cols, cuts))
        ]
        for field in fields:
            split = np.concatenate([getattr(p, field) for p in parts])
            assert_batch_equal(solver, split, getattr(full, field))

    def test_program_voltages_batch_equals_looped(self):
        n, m = 14, 6
        network = CrossbarNetwork(random_conductance(n, m), 2.5)
        cells = np.array(
            [(0, 0), (n - 1, m - 1), (n // 2, m // 2), (0, m - 1)]
        )
        batch = network.program_voltages_batch(cells, 2.9)
        for idx, (row, col) in enumerate(cells):
            one = network.program_voltages(int(row), int(col), 2.9)
            np.testing.assert_allclose(
                batch.device_voltage[idx], one.device_voltage,
                rtol=1e-12, atol=1e-15,
            )

    def test_program_voltages_batch_validates_cells(self):
        network = CrossbarNetwork(random_conductance(4, 4), 2.5)
        with pytest.raises(IndexError, match="outside"):
            network.program_voltages_batch([(0, 0), (4, 0)], 2.9)
        with pytest.raises(ValueError, match="pairs"):
            network.program_voltages_batch(np.zeros((2, 3), dtype=int),
                                           2.9)
