"""Tests for the full nodal crossbar solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.xbar.nodal import CrossbarNetwork


def random_conductance(n, m, seed=0):
    rng = np.random.default_rng(seed)
    return 10 ** rng.uniform(-6, -4, (n, m))


class TestConstruction:
    # NaN compares False against every bound, so "<= 0" checks alone
    # would let it through to a singular factorisation.
    def test_rejects_nonpositive_conductance(self):
        network = CrossbarNetwork(np.full((2, 2), 1e-5), 1.0)
        for bad in (0.0, -1e-5, np.nan, np.inf):
            g = np.full((2, 2), 1e-5)
            g[1, 0] = bad
            with pytest.raises(ValueError, match="positive"):
                CrossbarNetwork(g, 1.0)
            with pytest.raises(ValueError, match="positive"):
                network.update_conductance(g)

    def test_rejects_zero_wire_resistance(self):
        for bad in (0.0, -2.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="r_wire"):
                CrossbarNetwork(np.ones((2, 2)) * 1e-5, bad)

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError, match="2-D"):
            CrossbarNetwork(np.ones(4) * 1e-5, 1.0)


class TestReadMode:
    def test_tiny_wire_resistance_approaches_ideal(self):
        g = random_conductance(12, 5)
        net = CrossbarNetwork(g, 1e-6)
        x = np.random.default_rng(1).random(12)
        currents = net.read(x, 1.0)
        assert np.allclose(currents, x @ g, rtol=1e-4)

    def test_realistic_wire_resistance_attenuates(self):
        g = np.full((64, 8), 1e-4)
        net = CrossbarNetwork(g, 2.5)
        x = np.ones(64)
        currents = net.read(x, 1.0)
        ideal = x @ g
        assert np.all(currents < ideal)
        assert np.all(currents > 0)

    def test_zero_input_gives_zero_output(self):
        g = random_conductance(8, 4)
        net = CrossbarNetwork(g, 2.5)
        assert np.allclose(net.read(np.zeros(8)), 0.0, atol=1e-18)

    def test_output_scales_with_v_read(self):
        g = random_conductance(8, 4)
        net = CrossbarNetwork(g, 2.5)
        x = np.random.default_rng(2).random(8)
        i1 = net.read(x, 0.5)
        i2 = net.read(x, 1.0)
        assert np.allclose(i2, 2 * i1)

    def test_input_shape_validated(self):
        net = CrossbarNetwork(random_conductance(8, 4), 1.0)
        with pytest.raises(ValueError, match="shape"):
            net.read(np.ones(5))

    def test_superposition(self):
        # The network is linear: reads superpose.
        g = random_conductance(10, 3)
        net = CrossbarNetwork(g, 2.5)
        rng = np.random.default_rng(3)
        x1, x2 = rng.random(10), rng.random(10)
        assert np.allclose(
            net.read(x1) + net.read(x2), net.read(x1 + x2), rtol=1e-9
        )


class TestCurrentConservation:
    def test_column_currents_match_device_sums(self):
        g = random_conductance(16, 6)
        net = CrossbarNetwork(g, 2.5)
        sol = net.solve(np.random.default_rng(4).random(16), 0.0)
        # KCL: total device current into each column flows out the
        # bottom termination.
        assert np.allclose(
            sol.device_current.sum(axis=0), sol.column_current, rtol=1e-9
        )


class TestProgramMode:
    def test_selected_cell_sees_largest_voltage(self):
        g = np.full((32, 8), 1e-4)
        net = CrossbarNetwork(g, 2.5)
        sol = net.program_voltages(5, 3, 2.9)
        dv = sol.device_voltage
        assert np.argmax(dv) == 5 * 8 + 3

    def test_half_selected_cells_near_half_voltage(self):
        g = np.full((16, 4), 1e-6)  # HRS background: light loading
        net = CrossbarNetwork(g, 1.0)
        sol = net.program_voltages(2, 1, 2.0)
        dv = sol.device_voltage
        # Unselected row, unselected column: ~0 bias.
        assert abs(dv[5, 2]) < 0.1
        # Selected row, unselected column: ~V/2.
        assert dv[2, 2] == pytest.approx(1.0, abs=0.1)
        # Unselected row, selected column: ~V/2.
        assert dv[5, 1] == pytest.approx(1.0, abs=0.1)
        # Selected cell: ~V.
        assert dv[2, 1] == pytest.approx(2.0, abs=0.1)

    def test_delivered_voltage_degrades_with_loading(self):
        light = CrossbarNetwork(np.full((64, 8), 1e-6), 2.5)
        heavy = CrossbarNetwork(np.full((64, 8), 1e-4), 2.5)
        v_light = light.program_voltages(0, 4, 2.9).device_voltage[0, 4]
        v_heavy = heavy.program_voltages(0, 4, 2.9).device_voltage[0, 4]
        assert v_heavy < v_light

    def test_out_of_range_cell_rejected(self):
        net = CrossbarNetwork(random_conductance(4, 4), 1.0)
        with pytest.raises(IndexError):
            net.program_voltages(4, 0, 2.9)


class TestUpdateConductance:
    def test_update_changes_solution(self):
        g = random_conductance(8, 4)
        net = CrossbarNetwork(g, 2.5)
        x = np.random.default_rng(5).random(8)
        i1 = net.read(x)
        net.update_conductance(g * 2)
        i2 = net.read(x)
        assert not np.allclose(i1, i2)

    def test_update_shape_validated(self):
        net = CrossbarNetwork(random_conductance(8, 4), 1.0)
        with pytest.raises(ValueError, match="shape"):
            net.update_conductance(np.ones((4, 8)) * 1e-5)

    def test_ideal_read_helper(self):
        g = random_conductance(8, 4)
        net = CrossbarNetwork(g, 2.5)
        x = np.random.default_rng(6).random(8)
        assert np.allclose(net.ideal_read(x, 2.0), 2.0 * (x @ g))
