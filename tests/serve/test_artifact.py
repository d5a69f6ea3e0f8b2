"""ProgrammedArray snapshots: persistence and exact reconstruction."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.runtime.cache import ArtifactCache
from repro.serve.artifact import (
    ProgramConfig,
    ProgrammedArray,
    artifact_key,
    program_array,
)
from repro.serve.engine import InferenceEngine


@pytest.fixture(scope="module")
def vortex_artifact() -> ProgrammedArray:
    return program_array(
        ProgramConfig(
            scheme="vortex", image_size=7, n_train=150, sigma=0.3,
            seed=7, redundancy=6,
        )
    )


class TestArtifactKey:
    def test_key_is_deterministic(self):
        cfg = ProgramConfig(seed=3)
        assert artifact_key(cfg) == artifact_key(ProgramConfig(seed=3))

    def test_any_field_change_changes_key(self):
        base = ProgramConfig()
        for change in (
            {"scheme": "old"}, {"sigma": 0.4}, {"seed": 1},
            {"redundancy": 9}, {"ir_mode": "nodal"},
        ):
            assert artifact_key(
                dataclasses.replace(base, **change)
            ) != artifact_key(base)


class TestProgramArray:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            program_array(ProgramConfig(scheme="magic"))

    def test_identical_configs_produce_identical_artifacts(self):
        cfg = ProgramConfig(
            scheme="old", image_size=7, n_train=100, seed=2,
        )
        a = program_array(cfg)
        b = program_array(cfg)
        assert np.array_equal(a.g_pos, b.g_pos)
        assert np.array_equal(a.baseline, b.baseline)

    def test_vortex_artifact_is_complete(self, vortex_artifact):
        art = vortex_artifact
        assert art.scheme == "vortex"
        assert art.n_physical == art.g_pos.shape[0]
        assert art.n_logical == art.weights.shape[0]
        assert art.n_physical > art.n_logical  # redundancy rows
        assert art.probes.shape[1] == art.n_logical
        assert art.baseline.shape == (art.probes.shape[0], 10)
        assert "gamma" in art.metadata
        assert art.metadata["crossbar"]["rows"] == art.n_physical


class TestRoundTrip:
    def test_save_load_round_trip(self, vortex_artifact, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = artifact_key(ProgramConfig())
        vortex_artifact.save(cache, key)
        loaded = ProgrammedArray.load(cache, key)
        for field in (
            "weights", "assignment", "g_pos", "g_neg", "theta_pos",
            "theta_neg", "defects_pos", "defects_neg", "x_mean",
            "probes", "baseline",
        ):
            assert np.array_equal(
                getattr(loaded, field), getattr(vortex_artifact, field)
            ), field
        assert loaded.scheme == vortex_artifact.scheme
        assert loaded.metadata == vortex_artifact.metadata

    def test_load_missing_key_raises(self, tmp_path):
        with pytest.raises(KeyError, match="no programmed-array"):
            ProgrammedArray.load(ArtifactCache(tmp_path), "0" * 64)

    def test_restored_pair_reproduces_baseline_exactly(
        self, vortex_artifact, tmp_path
    ):
        # The acceptance contract of the artifact layer: a serving
        # process reconstructs the programmed hardware bit-for-bit, so
        # replaying the probes reproduces the programming-time
        # baseline with zero discrepancy.
        cache = ArtifactCache(tmp_path)
        key = vortex_artifact.save(cache, artifact_key(ProgramConfig()))
        loaded = ProgrammedArray.load(cache, key)
        engine = InferenceEngine.from_artifact(loaded)
        assert np.array_equal(
            engine.forward(loaded.probes), loaded.baseline
        )

    def test_restored_pair_preserves_theta_and_defects(
        self, vortex_artifact
    ):
        pair = vortex_artifact.build_pair()
        assert np.array_equal(
            pair.positive.array.theta, vortex_artifact.theta_pos
        )
        assert np.array_equal(
            pair.negative.array.defects, vortex_artifact.defects_neg
        )
        assert np.array_equal(
            pair.positive.array.conductance, vortex_artifact.g_pos
        )

    def test_legacy_nodal_solver_key_is_dropped_on_load(
        self, vortex_artifact
    ):
        # Snapshots written while the nodal solve was selectable record
        # "nodal_solver": null in their crossbar metadata.
        crossbar = vortex_artifact.metadata["crossbar"]
        legacy = dataclasses.replace(
            vortex_artifact,
            metadata={
                **vortex_artifact.metadata,
                "crossbar": {**crossbar, "nodal_solver": None},
            },
        )
        pair = legacy.build_pair()
        assert dataclasses.asdict(pair.positive.config) == crossbar
        x = vortex_artifact.probes
        assert np.array_equal(
            InferenceEngine(pair, mapping=legacy.mapping).forward(x),
            InferenceEngine.from_artifact(vortex_artifact).forward(x),
        )

    def test_other_unknown_crossbar_keys_still_fail(self, vortex_artifact):
        crossbar = vortex_artifact.metadata["crossbar"]
        bogus = dataclasses.replace(
            vortex_artifact,
            metadata={
                **vortex_artifact.metadata,
                "crossbar": {**crossbar, "wire_material": "cu"},
            },
        )
        with pytest.raises(TypeError, match="wire_material"):
            bogus.build_pair()
