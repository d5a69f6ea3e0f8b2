"""Shared pipeline fixtures: small programmed stacks, built once."""

from __future__ import annotations

import dataclasses

import pytest

from repro.pipeline import PipelineConfig, program_pipeline

MLP_CONFIG = PipelineConfig(
    kind="mlp", image_size=7, n_train=120, hidden=12, epochs=40,
    sigma=0.2, tile_rows=20, seed=3, n_probes=8,
)
#: The MLP stack on wires with resistance, so nodal reads differ from
#: ideal ones.
MLP_WIRE_CONFIG = dataclasses.replace(MLP_CONFIG, r_wire=2.5)
BSB_CONFIG = PipelineConfig(
    kind="bsb", image_size=7, n_train=120, n_prototypes=4,
    sigma=0.2, tile_rows=25, seed=5, n_probes=8,
)


@pytest.fixture(scope="session")
def mlp_config() -> PipelineConfig:
    return MLP_CONFIG


@pytest.fixture(scope="session")
def bsb_config() -> PipelineConfig:
    return BSB_CONFIG


@pytest.fixture(scope="session")
def mlp_artifact():
    """A small two-layer MLP pipeline, programmed once per session."""
    return program_pipeline(MLP_CONFIG)


@pytest.fixture(scope="session")
def mlp_wire_artifact():
    """The MLP pipeline programmed with r_wire = 2.5 ohm."""
    return program_pipeline(MLP_WIRE_CONFIG)


@pytest.fixture(scope="session")
def bsb_artifact():
    """A small BSB recall pipeline, programmed once per session."""
    return program_pipeline(BSB_CONFIG)
