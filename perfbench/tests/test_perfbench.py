"""Tests of the benchmark harness itself: tracing, metric names, exits.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import session  # noqa: E402
from tracing import SPAN_NAMES, TARGETS, Tracer  # noqa: E402

from repro.pipeline import (  # noqa: E402
    PipelineConfig,
    PipelineService,
    offline_engine,
    program_pipeline,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# A small nodal pipeline: every serving layer plus the nodal solver.
CONFIG = PipelineConfig(
    kind="mlp", image_size=7, n_train=60, hidden=8, epochs=10,
    sigma=0.2, r_wire=2.5, tile_rows=25, seed=3, n_probes=4,
    ir_mode="nodal",
)


@pytest.fixture(scope="module")
def artifact():
    return program_pipeline(CONFIG, dataset=CONFIG.dataset())


def _bindings() -> dict[tuple[int, str], object]:
    """Every attribute a target can patch, keyed by (owner id, name)."""
    found = {}
    for target in TARGETS:
        owner = importlib.import_module(target.module)
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        found[(id(owner), name)] = owner.__dict__[name]
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "repro" or mod_name.startswith("repro."):
            for name, value in vars(mod).items():
                if callable(value):
                    found[(id(mod), name)] = value
    return found


def _serve(artifact, x: np.ndarray) -> np.ndarray:
    with PipelineService(artifact, ir_mode="nodal") as service:
        return np.stack([service.submit(row).result(timeout=60.0)
                         for row in x])


def test_originals_restored_after_tracing(artifact):
    before = _bindings()
    with Tracer() as tracer:
        _serve(artifact, CONFIG.dataset().x_test[:2])
        assert tracer._saved, "nothing was patched"
        patched = _bindings()
    after = _bindings()
    assert any(patched[k] is not v for k, v in before.items() if k in patched)
    assert all(after[k] is v for k, v in before.items())


def test_traced_outputs_equal_untraced(artifact):
    x = CONFIG.dataset().x_test[:6]
    offline = offline_engine(artifact, "nodal").forward(x)
    served = _serve(artifact, x)
    with Tracer() as tracer:
        offline_traced = offline_engine(artifact, "nodal").forward(x)
        served_traced = _serve(artifact, x)
    assert np.array_equal(offline_traced, offline)
    assert np.array_equal(served_traced, served)
    summary = tracer.summary()
    for span in ("xbar.read", "xbar.nodal_read", "serve.engine_forward",
                 "fleet.router_submit", "pipeline.submit"):
        assert summary[span]["calls"] > 0, span
    assert summary["xbar.splu"]["calls"] > 0
    # Self time never exceeds the span's own time.
    for entry in summary.values():
        assert entry["self_s"] <= entry["busy_s"] + 1e-9


def test_nested_spans_get_self_time():
    tracer = Tracer(targets=())
    spans = tracer.spans
    spans += [(1, 0, "xbar.read", 7, 0.0, 1.0),
              (2, 1, "xbar.nodal_read", 7, 0.2, 0.8),
              (3, 2, "xbar.nodal_read", 7, 0.3, 0.5)]
    summary = tracer.summary()
    assert summary["xbar.read"]["self_s"] == pytest.approx(0.4)
    # Recursion is not double counted in busy time.
    assert summary["xbar.nodal_read"]["busy_s"] == pytest.approx(0.6)
    assert summary["xbar.nodal_read"]["self_s"] == pytest.approx(0.6)


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == dict(run.END_TO_END)
    assert layer == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(session.WORKLOADS)
    for name in [*e2e, *layer, *SPAN_NAMES]:
        assert NAME.fullmatch(name), name


def _session_record(spans: dict, wall: float) -> dict:
    return {"spans": spans, "passes": [{"wall_s": wall}],
            "batch_size_mean": 0.0, "queue_wait_p50_ms": 0.0,
            "queue_wait_p99_ms": 0.0, "bit_mismatches": 0}


def test_every_per_layer_metric_emitted_even_when_idle():
    idle = Tracer(targets=()).summary()
    assert set(idle) == set(SPAN_NAMES)
    metrics = run.per_layer([_session_record(None, 1.0)],
                            [_session_record(idle, 1.5)])
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.5)
    assert all(v == 0 for k, v in metrics.items()
               if k != "trace.overhead_frac")


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reproduce",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_serve_run_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "serve_mlp_ideal", "--seed", "2", "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = run.PER_LAYER_UNITS if trace else dict(run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        assert result["metrics"]["serve.engine_forward_calls"]["value"] > 0
        assert result["metrics"]["core.train_cld_calls"]["value"] == 0
