"""Benchmark entry point: run one workload (or all) and print its metrics.

Usage::

    python3 perfbench/run.py --workload serve_mlp_nodal --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run starts fresh session processes (``session.py``) one after another
until ``--seconds`` have passed and at least ``MIN_SESSIONS`` have run;
every end-to-end metric is the median over its sessions.  ``--trace 1``
alternates untraced and traced sessions and prints the per-layer
metrics instead.  Stdout carries a provenance record, a metric table
and, as the last line, the JSON result.  Exits non-zero when a
correctness check fails or a session crashes.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SESSION = BENCH_DIR / "session.py"
WORKLOADS = ("reproduce", "serve_mlp_nodal", "serve_mlp_ideal")
MIN_SESSIONS = 3
# A run must end within 180 s; no session starts past this point.
RUN_DEADLINE_S = 150.0
SESSION_TIMEOUT_S = 170.0

# BLAS pinned to one thread: a 2-CPU host otherwise timeslices BLAS
# threads against the serving threads and the figures stop repeating.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
    ("qps", "1/s"), ("p50_ms", "ms"), ("p99_ms", "ms"),
)

# (metric, unit, span, field) read from traced sessions' span summaries.
SPAN_METRICS = (
    ("data.make_dataset_s", "s", "data.make_dataset", "busy_s"),
    ("nn.train_gdt_calls", "count", "nn.train_gdt", "calls"),
    ("nn.train_gdt_s", "s", "nn.train_gdt", "busy_s"),
    ("nn.train_mlp_s", "s", "nn.train_mlp", "busy_s"),
    ("core.tune_gamma_s", "s", "core.tune_gamma", "busy_s"),
    ("core.train_cld_calls", "count", "core.train_cld", "calls"),
    ("core.train_cld_s", "s", "core.train_cld", "busy_s"),
    ("core.train_cld_self_s", "s", "core.train_cld", "self_s"),
    ("core.run_vortex_s", "s", "core.run_vortex", "busy_s"),
    ("core.run_vortex_self_s", "s", "core.run_vortex", "self_s"),
    ("runtime.trials", "count", "runtime.map_trials", "work"),
    ("runtime.map_trials_s", "s", "runtime.map_trials", "busy_s"),
    ("xbar.update_calls", "count", "xbar.update", "calls"),
    ("xbar.update_s", "s", "xbar.update", "busy_s"),
    ("xbar.program_factors_s", "s", "xbar.program_factors", "busy_s"),
    ("circuits.sense_calls", "count", "circuits.sense", "calls"),
    ("circuits.sense_s", "s", "circuits.sense", "busy_s"),
    ("xbar.read_calls", "count", "xbar.read", "calls"),
    ("xbar.read_s", "s", "xbar.read", "busy_s"),
    ("xbar.read_self_s", "s", "xbar.read", "self_s"),
    ("xbar.nodal_read_calls", "count", "xbar.nodal_read", "calls"),
    ("xbar.nodal_read_s", "s", "xbar.nodal_read", "busy_s"),
    ("xbar.nodal_read_self_s", "s", "xbar.nodal_read", "self_s"),
    ("xbar.cg_iterations", "count", "xbar.cg_solve", "work"),
    ("serve.engine_forward_calls", "count", "serve.engine_forward", "calls"),
    ("serve.engine_forward_s", "s", "serve.engine_forward", "busy_s"),
    ("serve.engine_forward_self_s", "s", "serve.engine_forward", "self_s"),
    ("serve.drift_checks", "count", "serve.drift_check", "calls"),
    ("serve.drift_check_s", "s", "serve.drift_check", "busy_s"),
    ("fleet.router_submit_s", "s", "fleet.router_submit", "busy_s"),
    ("pipeline.submit_s", "s", "pipeline.submit", "busy_s"),
    ("pipeline.submit_self_s", "s", "pipeline.submit", "self_s"),
)
# (metric, unit) read from the run log of untraced serve sessions.
RUNLOG_METRICS = (
    ("serve.batch_size_mean", "count"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.bit_mismatches", "count"),
)


class SessionError(RuntimeError):
    """A session process crashed or printed no record."""


def source_identity() -> dict:
    """Git sha when the tree is a git checkout, and a digest of ``src/``."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def run_session(workload: str, seed: int, traced: bool,
                timeout: float) -> dict:
    """One fresh process: set ``workload`` up, run its passes, check them."""
    env = {**os.environ, **PINNED_ENV}
    proc = subprocess.run(
        [sys.executable, str(SESSION), "--workload", workload,
         "--seed", str(seed), "--trace", str(int(traced))],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SessionError(
            f"{workload} session exited {proc.returncode}"
        )
    return json.loads(lines[-1])


def end_to_end(sessions: list[dict]) -> dict[str, float]:
    """Medians of the end-to-end figures over a run's sessions.

    ``setup_s`` and ``peak_rss_mb`` are per session; the rest are per
    timed pass.  For ``reproduce`` one query is one report section
    (Table 1 counts as one), so ``qps`` is sections per second and the
    latencies are section times.
    """
    passes = [p for s in sessions for p in s["passes"]]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in sessions),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(
            s["peak_rss_mb"] for s in sessions
        ),
        "qps": statistics.median(p["answered"] / p["wall_s"] for p in passes),
        "p50_ms": statistics.median(p["p50_ms"] for p in passes),
        "p99_ms": statistics.median(p["p99_ms"] for p in passes),
    }


def _pass_wall(sessions: list[dict]) -> float:
    return statistics.median(p["wall_s"] for s in sessions for p in s["passes"])


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Per-layer medians; ``trace.overhead_frac`` compares ``wall_s``."""
    out = {}
    for metric, _, span, field in SPAN_METRICS:
        out[metric] = statistics.median(
            s["spans"][span][field] for s in traced
        )
    out["xbar.nodal_factorisations"] = statistics.median(
        s["spans"]["xbar.splu"]["calls"]
        + s["spans"]["xbar.schur_factor"]["calls"] for s in traced
    )
    for metric, _ in RUNLOG_METRICS:
        key = metric.split(".", 1)[1]
        out[metric] = statistics.median(s.get(key, 0) for s in untraced)
    out["trace.overhead_frac"] = _pass_wall(traced) / _pass_wall(untraced) - 1.0
    return out


PER_LAYER_UNITS = {
    **{m: u for m, u, _, _ in SPAN_METRICS},
    "xbar.nodal_factorisations": "count",
    **dict(RUNLOG_METRICS),
    "trace.overhead_frac": "ratio",
}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Sessions until ``seconds`` have passed; medians and checks."""
    start = time.perf_counter()
    sessions: list[dict] = []
    while True:
        elapsed = time.perf_counter() - start
        untraced = [s for s in sessions if not s["traced"]]
        enough = len(sessions) >= MIN_SESSIONS and (
            not trace or len(untraced) not in (0, len(sessions))
        )
        if (elapsed >= seconds and enough) or (
            sessions and elapsed > RUN_DEADLINE_S
        ):
            break
        traced = trace and len(sessions) % 2 == 1
        sessions.append(run_session(
            workload, seed, traced, SESSION_TIMEOUT_S - elapsed
        ))
    untraced = [s for s in sessions if not s["traced"]]
    traced = [s for s in sessions if s["traced"]]

    errors = [e for s in sessions for e in s["errors"]]
    digests = {s["digest"] for s in sessions if "digest" in s}
    if len(digests) > 1:
        errors.append(f"report differs between sessions: {sorted(digests)}")
    if trace:
        metrics = per_layer(untraced, traced)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(untraced)
        units = dict(END_TO_END)
    return {
        "workload": workload,
        "correct": not errors,
        "errors": errors,
        "attempted": sum(s["attempted"] for s in sessions),
        "failed": sum(s["failed"] for s in sessions),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
        "sessions": len(sessions),
        "environment": sessions[0]["environment"],
        "report_sha256": sorted(digests) or None,
    }


def provenance(result: dict, seed: int, seconds: float, trace: bool,
               source: dict) -> dict:
    from session import workload_params

    env = dict(result["environment"])
    return {
        "workload": result["workload"],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": workload_params(result["workload"]),
        "sessions": result["sessions"],
        "report_sha256": result["report_sha256"],
        "fresh_process_per_session": True,
        "artifact_cache": env.pop("artifact_cache"),
        **env,
        **source,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    source = source_identity()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
        except (SessionError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        results.append(result)
        print(json.dumps({"record": provenance(
            result, args.seed, args.seconds, bool(args.trace), source
        )}))
        for metric, entry in result["metrics"].items():
            print(f"{name:<16s} {metric:<30s} {entry['value']:>14.6g} "
                  f"{entry['unit']}")
        for error in result["errors"]:
            print(f"CHECK FAILED {name}: {error}", file=sys.stderr)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{metric}": entry
            for r in results for metric, entry in r["metrics"].items()
        }
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
