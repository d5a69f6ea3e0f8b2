"""One benchmark session: a fresh process that sets a workload up, runs
its timed passes, checks the outputs and prints one JSON record as its
last line.

``run.py`` starts sessions one after another and takes medians over
them; run this file directly only to debug a single pass::

    python3 perfbench/session.py --workload serve_mlp_nodal --seed 1

A fresh process per session is what makes ``setup_s`` (imports
included) and ``peak_rss_mb`` measurable more than once per run, and
keeps in-process memos (the dataset ``lru_cache``, solver structure
caches) from carrying over between sessions.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # before any package import: setup_s counts imports

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import queue  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# -- workload definitions -------------------------------------------------
REPORT_SECTIONS = ("fig2", "fig3", "fig4", "fig7", "fig8")
REPORT_IMAGE_SIZE = 14
TABLE1_IMAGE_SIZES = (7,)
# Report sections whose data columns after the first are rates in [0, 1].
RATE_SECTIONS = ("Fig. 4", "Fig. 7", "Fig. 8")

# The served 196 -> 24 -> 10 MLP: 49-row tiles give layer 0 four shards
# and layer 1 one.
PIPELINE = dict(
    kind="mlp", image_size=14, n_train=300, hidden=24, epochs=100,
    sigma=0.3, r_wire=2.5, tile_rows=49, n_probes=8,
)
# ``passes``: timed passes per session, each over its own request order.
# The run's figures are medians over passes, so a few seconds of host
# contention spoil one pass rather than a whole session.  Passes are
# cheap next to a session's set-up and reference check; three keep a
# run within ~30-45 s.
SERVE = {
    "serve_mlp_nodal": {"ir_mode": "nodal", "in_flight": 8,
                        "requests": 1200, "passes": 3},
    "serve_mlp_ideal": {"ir_mode": "ideal", "in_flight": 32,
                        "requests": 5000, "passes": 3},
}
WORKLOADS = ("reproduce",) + tuple(SERVE)
SCORE_RTOL = 1e-12


def workload_params(workload: str) -> dict:
    """The parameters a result record states for ``workload``."""
    if workload == "reproduce":
        return {
            "scale": "ExperimentScale.quick()",
            "report_sections": list(REPORT_SECTIONS),
            "report_image_size": REPORT_IMAGE_SIZE,
            "table1_image_sizes": list(TABLE1_IMAGE_SIZES),
        }
    return {"pipeline": dict(PIPELINE),
            "geometry": "196x24 (4 shards of 49 rows) then 24x10 (1 shard)",
            **SERVE[workload],
            "load": "closed loop, one client thread"}


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    with contextlib.suppress(Exception):
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info.get('version', '')}".strip()
    from repro.runtime.cache import get_cache

    return {
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "artifact_cache": get_cache() is not None,
    }


@contextlib.contextmanager
def _tracing(enabled: bool, workload: str, seed: int):
    """Yield a live tracer (or ``None``); write its trace on the way out."""
    if not enabled:
        yield None
        return
    from tracing import Tracer

    with Tracer() as tracer:
        yield tracer
    tracer.write_chrome_trace(
        OUT_DIR / f"trace_{workload}_seed{seed}_pid{os.getpid()}.json",
        pid=os.getpid(),
    )


def _latency_figures(latencies_s: list[float]) -> dict:
    import numpy as np

    ms = np.asarray(latencies_s) * 1e3
    return {"p50_ms": float(np.percentile(ms, 50)),
            "p99_ms": float(np.percentile(ms, 99))}


# -- reproduce --------------------------------------------------------------
def _rate_errors(report: str, table) -> list[str]:
    """Structural checks for a seed without a recorded digest."""
    errors = []
    headers = re.findall(r"^=== (.+) ===$", report, flags=re.MULTILINE)
    for fig in ("Fig. 2", "Fig. 3", "Fig. 4", "Fig. 7", "Fig. 8"):
        if not any(h.startswith(fig) for h in headers):
            errors.append(f"report section {fig} missing")
    for block in re.split(r"^=== ", report, flags=re.MULTILINE)[1:]:
        if not block.startswith(RATE_SECTIONS):
            continue
        for line in block.splitlines()[1:]:
            cells = line.split()
            if not cells or not re.fullmatch(r"[0-9.]+", cells[0]):
                continue
            for cell in cells[1:]:
                value = float(cell)
                if not 0.0 <= value <= 1.0:
                    errors.append(f"rate {value} out of [0, 1]: {line!r}")
    for kind in (table.test_rate, table.training_rate):
        for scheme, rates in kind.items():
            if not all(0.0 <= float(r) <= 1.0 for r in rates):
                errors.append(f"table1 {scheme} rate out of [0, 1]")
    return errors


def run_reproduce(seed: int, trace: bool) -> dict:
    from repro.experiments.common import ExperimentScale
    from repro.experiments.report import generate_report
    from repro.experiments.table1_sizes import run_table1
    from repro.runtime.telemetry import RunLog

    setup_s = time.perf_counter() - T_START
    scale = dataclasses.replace(ExperimentScale.quick(), seed=seed)
    log = RunLog()
    with _tracing(trace, "reproduce", seed) as tracer:
        t0 = time.perf_counter()
        report = generate_report(
            scale, REPORT_IMAGE_SIZE, REPORT_SECTIONS, run_log=log
        )
        t1 = time.perf_counter()
        table = run_table1(scale, image_sizes=TABLE1_IMAGE_SIZES)
        t2 = time.perf_counter()
    peak = _peak_rss_mb()
    section_s = [r.seconds for r in log.experiments] + [t2 - t1]

    digest = hashlib.sha256(
        (report + "\n" + table.table()).encode()
    ).hexdigest()
    recorded = json.loads(
        (BENCH_DIR / "digests.json").read_text(encoding="utf-8")
    ).get(str(seed))
    if recorded is not None:
        errors = [] if digest == recorded else [
            f"report digest {digest} != recorded {recorded} for seed {seed}"
        ]
    else:
        errors = _rate_errors(report, table)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "passes": [{"wall_s": t2 - t0, "answered": len(section_s),
                    **_latency_figures(section_s)}],
        "attempted": len(section_s),
        "failed": 0,
        "digest": digest,
        "errors": errors,
        "spans": tracer.summary() if tracer is not None else None,
    }


# -- served MLP pipelines ---------------------------------------------------
def _closed_loop(service, rows, in_flight: int):
    """Keep ``in_flight`` requests outstanding until every row is sent.

    Returns ``(outcomes, latencies_s, refused)``: per row the answer
    array, the exception it failed with, or ``None`` when refused.
    Latency runs from just before ``submit`` to the future resolving
    (stamped in its done callback, on the thread that resolved it).
    Only the outcome is kept, not the future: retained futures would
    grow the heap the collector scans during the pass.
    """
    from repro.fleet import NoLiveReplicaError
    from repro.serve import ServeOverloadedError

    n = len(rows)
    sent = [0.0] * n
    latency = [float("nan")] * n
    outcomes = [None] * n
    done: queue.SimpleQueue = queue.SimpleQueue()
    refused = 0

    def on_done(index, future):
        latency[index] = time.perf_counter() - sent[index]
        error = future.exception()
        outcomes[index] = future.result() if error is None else error
        done.put(index)

    def send(index) -> bool:
        nonlocal refused
        sent[index] = time.perf_counter()
        try:
            future = service.submit(rows[index])
        except (ServeOverloadedError, NoLiveReplicaError):
            # Refused at submit: counted as missing, not retried.
            refused += 1
            return False
        future.add_done_callback(lambda f, i=index: on_done(i, f))
        return True

    next_index = outstanding = 0
    while next_index < n or outstanding:
        while outstanding < in_flight and next_index < n:
            outstanding += send(next_index)
            next_index += 1
        if outstanding:
            done.get(timeout=120.0)
            outstanding -= 1
    return outcomes, latency, refused


def run_serve(workload: str, seed: int, trace: bool) -> dict:
    import numpy as np

    from repro.pipeline import (
        PipelineConfig,
        PipelineService,
        offline_engine,
        program_pipeline,
    )
    from repro.runtime.telemetry import RunLog

    params = SERVE[workload]
    import_s = time.perf_counter() - T_START
    passes = []
    with _tracing(trace, workload, seed) as tracer:
        t0 = time.perf_counter()
        config = PipelineConfig(
            **PIPELINE, seed=seed, ir_mode=params["ir_mode"]
        )
        dataset = config.dataset()
        artifact = program_pipeline(config, dataset=dataset)
        order = np.random.default_rng(seed).integers(
            0, dataset.x_test.shape[0],
            size=(params["passes"], params["requests"]),
        )
        log = RunLog()
        with PipelineService(
            artifact, ir_mode=params["ir_mode"], log=log
        ) as service:
            service.predict(dataset.x_test[order[0, 0]], timeout=120.0)
            setup_s = import_s + time.perf_counter() - t0
            log.requests.clear()  # keep the warm-up query out of the stats
            for pass_order in order:
                # Every pass starts on the same collector footing: the
                # heap built so far (imports, dataset, training, earlier
                # passes' answers) is collected and frozen, so a full
                # collection inside the pass scans only what the pass
                # itself allocated.  See README.md, "Tail latency".
                gc.collect()
                gc.freeze()
                t1 = time.perf_counter()
                outcomes, latency, refused = _closed_loop(
                    service, dataset.x_test[pass_order], params["in_flight"]
                )
                passes.append({"wall_s": time.perf_counter() - t1,
                               "outcomes": outcomes, "latency": latency,
                               "refused": refused})
    peak = _peak_rss_mb()

    # Check every answer against the offline reference deployment.
    reference = offline_engine(artifact, params["ir_mode"]).forward(
        dataset.x_test
    )
    errors = []
    failed = mismatches = 0
    for pass_order, record in zip(order, passes):
        answered = []
        failed += record.pop("refused")
        for i, outcome in enumerate(record.pop("outcomes")):
            if outcome is None:
                continue
            if isinstance(outcome, BaseException):
                failed += 1
                continue
            answered.append(record["latency"][i])
            got, want = outcome, reference[pass_order[i]]
            if np.array_equal(got, want):
                continue
            mismatches += 1
            if np.argmax(got) != np.argmax(want):
                errors.append(f"request {i}: label {np.argmax(got)} != "
                              f"offline {np.argmax(want)}")
            scale = np.max(np.abs(want))
            if np.max(np.abs(got - want)) > SCORE_RTOL * scale:
                errors.append(f"request {i}: score off by more than "
                              f"{SCORE_RTOL} relative")
        del record["latency"]
        record.update(answered=len(answered), **_latency_figures(answered))
    if failed:
        errors.append(f"{failed} of {order.size} requests failed or refused")
    records = [r for r in log.requests if r.ok]
    queue_ms = [r.queue_s * 1e3 for r in records] or [0.0]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "passes": passes,
        "attempted": int(order.size),
        "failed": failed,
        "bit_mismatches": mismatches,
        "batch_size_mean": (
            float(np.mean([r.batch_size for r in records]))
            if records else 0.0
        ),
        "queue_wait_p50_ms": float(np.percentile(queue_ms, 50)),
        "queue_wait_p99_ms": float(np.percentile(queue_ms, 99)),
        "errors": errors[:20],
        "spans": tracer.summary() if tracer is not None else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(BENCH_DIR))
    if args.workload == "reproduce":
        record = run_reproduce(args.seed, bool(args.trace))
    else:
        record = run_serve(args.workload, args.seed, bool(args.trace))
    record["environment"] = _environment()
    record["traced"] = bool(args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
