"""Per-layer tracing by attribute patching, installed from outside ``src/``.

:class:`Tracer` wraps the public entry points of each layer (see
:data:`TARGETS`) with a timing wrapper, records one span per call in
memory, and restores every original attribute on :meth:`Tracer.close`.
Nothing in the package under test knows it is being traced, so a
traced run executes the same code as an untraced one plus the wrapper.

A span is ``(id, parent_id, name, thread, start, end)``.  The parent is
the innermost traced call still open on the *same thread*, which gives
each span a self time (its duration minus its children's).  Spans that
cross threads (a request submitted on the client thread and served on a
scheduler thread) are not linked.

Busy times are sums over every thread: two scheduler threads each busy
for one second report two seconds.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections.abc import Callable
from pathlib import Path


@dataclasses.dataclass(frozen=True)
class Target:
    """One traced entry point.

    Attributes:
        span: Span (and metric prefix) name, ``<layer>.<operation>``.
        module: Module that defines the attribute.
        attr: Attribute path in that module, ``func`` or ``Class.method``.
        everywhere: For a plain function, also rebind every other
            ``repro`` module attribute bound to the same object (the
            names ``from x import f`` created).  ``False`` patches only
            the lookup in ``module``.
        work: Optional ``result -> int`` giving the work a call did
            (trials run, solver iterations), summed into the span's
            ``work`` total.
    """

    span: str
    module: str
    attr: str
    everywhere: bool = True
    work: Callable[[object], int] | None = None


def _trials(result) -> int:
    return len(result)


def _cg_iterations(result) -> int:
    return int(result[1])


TARGETS: tuple[Target, ...] = (
    Target("data.make_dataset", "repro.data.datasets", "make_dataset"),
    Target("nn.train_gdt", "repro.nn.gdt", "train_gdt"),
    Target("nn.train_mlp", "repro.nn.mlp", "train_mlp"),
    Target("core.tune_gamma", "repro.core.self_tuning", "tune_gamma"),
    Target("core.train_cld", "repro.core.cld", "train_cld"),
    Target("core.run_vortex", "repro.core.vortex", "run_vortex"),
    Target("runtime.map_trials", "repro.runtime.executor", "map_trials",
           work=_trials),
    Target("runtime.map_trials", "repro.runtime.executor",
           "map_trials_batched", work=_trials),
    Target("xbar.update", "repro.xbar.crossbar", "Crossbar.update"),
    Target("xbar.program_factors", "repro.xbar.ir_drop", "program_factors"),
    Target("xbar.read", "repro.xbar.crossbar", "Crossbar.read"),
    Target("xbar.nodal_read", "repro.xbar.nodal",
           "CrossbarNetwork.read_batch"),
    Target("xbar.splu", "repro.xbar.nodal", "splu", everywhere=False),
    Target("xbar.schur_factor", "repro.xbar.solvers",
           "SchurFactor.__init__"),
    Target("xbar.cg_solve", "repro.xbar.solvers", "cg_nodal_solve",
           work=_cg_iterations),
    Target("circuits.sense", "repro.circuits.sensing", "CurrentSense.sense"),
    Target("serve.engine_forward", "repro.serve.engine",
           "InferenceEngine.forward"),
    Target("serve.drift_check", "repro.serve.health", "DriftMonitor.check"),
    Target("fleet.router_submit", "repro.fleet.router", "FleetRouter.submit"),
    Target("pipeline.submit", "repro.pipeline.service",
           "PipelineService.submit"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(t.span for t in TARGETS))


class Tracer:
    """Patch :data:`TARGETS`, record spans, restore on :meth:`close`.

    Use as a context manager.  Modules a target lives in are imported
    on entry; a ``repro`` module imported *after* entry keeps any
    ``from x import f`` binding it makes to the unwrapped function, so
    import the workload's modules first.
    """

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.spans: list[tuple[int, int, str, int, float, float]] = []
        self.work: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._work_lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------
    def __enter__(self) -> "Tracer":
        # Import every target module before patching any, so a module
        # first imported here binds the wrappers, not the originals.
        for target in self.targets:
            importlib.import_module(target.module)
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _install(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        owner: object = module
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[name]
        wrapper = self._wrap(target, original)
        self._patch(owner, name, wrapper)
        if path or not target.everywhere:
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is module or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        span, work = target.span, target.work
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, span,
                              threading.get_ident(), start, end))
            if work is not None:
                self._add_work(span, work(result))
            return result

        return traced

    def _add_work(self, span: str, amount: int) -> None:
        with self._work_lock:
            self.work[span] = self.work.get(span, 0) + amount

    # -- results -------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s``, ``self_s`` and ``work``.

        ``busy_s`` counts only the outermost of nested same-name spans
        so recursion is not double counted; ``self_s`` subtracts the
        time of direct children on the same thread.
        """
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = {}
        for _, parent, _, _, start, end in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        out = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                   "work": self.work.get(name, 0)}
            for name in SPAN_NAMES
        }
        for span_id, parent, name, _, start, end in self.spans:
            entry = out.setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0}
            )
            duration = end - start
            entry["calls"] += 1
            entry["self_s"] += duration - child_time.get(span_id, 0.0)
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[2] != name:
                ancestor = by_id.get(ancestor[1])
            if ancestor is None:
                entry["busy_s"] += duration
        return out

    def write_chrome_trace(self, path: Path, pid: int) -> None:
        """Write every span as Chrome trace-event JSON (Perfetto reads it)."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        events = [
            {
                "name": name, "ph": "X", "pid": pid, "tid": tid,
                "ts": round((start - t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, parent, name, tid, start, end in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
            encoding="utf-8",
        )
