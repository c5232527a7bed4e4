"""In-memory span recorder wrapped around the public functions of each
``repro`` layer, from outside the program.

:meth:`Tracer.install` replaces each traced function at the name its callers
actually look up (``repro.serving.service.fingerprint_problem``, not
``repro.serving.fingerprint.fingerprint_problem`` alone), and each
traced method on its class, with a wrapper that records
``(name, start_ns, end_ns, span_id, parent_id, request_id)`` while the
tracer is enabled. Spans stay in memory until the run writes them out.
Nothing is installed on untraced runs, so their timings carry no
wrapper cost at all.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time

#: (module, attribute, span name): module-level functions, patched at
#: every module whose callers look the name up.
FUNCTIONS = (
    ("repro.serving.service", "fingerprint_problem", "serving.fingerprint"),
    ("repro.serving.sharded", "fingerprint_problem", "serving.fingerprint"),
    ("repro.serving.arch_cache", "fingerprint_problem",
     "serving.fingerprint"),
    # repro.verify.batch imports it from here inside the function.
    ("repro.serving.fingerprint", "fingerprint_problem",
     "serving.fingerprint"),
    ("repro.serving.service", "build_artifact", "serving.arch_cache.build"),
    ("repro.serving.sharded", "build_artifact", "serving.arch_cache.build"),
    ("repro.serving.arch_cache", "customize_problem",
     "customization.customize"),
    ("repro.verify", "ensure_artifact_verified", "verify.artifact"),
    ("repro.verify", "ensure_batch_verified", "verify.batch"),
    ("repro.verify.codegen", "ensure_codegen_verified", "verify.codegen"),
    ("repro.hw.accelerator", "ruiz_equilibrate", "qp.scaling.ruiz"),
    ("repro.hw.pdqp", "ruiz_equilibrate", "qp.scaling.ruiz"),
    ("repro.batch.runner", "ruiz_equilibrate_batch", "qp.scaling.ruiz"),
    ("repro.hw.cjit", "compile_module", "hw.cjit.compile_module"),
    ("repro.serving.service", "solution_ok", "faults.detect.kkt_check"),
    ("repro.serving.session", "solution_ok", "faults.detect.kkt_check"),
    ("repro.serving.sharded", "solution_ok", "faults.detect.kkt_check"),
)

#: (module, class, method, span name): patched on the class itself, so
#: every lookup site sees the wrapper.
METHODS = (
    ("repro.hw.accelerator", "RSQPAccelerator", "__init__",
     "hw.accelerator.bind"),
    ("repro.hw.pdqp", "PDQPAccelerator", "__init__", "hw.accelerator.bind"),
    ("repro.hw.accelerator", "RSQPAccelerator", "run", "hw.accelerator.run"),
    ("repro.hw.pdqp", "PDQPAccelerator", "run", "hw.accelerator.run"),
    ("repro.hw.compiled", "CompiledExecutor", "__init__",
     "hw.compiled.executor"),
    ("repro.hw.compiled", "CompiledExecutor", "run", "hw.compiled.run"),
    ("repro.batch.runner", "BatchAccelerator", "__init__",
     "batch.construct"),
    ("repro.batch.runner", "BatchAccelerator", "run", "batch.run"),
    ("repro.serving.session", "SolverSession", "update",
     "serving.session.update"),
    ("repro.serving.session", "SolverSession", "resolve",
     "serving.session.resolve"),
)


class Tracer:
    """Collects spans from every thread of this process.

    One client drives the benchmark, so a single current request id
    (set by the client before each request) tags spans recorded on the
    client thread and on the service's own threads alike. Parents are
    tracked per thread. A forked child stops recording: its spans
    could never reach this process.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.enabled = False
        self.request_id = -1
        #: Return values some spans keep (``batch.run`` results).
        self.returns: dict[str, list] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple] = []
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self.enabled = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, keep_return: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((name, start, end, span_id, parent,
                                     tracer.request_id))
            if keep_return:
                tracer.returns.setdefault(name, []).append(
                    (tracer.request_id, value))
            return value

        return traced

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def install(self) -> None:
        for module_name, attr, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        for module_name, cls_name, method, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self.wrap(name, original,
                                           keep_return=(name == "batch.run")))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        tracer = self._tracer
        if tracer.enabled:
            stack = tracer._stack()
            self._id = next(tracer._ids)
            self._parent = stack[-1] if stack else -1
            stack.append(self._id)
            self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info):
        tracer = self._tracer
        if tracer.enabled:
            end = time.perf_counter_ns()
            tracer._stack().pop()
            tracer.spans.append((self._name, self._start, end, self._id,
                                 self._parent, tracer.request_id))
        return False


def summarize(spans) -> dict:
    """Per span name: ``{"count", "total_ns", "self_ns"}``.

    Self time is a span's duration minus the durations of its direct
    children. Children run on the parent's own thread stack, inside
    the parent's interval and one after another, so their durations
    never overlap and the sum is the covered part of the interval.
    """
    child_ns: dict[int, int] = {}
    for _, start, end, _, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    out: dict[str, dict] = {}
    for name, start, end, span_id, _, _ in spans:
        row = out.setdefault(name, {"count": 0, "total_ns": 0,
                                    "self_ns": 0})
        duration = end - start
        row["count"] += 1
        row["total_ns"] += duration
        row["self_ns"] += duration - child_ns.get(span_id, 0)
    return out
