"""In-memory spans around calls into the package's layers.

A span is (name, start, end, parent index, op id). ``traced_layers`` replaces
each layer function in every ``coflowsched`` module namespace that holds it,
so calls made inside the package (``run_experiment`` calling ``simulate``,
``require_valid`` calling ``validate``) are traced as well. Calls run on one
thread, so child spans nest strictly inside their parent and a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from coflowsched import experiments, model, oracle, ordering, scheduling, workload

# Span name -> (module, attribute) of the public function it times.
LAYERS = {
    "model.validate": (model, "validate"),
    "model.loads_instance": (model, "loads_instance"),
    "workload.gen_mix": (workload, "gen_mix"),
    "workload.parse_trace": (workload, "parse_trace"),
    "ordering.order_flow_level": (ordering, "order_flow_level"),
    "ordering.order_coflow_level": (ordering, "order_coflow_level"),
    "scheduling.assign_fdls": (scheduling, "assign_fdls"),
    "scheduling.assign_cdls": (scheduling, "assign_cdls"),
    "scheduling.simulate": (scheduling, "simulate"),
    "scheduling.audit_schedule": (scheduling, "audit_schedule"),
    "experiments.run_experiment": (experiments, "run_experiment"),
    "experiments.run_pipeline": (experiments, "run_pipeline"),
    "oracle.enumerate_best": (oracle, "enumerate_best"),
}


class Tracer:
    """Records spans in memory; ``op`` tags spans with the current operation."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self._stack: list[int] = []
        self._ops = 0
        self.op = -1

    def wrap(self, name: str, fn):
        # The body of span() inlined: the oracle workload makes ~120k calls
        # per pass, and a generator-based context manager would double the
        # tracing overhead.
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return traced

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.op)

    @contextmanager
    def operation(self):
        """Span one benchmark operation and tag the spans inside it with its id."""
        self._ops += 1
        self.op = self._ops
        try:
            with self.span("bench.op"):
                yield
        finally:
            self.op = -1

    def self_seconds(self) -> list[float]:
        """Self time of every span, in span order."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fp:
            fp.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fp.write(f"{name},{start!r},{end!r},{parent},{op}\n")


class NullTracer:
    """Stand-in used for untraced passes: spans cost one call and record nothing."""

    def span(self, name: str):
        return nullcontext()

    def operation(self):
        return nullcontext()


@contextmanager
def swap(module, attr: str, value):
    """Temporarily replace ``module.attr``."""
    original = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield
    finally:
        setattr(module, attr, original)


@contextmanager
def traced_layers(tracer: Tracer):
    """Route every reference to a LAYERS function through a traced wrapper."""
    namespaces = [
        mod for name, mod in list(sys.modules.items())
        if name == "coflowsched" or name.startswith("coflowsched.")
    ]
    restore = []
    for name, (module, attr) in LAYERS.items():
        fn = getattr(module, attr)
        wrapped = tracer.wrap(name, fn)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    restore.append((ns, key, fn))
                    setattr(ns, key, wrapped)
    try:
        yield
    finally:
        for ns, key, fn in restore:
            setattr(ns, key, fn)
