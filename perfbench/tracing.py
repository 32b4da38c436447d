"""Outside-in span tracing of the library layers.

The benchmark wraps each layer's public entry points from its own files, so
the program under test is not edited.  A span is ``(name, start, end,
parent, run_id, thread)``; spans are kept in memory and written out when the
run ends.  A layer's *self time* is its span's duration minus the time its
child spans cover.  Only spans on the thread that drives the workload carry
time; spans on helper threads (parallel edge resolution) are counted but
their wall time is already inside the driving thread's parent span.

Entry points that a later version of the program no longer has are skipped
and listed in the run record, so the benchmark keeps running across
refactors (the exact-oracle work is expected to delete the numerical
search).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: (span name, module, attribute path) for every wrapped entry point.  Names
#: share a prefix per layer: the layer's self time is the sum over its names.
ENTRY_POINTS = (
    ("oracle.coverage", "repro.synthesis.depth", "CoverageSetOracle.minimum_layers"),
    ("oracle.minimum_layers", "repro.synthesis.depth", "minimum_layers"),
    ("oracle.reach", "repro.synthesis.depth", "TwoLayerOracle.can_reach_in_2"),
    ("oracle.reach", "repro.synthesis.depth", "TwoLayerOracle.can_reach_in_3"),
    ("oracle.search", "repro.synthesis.depth", "TwoLayerOracle._best_distance"),
    ("synthesis.decompose", "repro.synthesis.numerical", "decompose_into_layers"),
    ("synthesis.synthesize", "repro.synthesis.numerical", "synthesize_gate"),
    ("target.build", "repro.compiler.pipeline.target", "build_target"),
    ("target.new", "repro.compiler.pipeline.target", "Target.from_device"),
    ("target.complete", "repro.compiler.pipeline.target", "Target.complete"),
    ("target.select", "repro.device.device", "Device.basis_gate"),
    ("target.select", "repro.device.device", "Device.resolve_basis_gates"),
    ("pass.layout", "repro.compiler.pipeline.passes", "LayoutPass.run"),
    ("pass.routing", "repro.compiler.pipeline.passes", "RoutingPass.run"),
    ("pass.optimize", "repro.compiler.pipeline.passes", "OptimizationPass.run"),
    ("pass.translate", "repro.compiler.pipeline.passes", "TranslationPass.run"),
    ("pass.schedule", "repro.compiler.pipeline.passes", "SchedulePass.run"),
    ("pass.metrics", "repro.compiler.pipeline.passes", "MetricsPass.run"),
)

#: (counter name, module, attribute, result field): calls whose result
#: reports the work done.  The oracle's Nelder-Mead cost evaluations repeat
#: exactly from run to run where its time does not.
COUNTERS = (("oracle.cost_evals", "repro.synthesis.depth", "minimize", "nfev"),)

LAYERS = (
    "oracle",
    "synthesis",
    "target",
    "pass.layout",
    "pass.routing",
    "pass.optimize",
    "pass.translate",
    "pass.schedule",
    "pass.metrics",
)


def layer_of(name: str) -> str | None:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    return None


class Tracer:
    """In-memory span recorder; ``enabled=False`` makes every hook a no-op."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[tuple | None] = []
        self.amounts: list[tuple[str, float, int]] = []  # (name, time, amount)
        self.missing: list[str] = []
        self._local = threading.local()
        self._main = threading.get_ident()

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(None)
        parent = stack[-1] if stack else None
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (
                name, start, end, parent, self.run_id, threading.get_ident()
            )

    def _wrapper(self, name: str, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        return traced

    def _counter(self, name: str, original, field: str):
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            tracer.amounts.append(
                (name, time.perf_counter(), int(getattr(result, field, 0)))
            )
            return result

        return counted

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point that exists in the loaded program."""
        for name, module_name, path in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}:{path}")
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module_name}:{path}")
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrapper(name, raw.__func__)))
            elif inspect.isclass(owner):
                setattr(owner, attr, self._wrapper(name, raw))
            else:
                # A module function: rebind it in every loaded module of the
                # program that imported it by name, not just where it lives.
                traced = self._wrapper(name, raw)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro") and (
                        vars(loaded).get(attr) is raw
                    ):
                        setattr(loaded, attr, traced)
        for name, module_name, attr, field in COUNTERS:
            module = sys.modules.get(module_name)
            if module is None or not callable(vars(module).get(attr)):
                self.missing.append(f"{module_name}:{attr}")
                continue
            setattr(module, attr, self._counter(name, vars(module)[attr], field))

    # -- reading --------------------------------------------------------------

    def summarize(self, start: float, end: float) -> dict:
        """Per-layer self time (ms), per-name call counts, counted work and
        attribution over the spans that lie inside ``[start, end]``.

        ``op_ms`` is the total of the ``op`` root spans the workload opens
        around each timed operation; ``attributed_ms`` is the part of it
        that named layer spans cover.
        """
        window = [
            (index, span)
            for index, span in enumerate(self.spans)
            if span is not None and start <= span[1] and span[2] <= end
        ]
        child_ms: dict[int, float] = defaultdict(float)
        for _, span in window:
            if span[3] is not None and span[5] == self._main:
                child_ms[span[3]] += (span[2] - span[1]) * 1000.0
        self_ms: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        op_ms = attributed_ms = 0.0
        for index, span in window:
            name = span[0]
            calls[name] += 1
            if span[5] != self._main:
                continue
            duration = (span[2] - span[1]) * 1000.0
            if name == "op":
                op_ms += duration
                attributed_ms += child_ms[index]
                continue
            layer = layer_of(name)
            if layer is not None:
                self_ms[layer] += duration - child_ms[index]
        amounts: Counter = Counter()
        for name, moment, amount in self.amounts:
            if start <= moment <= end:
                amounts[name] += amount
        return {
            "self_ms": dict(self_ms),
            "calls": dict(calls),
            "amounts": dict(amounts),
            "op_ms": op_ms,
            "attributed_ms": attributed_ms,
            "spans": len(window),
        }

    def span_cost_s(self, calls: int = 20000) -> float:
        """Measured cost of one span: wrapped minus bare call of a no-op."""

        def noop():
            return None

        traced = self._wrapper("calibration", noop)
        saved, self.spans = self.spans, []
        try:
            started = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - started
            started = time.perf_counter()
            for _ in range(calls):
                traced()
            wrapped = time.perf_counter() - started
        finally:
            self.spans = saved
        return max(wrapped - bare, 0.0) / calls

    def write(self, path) -> None:
        """Write every closed span as one JSON line each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")
