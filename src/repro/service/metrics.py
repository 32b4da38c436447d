"""Service metrics: request counters, latency percentiles, batch shapes.

:class:`ServiceMetrics` is deliberately dependency-free and cheap to update
from the hot path: counters plus bounded reservoirs of recent latency
samples.  :meth:`ServiceMetrics.snapshot` renders the machine-readable JSON
form that ``python -m repro.service`` prints and ``BENCH_service.json``
embeds (schema documented in docs/service.md).
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

#: How many recent samples each latency reservoir keeps.
RESERVOIR_SIZE = 4096


def percentiles(samples) -> dict:
    """p50/p95/p99/mean/max of a sample list (zeros when empty)."""
    if not samples:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    data = np.asarray(samples, dtype=float)
    return {
        "p50": float(np.percentile(data, 50)),
        "p95": float(np.percentile(data, 95)),
        "p99": float(np.percentile(data, 99)),
        "mean": float(data.mean()),
        "max": float(data.max()),
    }


class ServiceMetrics:
    """Mutable counters for one :class:`CompilationService` instance."""

    def __init__(self, reservoir_size: int = RESERVOIR_SIZE):
        self.started_at = time.monotonic()
        self.requests_total = 0
        self.requests_ok = 0
        self.requests_failed = 0
        self.batches_total = 0
        self.cells_total = 0  # (circuit x strategy) compilations performed
        self.calibrations_total = 0  # calibration-update ops applied
        self.responses_cached = 0  # responses served from the program cache
        self.batch_sizes: deque[int] = deque(maxlen=reservoir_size)
        self.queue_ms: deque[float] = deque(maxlen=reservoir_size)
        self.compile_ms: deque[float] = deque(maxlen=reservoir_size)
        self.total_ms: deque[float] = deque(maxlen=reservoir_size)
        self.lookup_ms: deque[float] = deque(maxlen=reservoir_size)

    # -- recording ------------------------------------------------------------

    def record_batch(self, size: int, cells: int) -> None:
        """One micro-batch dispatched with ``size`` requests / ``cells`` compiles."""
        self.batches_total += 1
        self.cells_total += cells
        self.batch_sizes.append(size)

    def record_response(
        self,
        queue_ms: float,
        compile_ms: float,
        total_ms: float,
        lookup_ms: float | None = None,
    ) -> None:
        """One request completed successfully.

        ``lookup_ms`` marks a response served from the program cache: the
        time went into a cache probe, not a dispatch, so it also lands in
        the dedicated lookup reservoir (the warm-latency split the service
        benchmark reports).
        """
        self.requests_total += 1
        self.requests_ok += 1
        self.queue_ms.append(queue_ms)
        self.compile_ms.append(compile_ms)
        self.total_ms.append(total_ms)
        if lookup_ms is not None:
            self.responses_cached += 1
            self.lookup_ms.append(lookup_ms)

    def record_failure(self) -> None:
        """One request rejected or errored."""
        self.requests_total += 1
        self.requests_failed += 1

    def record_calibration(self) -> None:
        """One calibration-update op applied to a device."""
        self.calibrations_total += 1

    # -- reading --------------------------------------------------------------

    @property
    def uptime_s(self) -> float:
        """Seconds since the metrics object (the service) was created."""
        return time.monotonic() - self.started_at

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of uptime."""
        uptime = self.uptime_s
        return self.requests_ok / uptime if uptime > 0 else 0.0

    def snapshot(
        self, cache: dict | None = None, programs: dict | None = None
    ) -> dict:
        """The machine-readable metrics document.

        ``cache`` and ``programs`` optionally embed the target and program
        stores' :meth:`~repro.store.ContentStore.as_dict` snapshots (one
        schema for both).
        """
        batch_sizes = list(self.batch_sizes)
        return {
            "uptime_s": self.uptime_s,
            "requests": {
                "total": self.requests_total,
                "ok": self.requests_ok,
                "failed": self.requests_failed,
                "cached": self.responses_cached,
                "calibrations": self.calibrations_total,
                "throughput_rps": self.throughput_rps,
            },
            "latency_ms": {
                "queue": percentiles(self.queue_ms),
                "compile": percentiles(self.compile_ms),
                "total": percentiles(self.total_ms),
                "cache_lookup": percentiles(self.lookup_ms),
            },
            "batches": {
                "total": self.batches_total,
                "cells_total": self.cells_total,
                "mean_size": float(np.mean(batch_sizes)) if batch_sizes else 0.0,
                "max_size": max(batch_sizes, default=0),
            },
            "cache": cache or {},
            "programs": programs or {},
        }
