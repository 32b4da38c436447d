"""Cluster-wide metrics: front-end counters + per-shard aggregation.

:class:`ClusterMetrics` is the front end's own view of the traffic it
routes -- admission decisions (sheds), failovers, restarts, and
client-observed latency split into *queue* (fair-queue wait at the front
end), *shard* (round trip to the owning shard) and *total*.  Shard-reported
timings (each compile response carries the shard's queue/compile split) are
folded into the same document so one snapshot answers both "where does
latency come from?" and "is one shard hot?".

:meth:`ClusterMetrics.snapshot` embeds each shard's full
:class:`~repro.service.metrics.ServiceMetrics` document (fetched over the
wire by the front end) plus a cross-shard ``aggregate`` block: summed
request/cell/cache counters and cluster throughput.  All percentile blocks
use :func:`~repro.service.metrics.percentiles` (p50/p95/p99/mean/max).
Schema documented in docs/cluster.md.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import fields

from repro.service.metrics import RESERVOIR_SIZE, percentiles
from repro.store import StoreStats

#: The counters summed across shards for both store blocks.
STORE_COUNTERS = tuple(field.name for field in fields(StoreStats))


class ClusterMetrics:
    """Mutable counters for one :class:`~repro.cluster.frontend.ClusterFrontend`."""

    def __init__(self, reservoir_size: int = RESERVOIR_SIZE):
        self.started_at = time.monotonic()
        self.requests_total = 0
        self.requests_ok = 0
        self.requests_failed = 0
        self.sheds = 0
        self.failovers = 0
        self.lane_errors = 0
        self.calibrations = 0
        self.quiesce_parked = 0
        self.canary_routed = 0
        self.routed: dict[str, int] = {}
        self.restarts: dict[str, int] = {}
        self.queue_ms: deque[float] = deque(maxlen=reservoir_size)
        self.shard_ms: deque[float] = deque(maxlen=reservoir_size)
        self.compile_ms: deque[float] = deque(maxlen=reservoir_size)
        self.shard_queue_ms: deque[float] = deque(maxlen=reservoir_size)
        self.total_ms: deque[float] = deque(maxlen=reservoir_size)

    # -- recording ------------------------------------------------------------

    def record_routed(self, shard: str) -> None:
        """One request dispatched toward ``shard``."""
        self.routed[shard] = self.routed.get(shard, 0) + 1

    def record_response(
        self,
        queue_ms: float,
        shard_ms: float,
        total_ms: float,
        shard_timing: dict | None = None,
    ) -> None:
        """One request completed; ``shard_timing`` is the shard response's
        ``timing_ms`` block (its queue/compile split)."""
        self.requests_total += 1
        self.requests_ok += 1
        self.queue_ms.append(queue_ms)
        self.shard_ms.append(shard_ms)
        self.total_ms.append(total_ms)
        if shard_timing:
            self.compile_ms.append(float(shard_timing.get("compile", 0.0)))
            self.shard_queue_ms.append(float(shard_timing.get("queue", 0.0)))

    def record_shed(self) -> None:
        """One request refused by admission control."""
        self.requests_total += 1
        self.sheds += 1

    def record_failure(self) -> None:
        """One request rejected or errored (not a shed)."""
        self.requests_total += 1
        self.requests_failed += 1

    def record_failover(self) -> None:
        """One accepted request re-dispatched after a shard connection died."""
        self.failovers += 1

    def record_lane_error(self) -> None:
        """One unexpected (non-connection) dispatch error absorbed by a lane
        worker; the request got an error envelope and the worker lived on."""
        self.lane_errors += 1

    def record_restart(self, shard: str) -> None:
        """One crashed shard restarted by the supervisor."""
        self.restarts[shard] = self.restarts.get(shard, 0) + 1

    def record_calibration(self) -> None:
        """One calibrate op fanned out and acknowledged."""
        self.calibrations += 1

    def record_parked(self, count: int) -> None:
        """Requests briefly parked by a calibrate quiesce gate."""
        self.quiesce_parked += count

    def record_canary(self) -> None:
        """One request diverted to the active canary configuration."""
        self.canary_routed += 1

    # -- reading --------------------------------------------------------------

    @property
    def uptime_s(self) -> float:
        """Seconds since the front end was created."""
        return time.monotonic() - self.started_at

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of uptime."""
        uptime = self.uptime_s
        return self.requests_ok / uptime if uptime > 0 else 0.0

    @staticmethod
    def aggregate_shards(shard_snapshots: dict[str, dict | None]) -> dict:
        """Cross-shard sums over per-shard ServiceMetrics documents."""
        totals = {
            "requests_ok": 0,
            "requests_failed": 0,
            "calibrations": 0,
            "batches_total": 0,
            "cells_total": 0,
            "cache": dict.fromkeys(STORE_COUNTERS, 0),
            "programs": dict.fromkeys(STORE_COUNTERS, 0),
        }
        for snapshot in shard_snapshots.values():
            if not snapshot:
                continue
            requests = snapshot.get("requests", {})
            totals["requests_ok"] += int(requests.get("ok", 0))
            totals["requests_failed"] += int(requests.get("failed", 0))
            totals["calibrations"] += int(requests.get("calibrations", 0))
            batches = snapshot.get("batches", {})
            totals["batches_total"] += int(batches.get("total", 0))
            totals["cells_total"] += int(batches.get("cells_total", 0))
            for block in ("cache", "programs"):
                counters = snapshot.get(block, {})
                for counter in STORE_COUNTERS:
                    totals[block][counter] += int(counters.get(counter, 0))
        return totals

    def snapshot(
        self,
        shards: dict[str, dict | None] | None = None,
        ring: dict | None = None,
    ) -> dict:
        """The machine-readable cluster metrics document.

        ``shards`` maps shard name -> that shard's ServiceMetrics snapshot
        (None for a shard that is down); ``ring`` optionally embeds routing
        state (live/down shards, vnodes).
        """
        shards = shards or {}
        return {
            "uptime_s": self.uptime_s,
            "requests": {
                "total": self.requests_total,
                "ok": self.requests_ok,
                "failed": self.requests_failed,
                "shed": self.sheds,
                "failovers": self.failovers,
                "lane_errors": self.lane_errors,
                "calibrations": self.calibrations,
                "quiesce_parked": self.quiesce_parked,
                "canary": self.canary_routed,
                "throughput_rps": self.throughput_rps,
            },
            "latency_ms": {
                "queue": percentiles(self.queue_ms),
                "shard": percentiles(self.shard_ms),
                "shard_queue": percentiles(self.shard_queue_ms),
                "compile": percentiles(self.compile_ms),
                "total": percentiles(self.total_ms),
            },
            "shards": {
                name: {
                    "routed": self.routed.get(name, 0),
                    "restarts": self.restarts.get(name, 0),
                    "service": snapshot,
                }
                for name, snapshot in shards.items()
            },
            "aggregate": self.aggregate_shards(shards),
            "ring": ring or {},
        }
