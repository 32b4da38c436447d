"""High-throughput compilation service over the per-edge basis-gate pipeline.

The batch APIs compile one workload and exit; this package keeps the
expensive state -- per-(device, strategy) ``Target``/``CostModel`` snapshots
and a live worker pool -- resident between requests:

* :class:`~repro.service.service.CompilationService` -- asyncio front end
  that coalesces concurrent requests into micro-batches and dispatches them
  through the same :class:`~repro.compiler.pipeline.dispatch.BatchDispatcher`
  core as ``transpile_batch`` and the fleet sweep;
* two :class:`~repro.store.ContentStore` instances (memory LRU over an
  optional shared disk directory): compiled programs
  (:data:`~repro.service.programcache.PROGRAM_CODEC`), so warm repeats skip
  compilation entirely, over per-device targets
  (:data:`~repro.fleet.cache.TARGET_CODEC`);
* :class:`~repro.service.net.ServiceServer` / ``ServiceClient`` -- a
  stdlib-only JSON-lines TCP protocol;
* :mod:`~repro.service.loadgen` -- deterministic load generation shared by
  the CLI and ``benchmarks/bench_service.py``.

Quickstart::

    import asyncio
    from repro.service import CompilationService, ServiceConfig

    async def demo():
        async with CompilationService(ServiceConfig(cache_dir=".svc")) as svc:
            response = await svc.compile(
                {"circuit": "ghz_4", "topology": "grid:3x3",
                 "strategies": ["baseline", "criterion2"]}
            )
            print(response.results["criterion2"]["fidelity"])
            print(svc.metrics_snapshot()["cache"])

    asyncio.run(demo())

or, from the shell: ``python -m repro.service serve`` /
``python -m repro.service load``.  See docs/service.md for the architecture,
batching/caching semantics and the metrics schema.
"""

from repro.service.loadgen import LoadSpec, run_phase_inprocess, run_phase_wire
from repro.service.metrics import ServiceMetrics, percentiles
from repro.service.net import OPS, ServiceClient, ServiceServer
from repro.service.programcache import (
    PROGRAM_CODEC,
    PROGRAM_SOURCES,
    circuit_content_hash,
    program_cache_key,
)
from repro.service.requests import (
    CalibrationUpdate,
    CompileRequest,
    CompileResponse,
    RequestError,
    summarize_compiled,
)
from repro.service.service import CompilationService, ServiceConfig

__all__ = [
    "LoadSpec",
    "run_phase_inprocess",
    "run_phase_wire",
    "ServiceMetrics",
    "percentiles",
    "OPS",
    "ServiceClient",
    "ServiceServer",
    "PROGRAM_CODEC",
    "PROGRAM_SOURCES",
    "circuit_content_hash",
    "program_cache_key",
    "CalibrationUpdate",
    "CompileRequest",
    "CompileResponse",
    "RequestError",
    "summarize_compiled",
    "CompilationService",
    "ServiceConfig",
]
