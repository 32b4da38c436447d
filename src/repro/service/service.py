"""The async compilation service: coalesce, batch, dispatch, measure.

:class:`CompilationService` is the long-lived front end over the shared
dispatch core.  Requests (:class:`~repro.service.requests.CompileRequest`)
arrive one at a time via :meth:`CompilationService.compile`; the service

1. **serves warm programs** -- a content-addressed program store
   (:class:`~repro.store.ContentStore` with
   :data:`~repro.service.programcache.PROGRAM_CODEC`) keyed on (circuit
   hash, device fingerprint, strategies, mapping, seed, registry
   generations) returns repeat requests without compiling at all; every
   :class:`~repro.service.requests.CompileResponse` reports which layer
   served it (``program-mem`` / ``program-disk`` / ``compiled``);
2. **coalesces** the rest into micro-batches -- requests that arrive
   within ``batch_window_ms`` of each other (up to ``max_batch``) and
   share a batch key (device, strategies, mapping, seed) compile together
   through one :class:`~repro.compiler.pipeline.dispatch.DispatchContext`;
3. **serves targets hot** -- each batch's per-strategy ``Target`` /
   ``CostModel`` snapshots come from the target store's memory LRU over its
   optional disk layer (:func:`~repro.fleet.cache.get_target`), so repeated
   traffic for the same (device, strategy) never rebuilds a target;
4. **dispatches** to one *persistent* worker pool
   (:class:`~repro.compiler.pipeline.dispatch.BatchDispatcher`) that
   survives across batches -- the same core ``transpile_batch`` and the
   fleet sweep use, so service results are byte-identical to the one-shot
   APIs under the same seeds;
5. **measures** everything: per-request queue/compile/total latency,
   batch shapes, throughput and per-layer cache hits
   (:class:`~repro.service.metrics.ServiceMetrics`).

The service is an asyncio component (``await service.start()`` /
``compile()`` / ``stop()``); ``python -m repro.service`` wraps it in a TCP
JSON-lines server and a load generator.  See docs/service.md.
"""

from __future__ import annotations

import asyncio
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.compiler.pipeline.dispatch import (
    EXECUTORS,
    BatchDispatcher,
    DispatchContext,
)
from repro.compiler.pipeline.registry import REGISTRY
from repro.device.device import Device
from repro.fleet.cache import TARGET_CODEC, get_target
from repro.fleet.spec import TopologySpec
from repro.fleet.devices import device_fingerprint, make_device
from repro.fleet.sweep import build_circuit
from repro.service.metrics import ServiceMetrics
from repro.service.programcache import (
    PROGRAM_CODEC,
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
from repro.store import ContentStore
from repro.synthesis.depth import DEPTH_ORACLE_VERSION


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`CompilationService`.

    Attributes:
        cache_dir: on-disk store directory for targets (programs go under
            ``programs/``); None = memory-only.
        target_capacity: bound of the in-memory hot target LRU.
        device_capacity: bound of the simulated-device LRU.
        executor: worker-pool flavour when ``max_workers > 1``
            (``"thread"`` or ``"process"``).
        max_workers: fan-out width per micro-batch (None/<=1 = in-thread).
        batch_window_ms: how long the batcher waits for co-batchable
            requests after the first one arrives.
        max_batch: micro-batch size cap; a full batch flushes immediately.
        program_cache: whether the compiled-program cache layer is active
            (off = every request compiles, as in earlier revisions).
        program_capacity: bound of the in-memory compiled-program LRU.
    """

    cache_dir: str | None = None
    target_capacity: int = 64
    device_capacity: int = 16
    executor: str = "thread"
    max_workers: int | None = None
    batch_window_ms: float = 2.0
    max_batch: int = 32
    program_cache: bool = True
    program_capacity: int = 512

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of {EXECUTORS}"
            )
        if self.target_capacity < 1 or self.device_capacity < 1:
            raise ValueError("cache capacities must be positive")
        if self.program_capacity < 1:
            raise ValueError("program_capacity must be positive")
        if self.batch_window_ms < 0:
            raise ValueError("batch_window_ms must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")


class _Pending:
    """One enqueued request awaiting its micro-batch."""

    __slots__ = ("request", "future", "enqueued_at", "dispatched_at")

    def __init__(self, request: CompileRequest, future: asyncio.Future):
        self.request = request
        self.future = future
        self.enqueued_at = time.perf_counter()
        self.dispatched_at = self.enqueued_at


#: Queue sentinel that tells the batcher to drain and exit.
_SHUTDOWN = object()


class CompilationService:
    """Async facade over the hot caches and the persistent dispatcher.

    Start/stop it explicitly or use it as an async context manager; requests
    are plain dicts (the JSON wire form) or :class:`CompileRequest` objects.

    Example::

        async with CompilationService(ServiceConfig(cache_dir=".svc")) as svc:
            response = await svc.compile(
                {"circuit": "ghz_4", "strategies": ["criterion2"]})
            print(response.results["criterion2"]["fidelity"],
                  response.target_sources)
            await svc.calibrate(
                {"topology": "grid:3x3", "frequency_shifts": {"0": 0.02}})
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        cache_dir = self.config.cache_dir
        self.hot_targets = ContentStore(
            TARGET_CODEC, self.config.target_capacity, cache_dir
        )
        self.dispatcher = BatchDispatcher(
            executor=self.config.executor, max_workers=self.config.max_workers
        )
        self.metrics = ServiceMetrics()
        self.programs: ContentStore | None = None
        if self.config.program_cache:
            self.programs = ContentStore(
                PROGRAM_CODEC,
                self.config.program_capacity,
                Path(cache_dir) / "programs" if cache_dir else None,
            )
        self._devices: OrderedDict[tuple, tuple[Device, str]] = OrderedDict()
        self._circuits: dict[str, object] = {}
        self._circuit_hashes: dict[str, str] = {}
        self._state_lock = threading.Lock()
        # Serializes whole calibration updates (read -> mutate -> pre-warm ->
        # swap) per service.  _state_lock stays request-path-cheap: it only
        # guards the in-memory maps for the short read/swap sections.
        self._calibration_lock = threading.Lock()
        self._queue: asyncio.Queue | None = None
        self._batcher: asyncio.Task | None = None
        self._groups: set[asyncio.Task] = set()
        self._accepting = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._batcher is not None and not self._batcher.done()

    async def start(self) -> "CompilationService":
        """Spawn the micro-batching loop; idempotent."""
        if self.running:
            return self
        self._queue = asyncio.Queue()
        self._accepting = True
        self._batcher = asyncio.create_task(self._batch_loop())
        return self

    async def stop(self) -> dict:
        """Drain queued and in-flight work, shut the pools down, return
        final metrics.

        Graceful by construction: new :meth:`compile` calls are refused the
        moment stop begins, but every request already accepted (queued or
        batched) still compiles and resolves its caller's future -- zero
        accepted requests are dropped.
        """
        self._accepting = False
        if self._queue is not None and self.running:
            await self._queue.put(_SHUTDOWN)
            await self._batcher
        if self._queue is not None:
            # Safety net for requests that raced past the accepting flag
            # *after* the batcher drained and exited: fail them loudly
            # instead of leaving futures pending forever.
            while not self._queue.empty():
                leftover = self._queue.get_nowait()
                if leftover is not _SHUTDOWN and not leftover.future.done():
                    leftover.future.set_exception(
                        RuntimeError("service stopped before the request ran")
                    )
        if self._groups:
            await asyncio.gather(*self._groups, return_exceptions=True)
        await asyncio.get_running_loop().run_in_executor(None, self.dispatcher.close)
        self._batcher = None
        self._queue = None
        return self.metrics_snapshot()

    async def __aenter__(self) -> "CompilationService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- the public request path ----------------------------------------------

    async def compile(self, request: CompileRequest | Mapping) -> CompileResponse:
        """Compile one request (parsing it first when given a plain dict).

        Raises:
            RequestError: on a malformed request (client-readable message);
                the request is counted in ``requests.failed``.
            RuntimeError: when the service is not running.
        """
        if not self.running or self._queue is None:
            raise RuntimeError("service is not running; call start() first")
        if not self._accepting:
            raise RuntimeError("service is draining; not accepting new requests")
        if not isinstance(request, CompileRequest):
            try:
                request = CompileRequest.from_dict(request)
            except RequestError:
                self.metrics.record_failure()
                raise
        if self.programs is not None:
            served = self._program_fast_path(request)
            if served is not None:
                return served
        pending = _Pending(request, asyncio.get_running_loop().create_future())
        await self._queue.put(pending)
        try:
            return await pending.future
        except Exception:
            self.metrics.record_failure()
            raise

    def metrics_snapshot(self) -> dict:
        """Current machine-readable metrics document."""
        return self.metrics.snapshot(
            cache=self.hot_targets.as_dict(),
            programs=self.programs.as_dict() if self.programs is not None else None,
        )

    async def calibrate(self, update: CalibrationUpdate | Mapping) -> dict:
        """Apply a calibration update to a served device (the wire op).

        Parses plain dicts first (raising readable :class:`RequestError`),
        then applies the mutation off the event loop.  Unlike
        :meth:`compile` this does not require the batcher to be running --
        calibration is valid the moment the service owns its caches.
        Rejected updates count in ``requests.failed`` exactly like rejected
        compile traffic, so malformed calibration streams are visible in
        the metrics document.
        """
        try:
            if not isinstance(update, CalibrationUpdate):
                update = CalibrationUpdate.from_dict(update)
            return await asyncio.get_running_loop().run_in_executor(
                None, self.update_calibration, update
            )
        except RequestError:
            self.metrics.record_failure()
            raise

    def update_calibration(self, update: CalibrationUpdate) -> dict:
        """Rotate a device's calibration state through every service layer.

        1. a **drifted copy** of the served device is built and mutated
           (``Device.update_calibration`` -- validation errors surface as
           :class:`RequestError`); the copy, not the original, is what
           future traffic sees, so in-flight batches holding the old device
           keep a fully consistent pre-drift view (selections *and*
           constants like the coherence time) until they drain;
        2. the device's **old-fingerprint cache entries are evicted** from
           both the target hot cache and the compiled-program cache (they
           could never be matched again -- their keys embed the stale
           fingerprint -- but would squat in the LRUs);
        3. the device LRU re-keys to the new fingerprint, so the next
           compile's dispatch-context key changes -- which **rotates a
           persistent process pool**: workers are re-initialized with fresh
           device/target snapshots instead of silently reusing pre-drift
           state (see ``BatchDispatcher``).

        When the update carries a :class:`~repro.service.requests.PrewarmSpec`
        the expensive rebuilds happen **off the request path**: targets (and
        optionally compiled programs) for the *new* fingerprint are built
        between steps 1 and 2, while traffic keeps being served against the
        old calibration state, and only then does the swap in steps 2-3 make
        the new fingerprint visible -- atomically, under the state lock.
        The first post-update request then hits warm caches instead of
        paying for a target build.

        Returns a summary (old/new fingerprint, evictions, epoch, pre-warm
        counts) that the wire op reports to the client.
        """
        key = update.device_key
        # Whole updates serialize on the calibration lock (neither of two
        # concurrent updates for one device may be lost); the state lock is
        # only held for the short read and swap sections, so the request
        # path never waits behind a target rebuild.
        with self._calibration_lock:
            # Validate the pre-warm working set before mutating anything:
            # a malformed prewarm rejects the whole update up front.
            prewarm_requests = self._prewarm_requests(update)
            with self._state_lock:
                hit = self._devices.get(key)
            if hit is None:
                # First sight of this device: build the base so the update
                # also applies to future traffic for the same key.  Not
                # admitted here -- the drifted copy below is what lands in
                # the LRU; a racing compile admitting the base meanwhile is
                # fine, the swap overwrites it.
                hit = self._build_device(update)
            device, old_fingerprint = hit
            # Drift a copy, not the live object: batches already dispatched
            # keep reading the original (pickling round-trips the
            # calibration inputs and strips the derived caches -- the same
            # path process workers rely on).
            drifted = pickle.loads(pickle.dumps(device))
            try:
                drifted.update_calibration(**update.mutation_kwargs())
            except ValueError as error:
                raise RequestError(str(error)) from error
            if drifted.n_qubits:
                drifted.distance(0, 0)  # warm the BFS matrix like _device_for
            new_fingerprint = device_fingerprint(drifted)
            prewarm_report = None
            if update.prewarm is not None:
                prewarm_report = self._prewarm_caches(
                    update.prewarm, prewarm_requests, drifted, new_fingerprint
                )
            # The swap: from here on every lookup sees the new fingerprint.
            stale = f"{old_fingerprint}-"
            with self._state_lock:
                evicted = self.hot_targets.invalidate_prefix(stale)
                programs_evicted = (
                    self.programs.invalidate_prefix(stale)
                    if self.programs is not None
                    else 0
                )
                self._admit_device_locked(key, (drifted, new_fingerprint))
        self.metrics.record_calibration()
        report = {
            "topology": update.topology,
            "device_seed": update.device_seed,
            "old_fingerprint": old_fingerprint,
            "new_fingerprint": new_fingerprint,
            "hot_entries_evicted": evicted,
            "program_entries_evicted": programs_evicted,
            "calibration_epoch": drifted.calibration_epoch,
        }
        if prewarm_report is not None:
            report["prewarm"] = prewarm_report
        return report

    def _prewarm_requests(self, update: CalibrationUpdate) -> list[CompileRequest]:
        """The compile requests a prewarm spec describes (validated early)."""
        if update.prewarm is None or not update.prewarm.circuits:
            return []
        spec = update.prewarm
        return [
            CompileRequest(
                circuit=circuit,
                topology=update.topology,
                device_seed=update.device_seed,
                strategies=spec.strategies,
                mapping=spec.mapping,
                seed=spec.seed,
                coherence_us=update.coherence_us,
                gate_ns=update.gate_ns,
            )
            for circuit in spec.circuits
        ]

    def _prewarm_caches(
        self,
        spec,
        requests: list[CompileRequest],
        drifted: Device,
        fingerprint: str,
    ) -> dict:
        """Rebuild the working set for a new fingerprint, off the request path.

        ``drifted`` is private to the calibration update until the swap, and
        no request can look up its fingerprint before then, so the targets
        resolve through the store's own locked get-or-build without
        ``_state_lock``.  Over a shared directory, sibling shards given the
        same calibration build each target once between them; the rest read
        it from disk.  Program pre-compiles reuse the dispatcher with the
        same context key shape as the compile path, so the worker pool they
        warm is exactly the one post-swap traffic reuses.
        """
        started = time.perf_counter()
        targets = {
            strategy: get_target(self.hot_targets, drifted, strategy, fingerprint)[0]
            for strategy in spec.strategies
        }
        programs_warmed = 0
        if requests and self.programs is not None:
            generations = tuple(
                REGISTRY.generation(strategy) for strategy in spec.strategies
            )
            # Prewarm always compiles unoptimized (optimize=False), matching
            # the batch-key shape of default traffic so the warmed pool is
            # reusable by the first post-update requests.
            context = DispatchContext(
                drifted,
                targets,
                mapping=spec.mapping,
                seed=spec.seed,
                key=(
                    fingerprint,
                    generations,
                    spec.strategies,
                    spec.mapping,
                    spec.seed,
                    False,
                ),
            )
            circuits = [self._circuit_for(request.circuit) for request in requests]
            batch = self.dispatcher.dispatch(circuits, context)
            for request, compiled in zip(requests, batch):
                program_key, document = self._program_entry(
                    request, fingerprint, generations
                )
                results = {
                    strategy: summarize_compiled(one)
                    for strategy, one in compiled.items()
                }
                self.programs.put(program_key, results, document)
                programs_warmed += 1
        return {
            "targets": len(targets),
            "programs": programs_warmed,
            "ms": (time.perf_counter() - started) * 1000.0,
        }

    # -- micro-batching -------------------------------------------------------

    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        window_s = self.config.batch_window_ms / 1000.0
        while True:
            item = await self._queue.get()
            shutdown = item is _SHUTDOWN
            pending = [] if shutdown else [item]
            if not shutdown:
                deadline = loop.time() + window_s
                while len(pending) < self.config.max_batch:
                    timeout = deadline - loop.time()
                    if timeout <= 0:
                        break
                    try:
                        item = await asyncio.wait_for(self._queue.get(), timeout)
                    except asyncio.TimeoutError:
                        break
                    if item is _SHUTDOWN:
                        shutdown = True
                        break
                    pending.append(item)
            if shutdown:
                # Graceful drain: nothing new is being accepted (stop()
                # flipped the flag before posting the sentinel), so flush
                # every request still sitting in the queue -- waiting out
                # another window would only add latency.
                while True:
                    try:
                        extra = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if extra is not _SHUTDOWN:
                        pending.append(extra)
            groups: dict[tuple, list[_Pending]] = {}
            for entry in pending:
                groups.setdefault(entry.request.batch_key, []).append(entry)
            for key, group in groups.items():
                # A drained backlog can exceed max_batch; keep dispatch
                # units at the configured cap so batch shapes stay bounded.
                for start in range(0, len(group), self.config.max_batch):
                    chunk = group[start : start + self.config.max_batch]
                    task = asyncio.create_task(self._run_group(key, chunk))
                    self._groups.add(task)
                    task.add_done_callback(self._groups.discard)
            if shutdown:
                return

    async def _run_group(self, key: tuple, group: list[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        for entry in group:
            entry.dispatched_at = time.perf_counter()
        try:
            responses = await loop.run_in_executor(
                None, self._execute_batch, key, group
            )
        except Exception as error:  # noqa: BLE001 - forwarded to every waiter
            for entry in group:
                if not entry.future.done():
                    entry.future.set_exception(error)
            return
        for entry, response in zip(group, responses):
            if not entry.future.done():
                entry.future.set_result(response)

    # -- batch execution (worker-thread side) ---------------------------------

    def _build_device(self, request) -> tuple[Device, str]:
        """Build (and warm) the simulated device for a request's identity."""
        device = make_device(
            TopologySpec.parse(request.topology),
            request.device_seed,
            coherence_time_us=request.coherence_us,
            single_qubit_gate_ns=request.gate_ns,
        )
        if device.n_qubits:
            device.distance(0, 0)  # warm the BFS matrix before any fan-out
        return device, device_fingerprint(device)

    def _admit_device_locked(self, key: tuple, entry: tuple[Device, str]) -> None:
        """Install an LRU entry; caller holds ``_state_lock``."""
        self._devices[key] = entry
        self._devices.move_to_end(key)
        while len(self._devices) > self.config.device_capacity:
            self._devices.popitem(last=False)

    def _device_for(self, request) -> tuple[Device, str]:
        """The (device, fingerprint) for a request's device key, LRU-cached.

        Accepts anything carrying the device-identity fields
        (``device_key`` / ``topology`` / ``device_seed`` / ``coherence_us``
        / ``gate_ns``) -- both :class:`CompileRequest` and
        :class:`CalibrationUpdate` qualify.  A build that loses a race with
        another admitter (a concurrent cold miss, or a ``calibrate`` that
        just installed a drifted copy) defers to the existing entry instead
        of clobbering it -- overwriting would silently revert an applied
        calibration.
        """
        key = request.device_key
        with self._state_lock:
            hit = self._devices.get(key)
            if hit is not None:
                self._devices.move_to_end(key)
                return hit
        entry = self._build_device(request)
        with self._state_lock:
            existing = self._devices.get(key)
            if existing is not None:
                self._devices.move_to_end(key)
                return existing
            self._admit_device_locked(key, entry)
        return entry

    def _circuit_for(self, name: str):
        """Built benchmark circuit by fleet name (memoised; circuits are
        immutable through compilation, so sharing one instance is safe)."""
        with self._state_lock:
            circuit = self._circuits.get(name)
        if circuit is None:
            circuit = build_circuit(name)
            with self._state_lock:
                self._circuits.setdefault(name, circuit)
        return circuit

    def _program_entry(
        self, request: CompileRequest, fingerprint: str, generations: tuple[int, ...]
    ) -> tuple[str, dict]:
        """The program-cache key and echo-back document for one request.

        The document is what the disk store persists alongside the results
        and re-validates field-by-field on load; values must JSON
        round-trip exactly (lists, not tuples).
        """
        name = request.circuit
        circuit_hash = self._circuit_hashes.get(name)
        if circuit_hash is None:
            circuit_hash = circuit_content_hash(self._circuit_for(name))
            self._circuit_hashes[name] = circuit_hash
        key = program_cache_key(
            circuit_hash,
            fingerprint,
            request.strategies,
            request.mapping,
            request.seed,
            generations,
            optimize=request.optimize,
        )
        document = {
            "circuit_hash": circuit_hash,
            "fingerprint": fingerprint,
            "strategies": list(request.strategies),
            "mapping": request.mapping,
            "seed": int(request.seed),
            "generations": list(generations),
            "optimize": bool(request.optimize),
            "depth_oracle_version": DEPTH_ORACLE_VERSION,
        }
        return key, document

    def _program_fast_path(
        self, request: CompileRequest
    ) -> CompileResponse | None:
        """Serve a memory-layer program hit without entering the batch queue.

        Runs on the event loop, so it only probes cheap state: the device
        must already sit in the LRU (its *current* fingerprint keys the
        lookup, so a just-calibrated device can never serve a pre-drift
        program) and only the in-memory layer is consulted -- disk probes
        stay on executor threads in :meth:`_execute_batch`.
        """
        started = time.perf_counter()
        with self._state_lock:
            hit = self._devices.get(request.device_key)
            if hit is None:
                return None
            self._devices.move_to_end(request.device_key)
            fingerprint = hit[1]
        generations = tuple(
            REGISTRY.generation(strategy) for strategy in request.strategies
        )
        key, _document = self._program_entry(request, fingerprint, generations)
        results = self.programs.get_memory(key)
        if results is None:
            return None
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.metrics.record_response(
            0.0, elapsed_ms, elapsed_ms, lookup_ms=elapsed_ms
        )
        return CompileResponse(
            request=request,
            results=results,
            target_sources={},
            fingerprint=fingerprint,
            batch_size=1,
            queue_ms=0.0,
            compile_ms=elapsed_ms,
            total_ms=elapsed_ms,
            program_source="program-mem",
        )

    def _execute_batch(
        self, key: tuple, group: list[_Pending]
    ) -> list[CompileResponse]:
        """Compile one coalesced micro-batch (runs on an executor thread)."""
        start = time.perf_counter()
        request = group[0].request
        device, fingerprint = self._device_for(request)
        generations = tuple(
            REGISTRY.generation(strategy) for strategy in request.strategies
        )
        # Probe the program cache (memory, then disk) per request first;
        # only the misses compile.  The fast path already handled in-memory
        # hits for warm devices, so this mostly settles disk hits (shared
        # stores, restarts) and the first requests after a cold start.
        served: dict[int, tuple[dict, str]] = {}
        program_keys: list[str | None] = [None] * len(group)
        documents: list[dict | None] = [None] * len(group)
        if self.programs is not None:
            for index, entry in enumerate(group):
                program_key, document = self._program_entry(
                    entry.request, fingerprint, generations
                )
                program_keys[index] = program_key
                documents[index] = document
                results, layer = self.programs.get(program_key, document)
                if results is not None:
                    source = "program-mem" if layer == "memory" else "program-disk"
                    served[index] = (results, source)
        lookup_done = time.perf_counter()
        lookup_ms = (lookup_done - start) * 1000.0

        pending_indices = [i for i in range(len(group)) if i not in served]
        compiled_results: dict[int, dict] = {}
        sources: dict[str, str] = {}
        if pending_indices:
            targets: dict[str, object] = {}
            with self._state_lock:
                # One build at a time: concurrent groups must not race the
                # device's lazy calibration caches for the same cold target.
                for strategy in request.strategies:
                    targets[strategy], sources[strategy] = get_target(
                        self.hot_targets, device, strategy, fingerprint
                    )
            # The pool-reuse key mirrors target_cache_key: device fingerprint
            # AND per-strategy registry generations, so re-registering a
            # strategy rotates the process pool (whose workers hold
            # deserialized targets from init) instead of serving stale
            # selections.
            context = DispatchContext(
                device,
                targets,
                mapping=request.mapping,
                seed=request.seed,
                key=(fingerprint, generations) + key[1:],
                optimize=request.optimize,
            )
            circuits = [
                self._circuit_for(group[i].request.circuit) for i in pending_indices
            ]
            batch = self.dispatcher.dispatch(circuits, context)
            for i, compiled in zip(pending_indices, batch):
                results = {
                    strategy: summarize_compiled(one)
                    for strategy, one in compiled.items()
                }
                compiled_results[i] = results
                if self.programs is not None:
                    self.programs.put(program_keys[i], results, documents[i])
            self.metrics.record_batch(
                len(pending_indices), len(pending_indices) * len(request.strategies)
            )
        done = time.perf_counter()
        compile_ms = (done - lookup_done) * 1000.0
        responses = []
        for index, entry in enumerate(group):
            queue_ms = (entry.dispatched_at - entry.enqueued_at) * 1000.0
            total_ms = (done - entry.enqueued_at) * 1000.0
            if index in served:
                results, source = served[index]
                self.metrics.record_response(
                    queue_ms, lookup_ms, total_ms, lookup_ms=lookup_ms
                )
                responses.append(
                    CompileResponse(
                        request=entry.request,
                        results=results,
                        target_sources={},
                        fingerprint=fingerprint,
                        batch_size=len(group),
                        queue_ms=queue_ms,
                        compile_ms=lookup_ms,
                        total_ms=total_ms,
                        program_source=source,
                    )
                )
                continue
            self.metrics.record_response(queue_ms, compile_ms, total_ms)
            responses.append(
                CompileResponse(
                    request=entry.request,
                    results=compiled_results[index],
                    target_sources=dict(sources),
                    fingerprint=fingerprint,
                    batch_size=len(group),
                    queue_ms=queue_ms,
                    compile_ms=compile_ms,
                    total_ms=total_ms,
                )
            )
        return responses
