"""The cluster front end: routing, admission control, failover, coherence.

:class:`ClusterFrontend` is the single TCP endpoint clients talk to.  It
speaks exactly the PR-4 JSON-lines wire protocol (``compile`` / ``calibrate``
/ ``metrics`` / ``ping`` / ``shutdown``), so any existing
:class:`~repro.service.net.ServiceClient` works against a cluster unchanged;
the one wire extension is an optional ``tenant`` tag on compile traffic and
the load-shed refusal envelope ``{"ok": false, "shed": true,
"retry_after_ms": N}``.

Behind the endpoint:

* **routing** -- each compile request's device identity hashes to a route
  key and the consistent-hash :class:`~repro.cluster.ring.HashRing` picks
  the owning shard, so one device's targets stay hot on one shard;
* **admission control** -- each shard has a bounded per-tenant
  :class:`~repro.cluster.fairness.FairQueue`; a full queue sheds the
  request with a backlog-derived ``retry_after_ms`` instead of queueing
  without bound;
* **supervision & failover** -- a supervisor task per shard restarts
  crashed processes (replaying the calibration log before they rejoin) and
  accepted work re-dispatches onto ring siblings, so a crash costs
  restarts, never dropped requests;
* **calibration coherence** -- a ``calibrate`` op quiesces the device's
  in-flight traffic, fans the update out to *every* live shard, and only
  then acknowledges -- after the ack no shard can serve a
  pre-drift-fingerprint target (down shards catch up via log replay before
  rejoining the ring).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from dataclasses import dataclass

from repro.cluster.fairness import FairQueue
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.ring import DEFAULT_VNODES, HashRing, device_route_key
from repro.cluster.shard import ShardProcess
from repro.service.net import ServiceClient, serve_json_lines
from repro.service.requests import (
    DEFAULT_COHERENCE_US,
    DEFAULT_GATE_NS,
    CalibrationUpdate,
    RequestError,
)

#: Connection faults that trigger failover rather than a client error.
_CONNECTION_ERRORS = (ConnectionError, OSError, asyncio.IncompleteReadError)


@dataclass(frozen=True)
class ClusterConfig:
    """Deployment shape of one compilation cluster.

    Attributes:
        shards: how many shard processes to run.
        store_dir: shared on-disk target store (None = per-shard memory only,
            which forfeits cross-shard and cross-restart target reuse).
        target_capacity: per-shard hot target LRU bound.
        executor: per-shard worker-pool flavour (``thread`` / ``process``).
        max_workers: per-shard micro-batch fan-out width.
        batch_window_ms: per-shard micro-batch coalescing window.
        max_batch: per-shard micro-batch size cap.
        connections_per_shard: concurrent wire connections (= in-flight
            requests) the front end keeps per shard.
        max_pending_per_shard: fair-queue depth bound -- the admission
            control point; a full queue sheds.
        request_retries: failover re-dispatches per accepted request before
            it errors out.
        min_retry_after_ms: floor of the shed response's advertised delay.
        max_retry_after_ms: cap of the advertised delay -- the backlog
            estimate leans on a latency EWMA that can be stale (e.g. right
            after cold builds), and an overlong advice would idle clients
            far past the real drain time.
        vnodes: virtual nodes per shard on the hash ring.
        restart_backoff_s: pause before a crashed shard is respawned.
        spawn_timeout_s: watchdog bound on one shard spawn.
        drain_timeout_s: bound on the shutdown drain of accepted work.
    """

    shards: int = 2
    store_dir: str | None = None
    target_capacity: int = 64
    executor: str = "thread"
    max_workers: int | None = None
    batch_window_ms: float = 2.0
    max_batch: int = 32
    connections_per_shard: int = 4
    max_pending_per_shard: int = 64
    request_retries: int = 3
    min_retry_after_ms: float = 10.0
    max_retry_after_ms: float = 250.0
    vnodes: int = DEFAULT_VNODES
    restart_backoff_s: float = 0.25
    spawn_timeout_s: float = 60.0
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be positive, got {self.shards}")
        if self.connections_per_shard < 1:
            raise ValueError(
                f"connections_per_shard must be positive, got "
                f"{self.connections_per_shard}"
            )
        if self.max_pending_per_shard < 1:
            raise ValueError(
                f"max_pending_per_shard must be positive, got "
                f"{self.max_pending_per_shard}"
            )
        if self.request_retries < 0:
            raise ValueError(
                f"request_retries must be >= 0, got {self.request_retries}"
            )


class _ClusterItem:
    """One accepted compile request traveling through the cluster."""

    __slots__ = ("message", "tenant", "route", "future", "attempts", "enqueued_at",
                 "dispatched_at", "canary")

    def __init__(self, message: dict, tenant: str, route: str, future):
        self.message = message
        self.tenant = tenant
        self.route = route
        self.future = future
        self.attempts = 0
        self.enqueued_at = time.perf_counter()
        self.dispatched_at = self.enqueued_at
        self.canary = False


class _ShardLane:
    """Front-end state for one shard: its queue, workers and backlog."""

    def __init__(self, name: str, process: ShardProcess, queue: FairQueue):
        self.name = name
        self.process = process
        self.queue = queue
        self.workers: list[asyncio.Task] = []
        self.inflight = 0
        self.generation = 0  # bumped on restart so workers reconnect
        self.ewma_ms = 0.0  # smoothed per-request shard round trip

    @property
    def pending(self) -> int:
        """Backlog: queued plus in-flight requests."""
        return self.queue.depth + self.inflight


class ClusterFrontend:
    """A sharded compilation cluster behind one JSON-lines TCP endpoint.

    Example::

        frontend = ClusterFrontend(ClusterConfig(shards=2, store_dir=store))
        await frontend.start()
        host, port = frontend.address
        ...                                   # ServiceClient traffic
        final_metrics = await frontend.stop()
    """

    def __init__(
        self, config: ClusterConfig | None = None,
        host: str = "127.0.0.1", port: int = 0,
    ):
        self.config = config or ClusterConfig()
        self.host = host
        self.port = port
        self.metrics = ClusterMetrics()
        self.ring = HashRing(
            [f"shard-{index}" for index in range(self.config.shards)],
            vnodes=self.config.vnodes,
        )
        self.lanes: dict[str, _ShardLane] = {
            name: _ShardLane(
                name,
                ShardProcess(
                    name,
                    store_dir=self.config.store_dir,
                    target_capacity=self.config.target_capacity,
                    executor=self.config.executor,
                    max_workers=self.config.max_workers,
                    batch_window_ms=self.config.batch_window_ms,
                    max_batch=self.config.max_batch,
                    spawn_timeout_s=self.config.spawn_timeout_s,
                ),
                FairQueue(max_depth=self.config.max_pending_per_shard),
            )
            for name in self.ring.shards
        }
        self._down: set[str] = set()
        self._canary: dict | None = None
        self._canary_acc = 0.0
        self._route_inflight: dict[str, int] = {}
        self._gate_depth: dict[str, int] = {}
        self._parked: dict[str, list[_ClusterItem]] = {}
        self._calibration_log: dict[str, list[dict]] = {}
        self._calibration_locks: dict[str, asyncio.Lock] = {}
        self._supervisors: list[asyncio.Task] = []
        self._connections: set[asyncio.StreamWriter] = set()
        self._server: asyncio.Server | None = None
        self._shutdown = asyncio.Event()
        self._stopping = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) -- useful with ``port=0`` (ephemeral)."""
        if self._server is None:
            raise RuntimeError("cluster front end is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> "ClusterFrontend":
        """Spawn every shard, start their lanes, and begin accepting."""
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(
                loop.run_in_executor(None, lane.process.spawn)
                for lane in self.lanes.values()
            )
        )
        for lane in self.lanes.values():
            lane.workers = [
                asyncio.create_task(self._lane_worker(lane))
                for _ in range(self.config.connections_per_shard)
            ]
            self._supervisors.append(asyncio.create_task(self._supervise(lane)))
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        return self

    async def serve_until_shutdown(self) -> dict:
        """Block until a ``shutdown`` op (or :meth:`request_shutdown`);
        returns the final cluster metrics snapshot."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        return await self.stop()

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_until_shutdown` to wind the cluster down."""
        self._shutdown.set()

    async def stop(self) -> dict:
        """Drain accepted work, snapshot metrics, and stop every shard.

        Graceful end to end: the listener closes first (no new work), then
        accepted work drains (bounded by ``drain_timeout_s``), then shards
        get the wire ``shutdown`` op -- which drains *their* queued
        micro-batches -- before anything is terminated.
        """
        self._stopping = True
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout_s
        while loop.time() < deadline:
            backlog = any(lane.pending for lane in self.lanes.values())
            parked = any(self._parked.values())
            if not backlog and not parked:
                break
            await asyncio.sleep(0.01)
        # Sever lingering client connections: accepted work has drained, and
        # a connection left open against a stopping front end would hang on
        # its next request once the lane workers are cancelled.
        for writer in list(self._connections):
            writer.close()
        snapshot = await self.metrics_snapshot()
        tasks = list(self._supervisors)
        for lane in self.lanes.values():
            tasks.extend(lane.workers)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for lane in self.lanes.values():
            if lane.process.alive:
                await self._control_request(lane.name, {"op": "shutdown"})
        await asyncio.gather(
            *(
                loop.run_in_executor(None, lambda p=lane.process: p.wait(10.0))
                for lane in self.lanes.values()
            )
        )
        for lane in self.lanes.values():
            lane.process.terminate()
        return snapshot

    @property
    def down_shards(self) -> set[str]:
        """Shards currently off the routing ring (restarting or dead)."""
        return set(self._down)

    # -- compile path ---------------------------------------------------------

    async def submit_compile(self, message: dict) -> dict:
        """Route one compile envelope; returns the response envelope.

        The optional ``tenant`` tag is consumed here (shards reject unknown
        fields); everything else forwards verbatim, so shard-side validation
        errors come back exactly as a standalone service would phrase them.
        """
        message = dict(message)
        tenant = message.pop("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            self.metrics.record_failure()
            return {
                "ok": False,
                "error": f"tenant must be a non-empty string, got {tenant!r}",
            }
        canary = self._divert_to_canary(message)
        item = _ClusterItem(
            message,
            tenant,
            self._route_for(message),
            asyncio.get_running_loop().create_future(),
        )
        item.canary = canary
        refusal = self._admit(item)
        if refusal is not None:
            return refusal
        return await item.future

    # -- strategy canarying ---------------------------------------------------

    def set_canary(
        self,
        fraction: float,
        strategies: list[str] | tuple[str, ...] | None = None,
        mapping: str | None = None,
    ) -> dict:
        """Divert a fraction of compile traffic to a candidate configuration.

        While active, roughly ``fraction`` of submitted compile requests have
        their ``strategies`` and/or ``mapping`` overridden before routing;
        their responses are tagged ``cluster.canary = true`` so a caller
        (e.g. the ops runner) can compare delivered fidelity between the
        baseline and candidate populations and decide promote vs roll back.
        Device identity is untouched, so canaried traffic stays on its warm
        shard.  Returns the active canary configuration.
        """
        if not 0.0 < fraction <= 1.0:
            raise RequestError(
                f"canary fraction must be in (0, 1], got {fraction}"
            )
        if strategies is None and mapping is None:
            raise RequestError(
                "canary needs at least one override (strategies or mapping)"
            )
        self._canary = {
            "fraction": float(fraction),
            "strategies": list(strategies) if strategies is not None else None,
            "mapping": mapping,
        }
        self._canary_acc = 0.0
        return dict(self._canary)

    def clear_canary(self) -> dict | None:
        """Stop diverting traffic; returns the configuration that was active."""
        active, self._canary = self._canary, None
        self._canary_acc = 0.0
        return active

    def _divert_to_canary(self, message: dict) -> bool:
        """Apply the canary override to ~fraction of traffic (deterministic
        fractional accumulator, so a 0.25 canary sees every 4th request)."""
        if self._canary is None:
            return False
        self._canary_acc += self._canary["fraction"]
        if self._canary_acc < 1.0:
            return False
        self._canary_acc -= 1.0
        if self._canary["strategies"] is not None:
            message["strategies"] = list(self._canary["strategies"])
        if self._canary["mapping"] is not None:
            message["mapping"] = self._canary["mapping"]
        self.metrics.record_canary()
        return True

    # -- chaos probe hooks ----------------------------------------------------

    def kill_shard(self, name: str) -> dict:
        """SIGKILL one shard process (chaos probe; the supervisor restarts it).

        The in-process equivalent of the resilience tests' external kill:
        accepted work fails over to ring siblings and the supervisor replays
        the calibration log before the shard rejoins.
        """
        if name not in self.lanes:
            raise RequestError(
                f"unknown shard {name!r}; expected one of {list(self.lanes)}"
            )
        lane = self.lanes[name]
        was_alive = lane.process.alive
        if was_alive:
            lane.process.proc.kill()
        return {"shard": name, "killed": was_alive}

    async def ping_shard(self, name: str) -> bool:
        """True when one shard answers a wire ping right now.

        Stronger than ``process.alive`` (which can lag a SIGKILL until the
        supervisor reaps the process) and than ring membership (a shard is
        only off the ring once the supervisor observed the death) -- chaos
        harnesses use this to wait for a genuine rejoin.
        """
        if name not in self.lanes:
            raise RequestError(
                f"unknown shard {name!r}; expected one of {list(self.lanes)}"
            )
        envelope = await self._control_request(name, {"op": "ping"})
        return bool(envelope.get("ok"))

    def _route_for(self, message: dict) -> str:
        """The device route key of one compile envelope.

        Malformed device fields collapse onto one sentinel route -- the
        owning shard then rejects the request with its usual readable error.
        """
        try:
            return device_route_key(
                str(message.get("topology", "grid:3x3")),
                int(message.get("device_seed", 11)),
                float(message.get("coherence_us", DEFAULT_COHERENCE_US)),
                float(message.get("gate_ns", DEFAULT_GATE_NS)),
            )
        except (TypeError, ValueError):
            return device_route_key("malformed", 0, 1.0, 1.0)

    def _admit(self, item: _ClusterItem) -> dict | None:
        """Admission control: None = accepted, else the refusal envelope."""
        if self._gate_depth.get(item.route):
            # Calibration quiesce in progress for this device: park, release
            # after the fan-out acks.  Parked work is accepted work.
            self._parked.setdefault(item.route, []).append(item)
            return None
        try:
            shard = self.ring.lookup(item.route, exclude=self._down)
        except LookupError:
            self.metrics.record_failure()
            return {"ok": False, "error": "no live shard available"}
        lane = self.lanes[shard]
        if not lane.queue.offer(item.tenant, item):
            self.metrics.record_shed()
            return {
                "ok": False,
                "shed": True,
                "retry_after_ms": self._retry_after_ms(lane),
                "error": (
                    f"overloaded: shard {shard} backlog {lane.pending} at "
                    f"bound {lane.queue.max_depth}"
                ),
            }
        self.metrics.record_routed(shard)
        return None

    def _retry_after_ms(self, lane: _ShardLane) -> float:
        """Backlog-derived advice: when the queue might have room again."""
        per_request = max(1.0, lane.ewma_ms)
        estimate = lane.pending * per_request / self.config.connections_per_shard
        bounded = min(
            self.config.max_retry_after_ms,
            max(self.config.min_retry_after_ms, estimate),
        )
        return round(bounded, 1)

    def _redispatch(self, item: _ClusterItem, front: bool = True) -> None:
        """Re-queue accepted work (failover, drained backlog, unparked).

        Uses :meth:`FairQueue.force` -- accepted work is never shed; shedding
        here would drop an in-flight request on the floor.  ``front=True``
        suits a single retried request (it should not wait behind newer
        traffic); batch replays -- a dead shard's drained backlog, a
        quiesce gate's parked items -- must pass ``front=False`` so items
        re-queue in their original per-tenant arrival order instead of
        reversing it.
        """
        if self._gate_depth.get(item.route):
            self._parked.setdefault(item.route, []).append(item)
            return
        try:
            shard = self.ring.lookup(item.route, exclude=self._down)
        except LookupError:
            self.metrics.record_failure()
            if not item.future.done():
                item.future.set_result(
                    {"ok": False, "error": "no live shard available"}
                )
            return
        self.lanes[shard].queue.force(item.tenant, item, front=front)
        self.metrics.record_routed(shard)

    async def _lane_worker(self, lane: _ShardLane) -> None:
        """One wire connection's worth of dispatch capacity to one shard."""
        client: ServiceClient | None = None
        client_generation = -1
        try:
            while True:
                _tenant, item = await lane.queue.get()
                if self._gate_depth.get(item.route):
                    # Dequeued mid-quiesce: park instead of dispatching a
                    # request that could race the calibration fan-out.
                    self._parked.setdefault(item.route, []).append(item)
                    continue
                lane.inflight += 1
                self._route_inflight[item.route] = (
                    self._route_inflight.get(item.route, 0) + 1
                )
                item.dispatched_at = time.perf_counter()
                try:
                    if client is None or client_generation != lane.generation:
                        if client is not None:
                            await client.close()
                        host, port = lane.process.address
                        client = ServiceClient(host, port)
                        client_generation = lane.generation
                        await client.connect()
                    envelope = await client.request(
                        {"op": "compile", **item.message}
                    )
                except _CONNECTION_ERRORS as error:
                    if client is not None:
                        await client.close()
                        client = None
                    await self._failover(item, lane, error)
                except Exception as error:  # noqa: BLE001 - lane must survive
                    # Anything else (e.g. a malformed shard envelope) must
                    # not kill this coroutine: that would permanently lose
                    # one connection of dispatch capacity and strand
                    # ``item.future``, hanging the client forever.  Resolve
                    # the request with a readable error, drop the possibly
                    # mid-frame connection, count it, and keep serving.
                    if client is not None:
                        with contextlib.suppress(Exception):
                            await client.close()
                        client = None
                    self.metrics.record_lane_error()
                    self.metrics.record_failure()
                    if not item.future.done():
                        item.future.set_result(
                            {
                                "ok": False,
                                "error": (
                                    f"cluster dispatch to shard {lane.name} "
                                    f"failed: {error!r}"
                                ),
                            }
                        )
                else:
                    self._complete(item, lane, envelope)
                finally:
                    lane.inflight -= 1
                    remaining = self._route_inflight.get(item.route, 1) - 1
                    if remaining > 0:
                        self._route_inflight[item.route] = remaining
                    else:
                        self._route_inflight.pop(item.route, None)
        finally:
            if client is not None:
                with contextlib.suppress(Exception):
                    await client.close()

    def _complete(self, item: _ClusterItem, lane: _ShardLane, envelope: dict) -> None:
        """Record one shard response and resolve the client future."""
        now = time.perf_counter()
        queue_ms = (item.dispatched_at - item.enqueued_at) * 1000.0
        shard_ms = (now - item.dispatched_at) * 1000.0
        total_ms = (now - item.enqueued_at) * 1000.0
        lane.ewma_ms = (
            shard_ms if lane.ewma_ms == 0.0
            else lane.ewma_ms + 0.2 * (shard_ms - lane.ewma_ms)
        )
        if envelope.get("ok"):
            result = envelope.get("result")
            shard_timing = None
            if isinstance(result, dict):
                shard_timing = result.get("timing_ms")
                result["cluster"] = {
                    "shard": lane.name,
                    "tenant": item.tenant,
                    "attempts": item.attempts + 1,
                    "frontend_queue_ms": queue_ms,
                    "shard_rtt_ms": shard_ms,
                }
                if item.canary:
                    result["cluster"]["canary"] = True
            self.metrics.record_response(queue_ms, shard_ms, total_ms, shard_timing)
        else:
            self.metrics.record_failure()
        if not item.future.done():
            item.future.set_result(envelope)

    async def _failover(
        self, item: _ClusterItem, lane: _ShardLane, error: Exception
    ) -> None:
        """Re-dispatch one accepted request after its shard connection died."""
        if not lane.process.alive:
            self._mark_down(lane)
        item.attempts += 1
        self.metrics.record_failover()
        if item.attempts > self.config.request_retries:
            self.metrics.record_failure()
            if not item.future.done():
                item.future.set_result(
                    {
                        "ok": False,
                        "error": (
                            f"shard {lane.name} connection lost after "
                            f"{item.attempts} attempt(s): {error}"
                        ),
                    }
                )
            return
        # A transient drop re-routes to the same shard (it is still on the
        # ring); back off briefly so a dying-but-not-dead shard does not
        # burn all retries inside one millisecond.
        await asyncio.sleep(min(0.25, 0.05 * item.attempts))
        self._redispatch(item)

    # -- supervision ----------------------------------------------------------

    def _mark_down(self, lane: _ShardLane) -> None:
        """Take one shard off the routing ring and re-route its backlog.

        The drain is in per-tenant FIFO order and must stay that way on the
        sibling shards: re-queueing at the *front* would reverse each
        tenant's arrival order on every failover, so the backlog replays to
        the back of the sibling queues instead.
        """
        if lane.name in self._down:
            return
        self._down.add(lane.name)
        for _tenant, queued in lane.queue.drain():
            self._redispatch(queued, front=False)

    async def _supervise(self, lane: _ShardLane) -> None:
        """Restart ``lane``'s process whenever it exits uncommanded."""
        loop = asyncio.get_running_loop()
        while True:
            await loop.run_in_executor(None, lane.process.wait)
            if self._stopping:
                return
            self._mark_down(lane)
            self.metrics.record_restart(lane.name)
            await asyncio.sleep(self.config.restart_backoff_s)
            try:
                await loop.run_in_executor(None, lane.process.spawn)
            except RuntimeError:
                continue  # spawn failed; the wait() above returns immediately
            lane.generation += 1  # workers drop their dead connections
            await self._replay_calibrations(lane)
            self._down.discard(lane.name)

    async def _replay_calibrations(self, lane: _ShardLane) -> None:
        """Bring a restarted (fresh-state) shard up to calibration parity.

        Replays the full per-device calibration log in arrival order; the
        mutations are deterministic, so the replayed device state -- and
        therefore its fingerprint -- matches the shards that saw the updates
        live.  Must finish before the shard rejoins the ring, or it could
        serve pre-drift targets.
        """
        for messages in self._calibration_log.values():
            for message in messages:
                await self._control_request(lane.name, {"op": "calibrate", **message})

    # -- calibration coherence ------------------------------------------------

    async def fan_out_calibration(self, message: dict) -> dict:
        """Apply one calibration update coherently across the cluster.

        Quiesce -> fan out -> ack: new dispatches for the device park, its
        in-flight requests drain, every live shard applies the update, and
        only then does the client get its ack -- so a response observed
        after the ack can never carry a pre-drift fingerprint.  Down shards
        catch up via :meth:`_replay_calibrations` before rejoining.
        """
        message = dict(message)
        message.pop("tenant", None)
        try:
            update = CalibrationUpdate.from_dict(message)
        except RequestError as error:
            return {"ok": False, "error": str(error)}
        route = device_route_key(*update.device_key)
        lock = self._calibration_locks.setdefault(route, asyncio.Lock())
        async with lock:
            self._gate_depth[route] = self._gate_depth.get(route, 0) + 1
            try:
                while self._route_inflight.get(route, 0) > 0:
                    await asyncio.sleep(0.002)
                names = [n for n in self.ring.shards if n not in self._down]
                envelopes = await asyncio.gather(
                    *(
                        self._control_request(name, {"op": "calibrate", **message})
                        for name in names
                    )
                )
                reports: dict[str, dict] = {}
                coherent = True
                for name, envelope in zip(names, envelopes):
                    if envelope.get("ok"):
                        reports[name] = envelope.get("result")
                    else:
                        coherent = False
                        reports[name] = {"error": envelope.get("error", "unknown")}
                for name in self._down:
                    # setdefault: a shard that errored mid-fan-out and was
                    # marked down meanwhile keeps its error report (it is
                    # what made the ack non-coherent).
                    reports.setdefault(
                        name, {"deferred": "down; replayed before rejoin"}
                    )
                # Log regardless of per-shard failures: a shard that errored
                # gets another chance at parity on its next restart replay.
                self._calibration_log.setdefault(route, []).append(dict(message))
                if coherent:
                    self.metrics.record_calibration()
            finally:
                depth = self._gate_depth.get(route, 1) - 1
                if depth > 0:
                    self._gate_depth[route] = depth
                else:
                    self._gate_depth.pop(route, None)
                    parked = self._parked.pop(route, [])
                    self.metrics.record_parked(len(parked))
                    for item in parked:
                        # Parked in arrival order; front=False keeps it.
                        self._redispatch(item, front=False)
        return {
            "ok": coherent,
            "result": {
                "route": route[:12],
                "coherent": coherent,
                "shards": reports,
            },
        }

    # -- control-plane helpers ------------------------------------------------

    async def _control_request(self, name: str, payload: dict) -> dict:
        """One out-of-band request to one shard (calibrate/metrics/shutdown)."""
        lane = self.lanes[name]
        try:
            host, port = lane.process.address
        except RuntimeError as error:
            return {"ok": False, "error": str(error)}
        client = ServiceClient(host, port, retries=2)
        try:
            await client.connect()
            return await client.request(payload)
        except _CONNECTION_ERRORS as error:
            return {"ok": False, "error": f"shard {name} unreachable: {error}"}
        finally:
            await client.close()

    async def metrics_snapshot(self) -> dict:
        """The cluster metrics document (front-end view + per-shard docs)."""
        names = list(self.ring.shards)
        shards: dict[str, dict | None] = dict.fromkeys(names)
        live = [name for name in names if name not in self._down]
        envelopes = await asyncio.gather(
            *(self._control_request(name, {"op": "metrics"}) for name in live)
        )
        for name, envelope in zip(live, envelopes):
            shards[name] = envelope.get("result") if envelope.get("ok") else None
        ring_doc = {
            "shards": names,
            "down": sorted(self._down),
            "vnodes": self.ring.vnodes,
        }
        return self.metrics.snapshot(shards=shards, ring=ring_doc)

    # -- wire endpoint --------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await serve_json_lines(reader, writer, self._handle_line, self._connections)

    async def _handle_line(self, text: str) -> dict:
        try:
            message = json.loads(text)
        except ValueError:
            return {"ok": False, "error": f"invalid JSON: {text[:120]!r}"}
        if not isinstance(message, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        op = message.pop("op", "compile")
        if op == "ping":
            return {"ok": True, "result": "pong"}
        if op == "metrics":
            return {"ok": True, "result": await self.metrics_snapshot()}
        if op == "shutdown":
            self.request_shutdown()
            return {"ok": True, "result": "shutting down", "shutdown": True}
        if op == "compile":
            try:
                return await self.submit_compile(message)
            except Exception as error:  # noqa: BLE001 - wire boundary
                self.metrics.record_failure()
                return {"ok": False, "error": f"internal error: {error}"}
        if op == "calibrate":
            try:
                return await self.fan_out_calibration(message)
            except Exception as error:  # noqa: BLE001 - wire boundary
                return {"ok": False, "error": f"internal error: {error}"}
        return {
            "ok": False,
            "error": f"unknown op {op!r}; expected one of "
            "['compile', 'calibrate', 'metrics', 'ping', 'shutdown']",
        }
