"""The serving workload: open-loop traffic against a 2-shard cluster that is
recalibrated while it serves, in cycles with short closed-loop capacity
bursts.

The cluster runs as ``python -m repro.cluster serve`` child processes; this
process only generates load over the JSON-lines wire and reads the timings
every response already carries.  See ``perfbench/README.md`` for the
reasoning behind the request mix and rates.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import FAILED, SRC, WORK, median, percentile, process_peak_rss_mb

TOPOLOGY = "grid:3x3"
DEVICES = (11, 12, 13, 14)
CIRCUITS = ("ghz_4", "bv_5", "qft_4", "cuccaro_6")
STRATEGIES = ["baseline", "criterion2"]
COMPILE_SEED = 17  # the service's default layout/routing seed
#: The timed phase is a run of cycles.  Each cycle is OPEN_S of open-loop
#: traffic holding one recalibration, then CAPACITY_S of closed loop.
#: Interleaving them samples every metric across the whole run: this
#: host's speed drifts by 15-20 % over tens of seconds, so one block at
#: the end would time whichever speed the host had then.
OPEN_S = 2.0
CAPACITY_S = 1.0
#: Offered rate of the open-loop segments: keeps a 2-CPU host about half
#: busy, so the median is a cache hit, not a queue.
RATE_RPS = 100.0
#: Share of requests that are first-time programs (a new layout seed on a
#: warm target); the rest repeat the working set.
FIRST_TIME_SHARE = 0.05
#: Each cycle recalibrates the device of its first arrival due at or after
#: CALIBRATE_AT_S into the segment, CALIBRATE_LEAD_S before that arrival.
#: That request then parks at the front end for the whole recalibration,
#: so the slowest request of every cycle waits one full recalibration
#: whatever the arrival times; the rest of the stall population (about a
#: sixth of the requests) waits part of it.
CALIBRATE_AT_S = 0.3
CALIBRATE_LEAD_S = 0.005
DRIFT_MODELS = ["ou:sigma_ghz=0.08"]
CONNECTIONS = 2
SPIN_S = 0.0015
REQUEST_TIMEOUT_S = 60.0
_FIRST_TIME_SEEDS = 100_000  # layout seeds of first-time programs start here
_CAPACITY_SEEDS = 500_000


def _message(device_seed: int, circuit: str, seed: int = COMPILE_SEED) -> dict:
    message = {
        "circuit": circuit,
        "topology": TOPOLOGY,
        "device_seed": device_seed,
        "strategies": STRATEGIES,
    }
    if seed != COMPILE_SEED:
        message["seed"] = seed
    return message


WORKING_SET = [_message(d, c) for d in DEVICES for c in CIRCUITS]


# -- the cluster under test ------------------------------------------------------


@dataclass
class Cluster:
    process: subprocess.Popen
    host: str
    port: int
    store: Path


def start_cluster(store: Path, timeout_s: float = 120.0) -> Cluster:
    """Spawn a 2-shard cluster over a fresh store; wait for its address."""
    store.mkdir(parents=True)
    log = store / "cluster.log"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "w") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cluster", "serve", "--shards", "2",
             "--port", "0", "--store-dir", str(store / "store")],
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            env=env,
            start_new_session=True,
        )
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        found = re.search(r"front end on ([\d.]+):(\d+)", log.read_text())
        if found:
            return Cluster(process, found.group(1), int(found.group(2)), store)
        if process.poll() is not None:
            break
        time.sleep(0.005)
    kill_cluster(process)
    raise RuntimeError(f"cluster did not start: {log.read_text()[-400:]}")


def kill_cluster(process: subprocess.Popen) -> None:
    """Kill the cluster's whole process group and reap the front end."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def stop_cluster(cluster: Cluster) -> None:
    """Ask for a graceful shutdown; kill what is left; remove the store."""
    from repro.service.net import ServiceClient

    async def shutdown():
        client = ServiceClient(cluster.host, cluster.port)
        await client.connect()
        await client.request({"op": "shutdown"})
        await client.close()

    try:
        asyncio.run(asyncio.wait_for(shutdown(), 30.0))
        cluster.process.wait(timeout=30.0)
    except (OSError, asyncio.TimeoutError, subprocess.TimeoutExpired):
        pass
    # The group also holds the shard processes: make sure none outlives us.
    kill_cluster(cluster.process)
    shutil.rmtree(cluster.store, ignore_errors=True)


def cluster_pids(root: int) -> list[int]:
    """The front end and every process it spawned."""
    parents: dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            parents[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    family = [root]
    for pid in family:
        family.extend(child for child, parent in parents.items() if parent == pid)
    return family


# -- set-up ----------------------------------------------------------------------


def serve_setup(tag: str):
    """Spawn the cluster and compile the working set once, in order."""
    from repro.service.net import ServiceClient

    cluster = start_cluster(WORK / f"serve_drift-{os.getpid()}-{tag}")

    async def warm():
        client = ServiceClient(cluster.host, cluster.port)
        await client.connect()
        try:
            return [await client.request({"op": "compile", **m}) for m in WORKING_SET]
        finally:
            await client.close()

    try:
        envelopes = asyncio.run(warm())
    except BaseException:
        stop_cluster(cluster)
        raise
    return cluster, envelopes


# -- the traffic -----------------------------------------------------------------


@dataclass
class Record:
    message: dict
    kind: str  # "repeat" | "first"
    due: float
    cycle: int = 0
    sent: float = 0.0
    received: float = 0.0
    envelope: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.envelope.get("ok"))

    @property
    def result(self) -> dict:
        return self.envelope.get("result") or {}


@dataclass
class Calibration:
    device_seed: int
    due: float
    message: dict
    old_fingerprint: str
    sent: float = 0.0
    acked: float = 0.0
    envelope: dict = field(default_factory=dict)


@dataclass
class Cycle:
    requests: list[Record]
    calibration: Calibration


def _draw(rng: random.Random, first_seed: int, due: float = 0.0, cycle: int = 0) -> Record:
    """One request of the mix: a repeat of the working set, or a first-time
    program whose layout seed is ``first_seed``."""
    device_seed = rng.choice(DEVICES)
    circuit = rng.choice(CIRCUITS)
    if rng.random() < FIRST_TIME_SHARE:
        return Record(_message(device_seed, circuit, first_seed), "first", due, cycle)
    return Record(_message(device_seed, circuit), "repeat", due, cycle)


def build_schedule(seed: int, seconds: float):
    """Seeded Poisson arrivals, their mix and one recalibration per cycle.

    Returns ``(cycles, devices)`` where ``devices`` maps each calibration
    fingerprint the run will see to a copy of that device state.  Due times
    are offsets into each cycle's open-loop segment.
    """
    from repro.drift.clock import DriftClock
    from repro.fleet.devices import make_device
    from repro.fleet.spec import TopologySpec

    rng = random.Random(f"serve_drift/{seed}")
    topology = TopologySpec.parse(TOPOLOGY)
    clocks = {
        d: DriftClock(make_device(topology, d), DRIFT_MODELS, drift_seed=1000 * seed + d)
        for d in DEVICES
    }
    devices = {clock.fingerprint: pickle.loads(pickle.dumps(clock.shadow))
               for clock in clocks.values()}
    cycles: list[Cycle] = []
    first_seed = _FIRST_TIME_SEEDS
    for index in range(max(1, int(seconds // (OPEN_S + CAPACITY_S)))):
        requests: list[Record] = []
        offset = rng.expovariate(RATE_RPS)
        while offset < OPEN_S:
            requests.append(_draw(rng, first_seed, offset, index))
            first_seed += 1
            offset += rng.expovariate(RATE_RPS)
        # At 100 rps, 1.7 s without an arrival has probability e^-170.
        target = next(r for r in requests if r.due >= CALIBRATE_AT_S)
        device_seed = target.message["device_seed"]
        clock = clocks[device_seed]
        old = clock.fingerprint
        payload, _ = clock.tick()
        message = {
            "op": "calibrate",
            "topology": TOPOLOGY,
            "device_seed": device_seed,
            **payload,
            "prewarm": {
                "circuits": list(CIRCUITS),
                "strategies": STRATEGIES,
                "mapping": "hop_count",
                "seed": COMPILE_SEED,
            },
        }
        devices[clock.fingerprint] = pickle.loads(pickle.dumps(clock.shadow))
        calibration = Calibration(device_seed, target.due - CALIBRATE_LEAD_S, message, old)
        cycles.append(Cycle(requests, calibration))
    return cycles, devices


async def _exchange(client, message: dict) -> dict:
    try:
        return await asyncio.wait_for(client.request(message), REQUEST_TIMEOUT_S)
    except (ConnectionError, OSError, asyncio.TimeoutError) as error:
        await client.close()  # reconnects on the next request
        return {"ok": False, "error": f"client: {error!r}"}


async def open_segment(clients, control, cycle: Cycle, lateness: list[float]) -> None:
    """Send every request of the cycle at its due time on the next free
    connection, and its recalibration at its own due time on ``control``.

    Latency counts from the due time.  ``lateness`` gets how far past a due
    time the generator woke when a connection was free before it was due.
    """
    free: asyncio.Queue = asyncio.Queue()
    for client in clients:
        free.put_nowait(client)
    start = time.perf_counter() + 0.05

    async def send(client, record: Record) -> None:
        record.sent = time.perf_counter()
        record.envelope = await _exchange(client, {"op": "compile", **record.message})
        record.received = time.perf_counter()
        free.put_nowait(client)

    async def dispatch() -> None:
        tasks = []
        for record in cycle.requests:
            record.due += start
            delay = record.due - time.perf_counter()
            if delay > 0:
                # The loop's timers wake up to a millisecond late; sleep
                # short and yield until due so the hit RTT is not swamped.
                await asyncio.sleep(max(0.0, delay - SPIN_S))
                while time.perf_counter() < record.due:
                    await asyncio.sleep(0)
                lateness.append((time.perf_counter() - record.due) * 1000.0)
            client = await free.get()
            tasks.append(asyncio.create_task(send(client, record)))
        await asyncio.gather(*tasks)

    async def recalibrate() -> None:
        calibration = cycle.calibration
        calibration.due += start
        await asyncio.sleep(max(0.0, calibration.due - time.perf_counter()))
        calibration.sent = time.perf_counter()
        calibration.envelope = await _exchange(control, calibration.message)
        calibration.acked = time.perf_counter()

    await asyncio.gather(dispatch(), recalibrate())


async def capacity_burst(clients, rng: random.Random, records: list[Record]) -> float:
    """Every connection with one request in flight, the mix without
    recalibrations, for CAPACITY_S: the rate completed in that time.

    A closed loop cannot build a backlog, so this is a sustainable rate.
    """
    deadline = time.perf_counter() + CAPACITY_S
    completed = 0

    async def connection(client) -> None:
        nonlocal completed
        while time.perf_counter() < deadline:
            record = _draw(rng, _CAPACITY_SEEDS + len(records))
            records.append(record)
            record.due = record.sent = time.perf_counter()
            record.envelope = await _exchange(client, {"op": "compile", **record.message})
            record.received = time.perf_counter()
            if record.ok and record.received <= deadline:
                completed += 1

    await asyncio.gather(*(connection(client) for client in clients))
    return completed / CAPACITY_S


async def timed_phase(cluster: Cluster, cycles: list[Cycle], seed: int):
    """Each cycle's open-loop segment, then its capacity burst, in turn.

    Returns ``(lateness, capacity_records, capacity_rates)``.
    """
    from repro.service.net import ServiceClient

    clients = [ServiceClient(cluster.host, cluster.port) for _ in range(CONNECTIONS)]
    control = ServiceClient(cluster.host, cluster.port)
    rng = random.Random(f"serve_drift/capacity/{seed}")
    lateness: list[float] = []
    capacity_records: list[Record] = []
    rates: list[float] = []
    try:
        for client in clients + [control]:
            await client.connect()
        for cycle in cycles:
            await open_segment(clients, control, cycle, lateness)
            rates.append(await capacity_burst(clients, rng, capacity_records))
    finally:
        for client in clients + [control]:
            await client.close()
    return lateness, capacity_records, rates


async def fetch_metrics(cluster: Cluster) -> dict:
    from repro.service.net import ServiceClient

    client = ServiceClient(cluster.host, cluster.port)
    await client.connect()
    try:
        return await client.metrics()
    finally:
        await client.close()


# -- checks ----------------------------------------------------------------------


class References:
    """The library's own compile of a program on a known calibration state."""

    def __init__(self, devices: dict):
        self.devices = devices
        self._cache: dict[tuple, dict] = {}

    def results(self, fingerprint: str, message: dict) -> dict | None:
        from repro import PassManager
        from repro.fleet.sweep import build_circuit
        from repro.service.requests import summarize_compiled

        device = self.devices.get(fingerprint)
        if device is None:
            return None
        seed = message.get("seed", COMPILE_SEED)
        key = (fingerprint, message["circuit"], seed)
        if key not in self._cache:
            circuit = build_circuit(message["circuit"])
            self._cache[key] = {
                strategy: summarize_compiled(
                    PassManager.default(strategy, seed=seed).run(circuit, device=device)
                )
                for strategy in message["strategies"]
            }
        return self._cache[key]


def retired_fingerprints(calibrations) -> dict[str, float]:
    """Fingerprint -> the time the calibration that retired it was acked."""
    return {c.old_fingerprint: c.acked for c in calibrations if c.envelope.get("ok")}


def is_stale(record: Record, retired: dict[str, float]) -> bool:
    """Answered with a fingerprint retired before the request was sent."""
    fingerprint = record.result.get("fingerprint", "")
    return fingerprint in retired and record.sent > retired[fingerprint]


def check_record(record: Record, retired: dict, references: References) -> str | None:
    """None when the answer is ok, current and equal to the library's compile."""
    if not record.ok:
        return str(record.envelope.get("error", "not ok"))
    if is_stale(record, retired):
        return "stale fingerprint served after its ack"
    fingerprint = record.result.get("fingerprint", "")
    expected = references.results(fingerprint, record.message)
    if expected is None:
        return f"unknown fingerprint {fingerprint[:12]}"
    if record.result.get("results") != expected:
        return (
            f"{record.result.get('program_source')} results differ from the "
            "library's compile"
        )
    return None


# -- the workload ----------------------------------------------------------------


def run_serve_drift(seed: int, seconds: float, state) -> dict:
    cluster, setup_envelopes = state
    try:
        cycles, devices = build_schedule(seed, seconds)
        lateness, capacity_records, rates = asyncio.run(timed_phase(cluster, cycles, seed))
        cluster_metrics = asyncio.run(fetch_metrics(cluster))
        peak_rss = max(
            process_peak_rss_mb(pid) for pid in cluster_pids(cluster.process.pid)
        )
    finally:
        stop_cluster(cluster)

    requests = [record for cycle in cycles for record in cycle.requests]
    calibrations = [cycle.calibration for cycle in cycles]
    references = References(devices)
    retired = retired_fingerprints(calibrations)
    failures = [
        f"calibrate {c.device_seed}: {c.envelope.get('error', 'not coherent')}"
        for c in calibrations
        if not c.envelope.get("ok")
    ]
    setup_records = [
        Record(m, "setup", 0.0, envelope=e) for m, e in zip(WORKING_SET, setup_envelopes)
    ]
    latencies = []  # per open-loop request, in schedule order
    for phase, records in (("setup", setup_records), ("open", requests),
                           ("capacity", capacity_records)):
        for record in records:
            reason = check_record(record, retired, references)
            if reason is not None:
                failures.append(
                    f"{phase} {record.message['circuit']}@"
                    f"{record.message['device_seed']}: {reason}"
                )
            if phase == "open":
                ok = reason is None
                latencies.append((record.received - record.due) * 1000.0 if ok else FAILED)

    results = [
        one for e in setup_envelopes if e.get("ok") for one in e["result"]["results"].values()
    ]
    # Each statistic is taken per cycle and then as the median over cycles,
    # so a slow stretch of the host shorter than half the run does not move
    # it.  A cycle's slowest request is the one parked for its whole
    # recalibration.
    per_cycle: dict[int, list[float]] = {}
    for record, latency in zip(requests, latencies):
        per_cycle.setdefault(record.cycle, []).append(latency)
    return {
        "latencies_ms": latencies,
        "latency_ms_p50": median([percentile(c, 50) for c in per_cycle.values()]),
        "latency_ms_tail": median([max(c) for c in per_cycle.values()]),
        "throughput": median(rates),
        "peak_rss_mb": peak_rss,
        "failures": failures,
        "attempted": len(setup_records) + len(requests) + len(calibrations)
        + len(capacity_records),
        "two_qubit_layers": sum(one["two_qubit_layers"] for one in results),
        "mean_fidelity": sum(one["fidelity"] for one in results) / max(len(results), 1),
        "layers": {
            **serve_layers(requests, calibrations, lateness, cluster_metrics),
            "coherence.stale_serves": sum(
                is_stale(r, retired) for r in requests + capacity_records if r.ok
            ),
        },
        "record": {
            "cycles": len(cycles),
            "requests_per_cycle": [len(c) for c in per_cycle.values()],
            "latency_ms_p99_pooled": percentile(latencies, 99),
            "requests": len(requests),
            "first_time": sum(r.kind == "first" for r in requests),
            "calibrations": len(calibrations),
            "capacity_requests": len(capacity_records),
            "capacity_rps_per_burst": rates,
            "generator_late_ms_p50": percentile(lateness, 50),
            "generator_late_ms_p99": percentile(lateness, 99),
            "generator_late_samples": len(lateness),
            "cluster_requests": cluster_metrics.get("requests", {}),
        },
    }


def serve_layers(requests, calibrations, lateness, cluster_metrics) -> dict:
    """Per-layer numbers from the fields every response carries."""
    ok = [r for r in requests if r.ok]
    hits = [r for r in ok if r.result.get("program_source", "").startswith("program-")]
    compiled = [r for r in ok if r.result.get("program_source") == "compiled"]
    rtt = {id(r): (r.received - r.sent) * 1000.0 for r in ok}

    def cluster_field(record, name):
        return float(record.result.get("cluster", {}).get(name, 0.0))

    def timing(record, name):
        return float(record.result.get("timing_ms", {}).get(name, 0.0))

    # With one request in flight per connection, a request parked behind a
    # recalibration soon blocks every connection: a request due while any
    # recalibration is in progress is stalled by it.
    stalled = sum(
        any(c.sent <= r.due < c.acked for c in calibrations) for r in requests
    )
    repeats = sum(r.kind == "repeat" for r in requests)
    built = sum(
        1 for r in ok for source in r.result.get("target_sources", {}).values()
        if source == "built"
    )
    prewarmed = sum(
        shard.get("prewarm", {}).get("targets", 0)
        for c in calibrations
        for shard in (c.envelope.get("result") or {}).get("shards", {}).values()
        if isinstance(shard, dict)
    )
    covered = sum(
        cluster_field(r, "frontend_queue_ms") + cluster_field(r, "shard_rtt_ms") for r in ok
    )
    counters = cluster_metrics.get("requests", {})
    return {
        "frontend.self_ms_p50": percentile(
            [rtt[id(r)] - cluster_field(r, "frontend_queue_ms")
             - cluster_field(r, "shard_rtt_ms") for r in hits], 50),
        "frontend.queue_ms_p99": percentile(
            [cluster_field(r, "frontend_queue_ms") for r in ok], 99),
        "hop.self_ms_p50": percentile(
            [cluster_field(r, "shard_rtt_ms") - timing(r, "total") for r in hits], 50),
        "service.fastpath_ms_p50": percentile([timing(r, "total") for r in hits], 50),
        "service.queue_ms_p99": percentile([timing(r, "queue") for r in compiled], 99),
        "service.compile_ms_p50": percentile([timing(r, "compile") for r in compiled], 50),
        "programcache.hits": len(hits),
        "programcache.hit_ratio": len(hits) / repeats if repeats else 0.0,
        "targetcache.builds": built + prewarmed,
        "calibrate.ack_ms_p50": percentile(
            [(c.acked - c.sent) * 1000.0 for c in calibrations], 50),
        "calibrate.stalled_share": stalled / len(requests) if requests else 0.0,
        "cluster.sheds": counters.get("shed", 0),
        "cluster.failovers": counters.get("failovers", 0),
        "client.late_ms_p50": percentile(lateness, 50),
        "client.late_ms_p99": percentile(lateness, 99),
        "trace.attributed_share": covered / sum(rtt.values()) if rtt else 0.0,
        "trace.overhead": 0.0,
    }
