"""Scenario execution: one long-lived cluster under drift, traffic and chaos.

:class:`ScenarioRunner` owns the control-plane side of a run:

* an in-process :class:`~repro.cluster.frontend.ClusterFrontend` over a
  shared on-disk store, serving the scenario's live traffic;
* one :class:`~repro.drift.clock.DriftClock` per served device -- each tick
  renders an absolute calibration payload, fans it out coherently
  (quiesce -> apply -> ack) with a **pre-warm spec** attached, so shards
  rebuild targets and programs for the new fingerprint off the request
  path before the swap;
* **stale-serve detection**: the clock's post-tick fingerprint is the
  expected one; any response to a request *sent after* a tick's ack that
  still carries a retired fingerprint is counted as a stale serve (the
  zero-tolerance coherence SLO).  Send time, not receive time: a response
  to a pre-ack request may legitimately carry the old fingerprint;
* **canarying**: a traffic fraction is diverted to a candidate
  strategy/mapping, then both configurations are scored on *true* delivered
  fidelity (:func:`~repro.drift.sweep.drifted_circuit_fidelity` against the
  drifted shadows) and the candidate is promoted or rolled back
  (:func:`decide_canary`);
* **chaos probes**: shard SIGKILL, calibration storms, on-disk cache
  corruption -- each run under live traffic, each expected to cost zero
  dropped requests.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace
from pathlib import Path

from repro.cluster.frontend import ClusterConfig, ClusterFrontend
from repro.compiler.pipeline.dispatch import BatchDispatcher, DispatchContext
from repro.drift.clock import DriftClock
from repro.drift.sweep import drifted_circuit_fidelity
from repro.fleet.cache import TARGET_CODEC, get_target
from repro.fleet.devices import device_fingerprint, make_device
from repro.fleet.spec import TopologySpec
from repro.fleet.sweep import build_circuit
from repro.ops.report import PhaseReport, ScenarioReport
from repro.ops.scenario import DeviceSpec, PhaseSpec, ScenarioSpec, WorkloadSpec
from repro.ops.traffic import TrafficRecord, TrafficStats, build_plan, run_traffic
from repro.store import ContentStore


def decide_canary(
    baseline: float | None, candidate: float | None, tolerance: float
) -> str:
    """Promote or roll back a canary from the two fidelity scores.

    Promote iff the candidate's delivered fidelity is within ``tolerance``
    of (or better than) the baseline's; anything unmeasurable rolls back --
    a canary that produced no evidence must never be promoted.
    """
    if baseline is None or candidate is None:
        return "rollback"
    return "promote" if candidate >= baseline - tolerance else "rollback"


class ScenarioRunner:
    """Executes one :class:`~repro.ops.scenario.ScenarioSpec` end to end.

    ``store_dir`` is the shared on-disk store for targets and programs
    (required: the corrupt-cache probe and warm starts act on it).  ``log``
    is an optional callable for progress lines (the CLI passes ``print``).
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        store_dir: str | Path,
        log=None,
    ):
        self.spec = spec
        self.store_dir = Path(store_dir)
        self.log = log or (lambda _line: None)
        self.workload: WorkloadSpec = spec.workload
        self.frontend: ClusterFrontend | None = None
        self.clocks: dict[tuple, DriftClock] = {}
        self.device_specs: dict[tuple, DeviceSpec] = {}
        #: fingerprint -> monotonic time its retiring calibration acked.
        self.retired: dict[str, float] = {}
        #: device key -> the fingerprint every shard must serve right now.
        self.expected: dict[tuple, str] = {}
        self.drift_ticks_acked = 0
        self.drift_ticks_total = 0
        # The runner's view of the shared target store: the warm start
        # fills it, and true-fidelity scoring on the drifted shadows reads
        # it, so targets the shards already built deserialize instead of
        # rebuilding.
        self._targets = ContentStore(TARGET_CODEC, 32, self.store_dir)
        self._eval_dispatcher = BatchDispatcher(executor="thread", max_workers=None)

    # -- lifecycle ------------------------------------------------------------

    async def run(self) -> ScenarioReport:
        """Execute every phase in order; returns the judged report."""
        started = time.perf_counter()
        self._init_fleet()
        if self.spec.warm_start:
            await asyncio.get_running_loop().run_in_executor(None, self._warm_store)
        config = ClusterConfig(
            store_dir=str(self.store_dir), **self.spec.cluster_kwargs()
        )
        self.frontend = ClusterFrontend(config)
        await self.frontend.start()
        report = ScenarioReport(scenario=self.spec.to_dict())
        try:
            for index, phase in enumerate(self.spec.phases):
                self.log(f"phase {index + 1}/{len(self.spec.phases)}: {phase.label}")
                phase_report = await self._run_phase(phase)
                phase_report.judge(self.spec.slo.merged(phase.slo))
                report.phases.append(phase_report)
                self.log(
                    f"  {'ok' if phase_report.ok else 'FAIL'}: "
                    f"{phase_report.traffic.requests} requests, "
                    f"{phase_report.traffic.dropped} dropped, "
                    f"{phase_report.traffic.stale_serves} stale"
                )
        finally:
            report.cluster_metrics = await self.frontend.stop()
            self._eval_dispatcher.close()
        report.duration_s = time.perf_counter() - started
        return report

    def _init_fleet(self) -> None:
        """Build each served device's base state and its drift clock."""
        for device_spec in self.spec.devices:
            device = make_device(
                TopologySpec.parse(device_spec.topology),
                device_spec.device_seed,
                coherence_time_us=device_spec.coherence_us,
                single_qubit_gate_ns=device_spec.gate_ns,
            )
            key = (
                device_spec.topology,
                device_spec.device_seed,
                device_spec.coherence_us,
                device_spec.gate_ns,
            )
            clock = DriftClock(
                device,
                list(self.spec.drift_models),
                drift_seed=self.spec.drift_seed + len(self.clocks),
            )
            self.clocks[key] = clock
            self.device_specs[key] = device_spec
            self.expected[key] = clock.fingerprint

    def _warm_store(self) -> None:
        """Target-store pre-warm: build the working set before traffic starts.

        Goes through the store's locked get-or-build, so concurrent warmers
        over a shared directory still build each cell once.
        """
        for key, clock in self.clocks.items():
            outcome = {
                strategy: get_target(
                    self._targets, clock.shadow, strategy, self.expected[key]
                )[1]
                for strategy in self.workload.strategies
            }
            self.log(f"  warm {key[0]}/{key[1]}: {outcome}")

    # -- phase execution ------------------------------------------------------

    async def _run_phase(self, phase: PhaseSpec) -> PhaseReport:
        report = PhaseReport(name=phase.label, kind=phase.kind)
        started = time.perf_counter()
        if phase.kind == "traffic":
            await self._run_traffic_phase(phase, report)
        elif phase.kind == "drift":
            await self._run_drift_phase(phase, report)
        elif phase.kind == "canary":
            await self._run_canary_phase(phase, report)
        elif phase.kind == "chaos":
            await self._run_chaos_phase(phase, report)
        report.duration_s = time.perf_counter() - started
        return report

    async def _run_traffic_phase(
        self, phase: PhaseSpec, report: PhaseReport
    ) -> None:
        """Sustained traffic, optionally with drift ticks landing mid-load."""
        traffic = asyncio.create_task(self._traffic(phase.repeats))
        acked = 0
        for _ in range(phase.drift_ticks):
            await asyncio.sleep(0.05)
            acked += await self._tick_all()
        records = await traffic
        report.traffic = TrafficStats(records)
        if phase.drift_ticks:
            total = phase.drift_ticks * len(self.clocks)
            report.drift = {"ticks": total, "coherent_acks": acked}
            report.verdicts["coherent_acks"] = {
                "ok": acked == total, "value": acked, "limit": total,
            }

    async def _run_drift_phase(self, phase: PhaseSpec, report: PhaseReport) -> None:
        """Pure drift ticks: every device advances ``ticks`` epochs."""
        acked = 0
        for _ in range(phase.ticks):
            acked += await self._tick_all()
        total = phase.ticks * len(self.clocks)
        report.drift = {"ticks": total, "coherent_acks": acked}
        report.verdicts["coherent_acks"] = {
            "ok": acked == total, "value": acked, "limit": total,
        }

    async def _run_canary_phase(self, phase: PhaseSpec, report: PhaseReport) -> None:
        """Divert a traffic fraction to the candidate, score, decide."""
        assert self.frontend is not None
        self.frontend.set_canary(
            phase.fraction,
            strategies=phase.candidate_strategies,
            mapping=phase.candidate_mapping,
        )
        try:
            records = await self._traffic(phase.repeats)
        finally:
            self.frontend.clear_canary()
        report.traffic = TrafficStats(records)
        loop = asyncio.get_running_loop()
        candidate_strategies = phase.candidate_strategies or self.workload.strategies
        candidate_mapping = phase.candidate_mapping or self.workload.mapping
        baseline_score = await loop.run_in_executor(
            None, self._true_fidelity, self.workload.strategies,
            self.workload.mapping,
        )
        candidate_score = await loop.run_in_executor(
            None, self._true_fidelity, candidate_strategies, candidate_mapping
        )
        decision = decide_canary(baseline_score, candidate_score, phase.tolerance)
        if decision == "promote":
            self.workload = replace(
                self.workload,
                strategies=tuple(candidate_strategies),
                mapping=candidate_mapping,
            )
        report.canary = {
            "fraction": phase.fraction,
            "candidate_strategies": (
                list(phase.candidate_strategies)
                if phase.candidate_strategies is not None
                else None
            ),
            "candidate_mapping": phase.candidate_mapping,
            "observed_fidelity": {
                "baseline": report.traffic.fidelity_mean(canary=False),
                "canary": report.traffic.fidelity_mean(canary=True),
            },
            "true_fidelity": {
                "baseline": baseline_score,
                "candidate": candidate_score,
            },
            "tolerance": phase.tolerance,
            "decision": decision,
        }
        self.log(
            f"  canary {decision}: baseline={baseline_score} "
            f"candidate={candidate_score} tolerance={phase.tolerance}"
        )

    async def _run_chaos_phase(self, phase: PhaseSpec, report: PhaseReport) -> None:
        assert self.frontend is not None
        if phase.probe == "shard_kill":
            traffic = asyncio.create_task(self._traffic(phase.repeats))
            await asyncio.sleep(0.05)
            victim = phase.shard or next(iter(self.frontend.lanes))
            outcome = self.frontend.kill_shard(victim)
            records = await traffic
            rejoined = await self._await_rejoin(victim)
            report.chaos = {"probe": "shard_kill", **outcome, "rejoined": rejoined}
        elif phase.probe == "calibration_storm":
            traffic = asyncio.create_task(self._traffic(phase.repeats))
            acked = 0
            for _ in range(phase.ticks):
                acked += await self._tick_all()
            records = await traffic
            total = phase.ticks * len(self.clocks)
            report.chaos = {
                "probe": "calibration_storm",
                "ticks": total,
                "coherent_acks": acked,
            }
            report.verdicts["coherent_acks"] = {
                "ok": acked == total, "value": acked, "limit": total,
            }
        elif phase.probe == "corrupt_cache":
            corrupted = await asyncio.get_running_loop().run_in_executor(
                None, self._corrupt_store, phase.entries
            )
            records = await self._traffic(phase.repeats)
            report.chaos = {"probe": "corrupt_cache", "entries_corrupted": corrupted}
        else:  # pragma: no cover - parse-time rejected
            raise AssertionError(f"unknown probe {phase.probe!r}")
        report.traffic = TrafficStats(records)

    # -- the moving parts -----------------------------------------------------

    async def _traffic(self, repeats: int) -> list[TrafficRecord]:
        """One traffic wave at the current workload; stale-marks the records."""
        assert self.frontend is not None
        plan = build_plan(self.spec.devices, self.workload, repeats)
        records = await run_traffic(
            self.frontend.address, plan, concurrency=self.workload.concurrency
        )
        for record in records:
            retired_at = self.retired.get(record.fingerprint)
            record.stale = (
                record.ok
                and retired_at is not None
                and record.started_at > retired_at
            )
        return records

    async def _tick_all(self) -> int:
        """One drift tick on every device's clock; returns coherent acks."""
        acked = 0
        for key in self.clocks:
            if await self._drift_tick(key):
                acked += 1
        return acked

    async def _drift_tick(self, key: tuple) -> bool:
        """Advance one device an epoch and fan the calibration out.

        The payload carries a pre-warm spec for the current workload, so
        every shard rebuilds the device's targets and re-compiles the
        workload circuits for the *new* fingerprint before its swap -- the
        recalibration cost lands off the request path.  Only after the
        coherent ack is the old fingerprint marked retired.
        """
        assert self.frontend is not None
        clock = self.clocks[key]
        device_spec = self.device_specs[key]
        old_fingerprint = clock.fingerprint
        payload, _events = clock.tick()
        message = {
            "topology": device_spec.topology,
            "device_seed": device_spec.device_seed,
            "coherence_us": device_spec.coherence_us,
            "gate_ns": device_spec.gate_ns,
            **payload,
            "prewarm": {
                "circuits": list(self.workload.circuits),
                "strategies": list(self.workload.strategies),
                "mapping": self.workload.mapping,
                "seed": self.workload.seed,
            },
        }
        envelope = await self.frontend.fan_out_calibration(message)
        coherent = bool(envelope.get("ok"))
        self.drift_ticks_total += 1
        if coherent:
            self.drift_ticks_acked += 1
        self.retired[old_fingerprint] = time.monotonic()
        self.expected[key] = clock.fingerprint
        return coherent

    async def _await_rejoin(self, shard: str, timeout_s: float = 30.0) -> bool:
        """Wait for a killed shard's supervisor to bring it back on the ring.

        Verified by an actual wire ``ping``, not the process flag: right
        after a SIGKILL there is a window where the supervisor has not yet
        observed the death, the shard is not marked down, and the process
        object still reads alive -- trusting that would let the next phase
        fan a calibration out to a corpse.
        """
        assert self.frontend is not None
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if shard not in self.frontend.down_shards and (
                await self.frontend.ping_shard(shard)
            ):
                return True
            await asyncio.sleep(0.05)
        return False

    def _corrupt_store(self, entries: int) -> int:
        """Truncate/garble up to ``entries`` on-disk cache files.

        Hits both the target store and the program store.  The cache layers
        treat unreadable entries as misses (re-validated field by field on
        load), so the expected blast radius is rebuild cost, never a wrong
        or failed response.
        """
        victims = sorted(self.store_dir.glob("*.json"))
        victims += sorted((self.store_dir / "programs").glob("*.json"))
        corrupted = 0
        for path in victims[:entries]:
            path.write_text('{"corrupt": tru')
            corrupted += 1
        return corrupted

    def _true_fidelity(self, strategies, mapping: str) -> float | None:
        """Mean *true* fidelity of the workload under one configuration.

        Compiles the workload circuits against each device's drifted shadow
        (the runner-side source of truth for current calibration) and scores
        with :func:`drifted_circuit_fidelity` -- the same miscalibration-
        aware measure the drift sweeps report.  Runs on an executor thread.
        """
        scores: list[float] = []
        for clock in self.clocks.values():
            shadow = clock.shadow
            fingerprint = device_fingerprint(shadow)
            targets = {}
            for strategy in strategies:
                targets[strategy] = get_target(
                    self._targets, shadow, strategy, fingerprint
                )[0]
            context = DispatchContext(
                shadow,
                targets,
                mapping=mapping,
                seed=self.workload.seed,
                key=(fingerprint, tuple(strategies), mapping, self.workload.seed),
            )
            circuits = [build_circuit(name) for name in self.workload.circuits]
            for compiled in self._eval_dispatcher.dispatch(circuits, context):
                for strategy, one in compiled.items():
                    scores.append(
                        drifted_circuit_fidelity(one, shadow, targets[strategy])
                    )
        return sum(scores) / len(scores) if scores else None


async def run_scenario(
    spec: ScenarioSpec, store_dir: str | Path, log=None
) -> ScenarioReport:
    """Execute one scenario; the coroutine form of ``python -m repro.ops run``."""
    return await ScenarioRunner(spec, store_dir, log=log).run()
