"""The drift sweep: evolve a device over epochs, recalibrate, measure.

:func:`run_drift_sweep` is the engine's entry point.  For every
recalibration policy in the spec it instantiates the *same* seeded device,
subjects it to the *same* seeded drift trajectory (see
:mod:`repro.drift.models`), and at every epoch

1. lets the policy inspect the predicted per-edge losses and act --
   rebuilding targets through the layered caches (full), grafting fresh
   selections onto the stale snapshot (selective), or rescaling durations
   (retune);
2. compiles the benchmark suite against the policy's current targets
   through the shared dispatch core
   (:class:`~repro.compiler.pipeline.dispatch.BatchDispatcher` -- the same
   engine behind ``transpile_batch``, the fleet sweep and the service);
3. evaluates the **true** fidelity of each compiled circuit on the drifted
   device (:func:`drifted_circuit_fidelity`): the coherence-limited product
   *times* the per-application process fidelity between each selection's
   intended unitary and what the drifted Hamiltonian actually produces at
   the stored pulse duration.  The gap between believed (coherence-only)
   and true fidelity is exactly the miscalibration cost of stale
   selections.

Per-epoch records carry the drift events, the policy's action, which cache
layer served each target (memory / disk / built) and the per-layer hit
deltas, so the result quantifies recalibration *cost* next to
recalibration *benefit* (fidelity recovered).  ``recalibrations`` /
``edges_recalibrated`` / ``retunes`` are the order-independent cost
counters; with a shared ``cache_dir`` the build-vs-disk-hit *attribution*
depends on policy order, because every policy sees the identical drift
trajectory -- a policy recalibrating at an epoch another policy already
recalibrated against is served from disk (content addressing at work, and
deliberately so: the same property is what lets a restarted service skip
rebuilding).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.calibration.protocol import retune_selection
from repro.compiler.cost import validate_mapping
from repro.compiler.pipeline.dispatch import BatchDispatcher, DispatchContext
from repro.compiler.pipeline.registry import validate_strategy
from repro.compiler.pipeline.target import Target
from repro.device.device import Device
from repro.drift.models import DriftEvent, parse_drift_model, apply_drift
from repro.drift.policies import (
    RecalibrationPolicy,
    parse_policy,
    predicted_edge_losses,
    summarize_losses,
)
from repro.fleet.cache import TARGET_CODEC, get_target
from repro.fleet.devices import device_fingerprint, make_device
from repro.fleet.spec import TopologySpec
from repro.fleet.sweep import build_circuit
from repro.gates.unitary import process_fidelity
from repro.store import ContentStore

Edge = tuple[int, int]

#: Default policy set: the degradation baseline, the recovery oracle, and a
#: prediction-triggered policy between them.
DEFAULT_POLICIES = ("never", "always", "threshold:0.001")


@dataclass(frozen=True)
class DriftSpec:
    """One drift scenario: a device, a drift mix, policies to compare.

    Attributes:
        topology: connectivity of the simulated device.
        device_seed: frequency-draw seed (same axes as the fleet engine).
        epochs: number of discrete time steps; epoch 0 is the freshly
            calibrated state, drift applies from epoch 1 on.
        drift: drift-model spec strings (see
            :func:`repro.drift.models.parse_drift_model`), applied in order
            every epoch.
        policies: recalibration-policy spec strings (see
            :func:`repro.drift.policies.parse_policy`); each runs against an
            identical drift trajectory.
        strategies: basis-gate selection strategies to track.
        circuits: benchmark circuits compiled at every epoch (fleet names).
        mapping: layout/routing metric for compilation.
        compile_seed: layout/routing seed shared by every epoch.
        drift_seed: seeds the per-epoch drift RNG (independent of the
            device's fabrication seed).
        coherence_time_us, single_qubit_gate_ns: initial device constants.
        cache_dir: when set, full recalibrations run through the target
            store's on-disk layer under its in-memory LRU, and the per-epoch
            records report both layers' churn.
        hot_capacity: bound of the in-memory hot target LRU.
        executor, max_workers: dispatch fan-out (as in ``FleetSpec``).
    """

    topology: TopologySpec
    device_seed: int = 11
    epochs: int = 6
    drift: tuple[str, ...] = ("ou:sigma_ghz=0.05",)
    policies: tuple[str, ...] = DEFAULT_POLICIES
    strategies: tuple[str, ...] = ("criterion2",)
    circuits: tuple[str, ...] = ("ghz_4", "qft_4")
    mapping: str = "hop_count"
    compile_seed: int = 17
    drift_seed: int = 99
    coherence_time_us: float = 80.0
    single_qubit_gate_ns: float = 20.0
    cache_dir: str | None = None
    hot_capacity: int = 16
    executor: str = "thread"
    max_workers: int | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if not self.drift:
            raise ValueError("DriftSpec needs at least one drift model")
        if not self.policies:
            raise ValueError("DriftSpec needs at least one policy")
        if not self.strategies or not self.circuits:
            raise ValueError("DriftSpec needs at least one strategy and circuit")
        if self.hot_capacity < 1:
            raise ValueError(f"hot_capacity must be positive, got {self.hot_capacity}")
        for text in self.drift:
            parse_drift_model(text)  # fail fast with a readable message
        labels = [parse_policy(text).label for text in self.policies]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate policies in {list(labels)}")
        for strategy in self.strategies:
            validate_strategy(strategy)
        validate_mapping(self.mapping)
        for name in self.circuits:
            circuit = build_circuit(name)
            if circuit.n_qubits > self.topology.n_qubits:
                raise ValueError(
                    f"circuit {name!r} needs {circuit.n_qubits} qubits but "
                    f"topology {self.topology.label!r} has {self.topology.n_qubits}"
                )

    def to_dict(self) -> dict:
        """JSON-serializable echo of the spec for result files."""
        return {
            "topology": self.topology.label,
            "device_seed": self.device_seed,
            "epochs": self.epochs,
            "drift": list(self.drift),
            "policies": list(self.policies),
            "strategies": list(self.strategies),
            "circuits": list(self.circuits),
            "mapping": self.mapping,
            "compile_seed": self.compile_seed,
            "drift_seed": self.drift_seed,
            "coherence_time_us": self.coherence_time_us,
            "single_qubit_gate_ns": self.single_qubit_gate_ns,
            "cache_dir": self.cache_dir,
            "hot_capacity": self.hot_capacity,
            "executor": self.executor,
            "max_workers": self.max_workers,
        }


def drifted_circuit_fidelity(compiled, device: Device, target: Target) -> float:
    """True fidelity of a compiled circuit on a (possibly drifted) device.

    The coherence-limited fidelity at the device's *current* coherence time,
    multiplied by the per-application process fidelity between each
    two-qubit block's intended basis gate (the unitary its decomposition was
    derived for) and what the device's current Hamiltonian produces when
    driven for the stored pulse duration.  On a freshly calibrated device
    the product term is 1 and this reduces to the paper's fidelity model;
    after drift it charges stale selections for their miscalibration.
    """
    fidelity = compiled.coherence_limited_fidelity(device.coherence_time_ns)
    per_edge: dict[Edge, float] = {}
    for op in compiled.operations:
        if op.kind != "2q" or op.edge is None or op.layers <= 0:
            continue
        a, b = op.edge
        key = (a, b) if a < b else (b, a)
        if key not in per_edge:
            selection = target.selections.get(key)
            if selection is None or selection.unitary is None:
                per_edge[key] = 1.0
            else:
                model = device.entangler_model(key, target.drive_amplitude)
                per_edge[key] = float(
                    min(
                        1.0,
                        process_fidelity(
                            selection.unitary, model.unitary(selection.duration)
                        ),
                    )
                )
        fidelity *= per_edge[key] ** op.layers
    return float(fidelity)


@dataclass
class EpochRecord:
    """Everything observed at one epoch of one policy's run."""

    epoch: int
    drift_events: list[DriftEvent]
    action: str
    reason: str
    predicted_loss_mean: float
    predicted_loss_max: float
    edges_recalibrated: int
    target_sources: dict[str, str]
    #: Per-strategy means over the circuit suite.
    strategies: dict[str, dict[str, float]]
    #: Per-layer cache activity during this epoch (deltas, not totals).
    cache: dict[str, int]

    def as_dict(self) -> dict:
        """Plain-data row for JSON results (schema in docs/drift.md)."""
        return {
            "epoch": self.epoch,
            "drift_events": [event.as_dict() for event in self.drift_events],
            "action": self.action,
            "reason": self.reason,
            "predicted_loss": {
                "mean": self.predicted_loss_mean,
                "max": self.predicted_loss_max,
            },
            "edges_recalibrated": self.edges_recalibrated,
            "target_sources": dict(self.target_sources),
            "strategies": {name: dict(row) for name, row in self.strategies.items()},
            "cache": dict(self.cache),
        }


@dataclass
class PolicyRun:
    """One policy's full trace over every epoch."""

    policy: str
    epochs: list[EpochRecord]
    recalibrations: int = 0
    selective_edges: int = 0
    retunes: int = 0
    cache: dict = field(default_factory=dict)

    def final_true_fidelity(self, strategy: str | None = None) -> float:
        """Mean true fidelity at the last epoch (over strategies when None)."""
        last = self.epochs[-1].strategies
        rows = [last[strategy]] if strategy is not None else list(last.values())
        return float(np.mean([row["true_fidelity_mean"] for row in rows]))

    def as_dict(self) -> dict:
        """Plain-data form for JSON results."""
        return {
            "policy": self.policy,
            "recalibrations": self.recalibrations,
            "selective_edges": self.selective_edges,
            "retunes": self.retunes,
            "final_true_fidelity": self.final_true_fidelity(),
            "epochs": [record.as_dict() for record in self.epochs],
            "cache": dict(self.cache),
        }


@dataclass
class DriftResult:
    """Everything one :func:`run_drift_sweep` produced."""

    spec: DriftSpec
    runs: dict[str, PolicyRun]

    def recovery(
        self,
        policy: str,
        strategy: str | None = None,
        baseline: str = "never",
        oracle: str = "always",
    ) -> float:
        """Fraction of the baseline's final-epoch fidelity loss a policy recovers.

        ``(F_policy - F_baseline) / (F_oracle - F_baseline)`` at the last
        epoch: 0 means no better than never recalibrating, 1 means as good
        as recalibrating every epoch.  Raises ``KeyError`` when the needed
        policies were not part of the sweep; returns 1.0 when the baseline
        lost nothing (there was nothing to recover).
        """
        f_policy = self.runs[policy].final_true_fidelity(strategy)
        f_baseline = self.runs[baseline].final_true_fidelity(strategy)
        f_oracle = self.runs[oracle].final_true_fidelity(strategy)
        lost = f_oracle - f_baseline
        if lost <= 0:
            return 1.0
        return float((f_policy - f_baseline) / lost)

    def to_dict(self) -> dict:
        """Machine-readable form (schema documented in docs/drift.md)."""
        summary: dict = {
            "final_true_fidelity": {
                label: run.final_true_fidelity() for label, run in self.runs.items()
            }
        }
        if "never" in self.runs and "always" in self.runs:
            summary["recovery"] = {
                label: self.recovery(label) for label in self.runs
            }
        return {
            "spec": self.spec.to_dict(),
            "policies": {label: run.as_dict() for label, run in self.runs.items()},
            "summary": summary,
        }

    def write_json(self, path: str | Path) -> Path:
        """Write :meth:`to_dict` to disk (creating parent directories)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path

    def format_table(self) -> str:
        """Human-readable per-policy summary of the sweep."""
        width = max([8] + [len(label) for label in self.runs])
        has_reference = "never" in self.runs and "always" in self.runs
        header = (
            f"{'Policy':<{width}} {'recals':>7} {'sel edges':>10} {'retunes':>8} "
            f"{'final fid':>10}" + (f" {'recovered':>10}" if has_reference else "")
        )
        lines = [header, "-" * len(header)]
        for label, run in self.runs.items():
            line = (
                f"{label:<{width}} {run.recalibrations:>7d} "
                f"{run.selective_edges:>10d} {run.retunes:>8d} "
                f"{run.final_true_fidelity():>10.4f}"
            )
            if has_reference:
                line += f" {self.recovery(label) * 100:>9.1f}%"
            lines.append(line)
        return "\n".join(lines)


def _capture_reference_rates(
    device: Device, targets: dict[str, Target], edges: list[Edge] | None = None
) -> dict[tuple[str, Edge], float]:
    """Per-(strategy, edge) XY rates at calibration time (the retune anchor)."""
    rates: dict[tuple[str, Edge], float] = {}
    for strategy, target in targets.items():
        for edge in edges if edges is not None else list(target.selections):
            rates[(strategy, edge)] = device.entangler_model(
                edge, target.drive_amplitude
            ).xy_rate
    return rates


def _run_policy(spec: DriftSpec, policy: RecalibrationPolicy) -> PolicyRun:
    device = make_device(
        spec.topology,
        spec.device_seed,
        coherence_time_us=spec.coherence_time_us,
        single_qubit_gate_ns=spec.single_qubit_gate_ns,
    )
    models = [parse_drift_model(text) for text in spec.drift]
    hot = ContentStore(TARGET_CODEC, spec.hot_capacity, spec.cache_dir)
    circuits = [build_circuit(name) for name in spec.circuits]

    targets: dict[str, Target] = {}
    sources: dict[str, str] = {}
    reference_rates: dict[tuple[str, Edge], float] = {}

    run = PolicyRun(policy=policy.label, epochs=[])
    with BatchDispatcher(
        executor=spec.executor, max_workers=spec.max_workers
    ) as dispatcher:
        for epoch in range(spec.epochs):
            before = asdict(hot.stats)
            events: list[DriftEvent] = []
            action, reason = "none", "initial calibration"
            loss_mean = loss_max = 0.0
            edges_recalibrated = 0
            if epoch == 0:
                fingerprint = device_fingerprint(device)
                for strategy in spec.strategies:
                    targets[strategy], sources[strategy] = get_target(
                        hot, device, strategy, fingerprint
                    )
                reference_rates = _capture_reference_rates(device, targets)
            else:
                events = apply_drift(device, models, epoch, spec.drift_seed)
                losses = predicted_edge_losses(device, targets)
                loss_mean, loss_max = summarize_losses(losses)
                plan = policy.plan(epoch, losses)
                action, reason = plan.action, plan.reason
                if plan.action == "full":
                    # Drift already invalidated the device (one epoch bump per
                    # apply_drift); rebuilding through the store is therefore
                    # equivalent to a refresh=True rebuild minus the
                    # redundant second invalidation.
                    fingerprint = device_fingerprint(device)
                    for strategy in spec.strategies:
                        targets[strategy], sources[strategy] = get_target(
                            hot, device, strategy, fingerprint
                        )
                    reference_rates = _capture_reference_rates(device, targets)
                    run.recalibrations += 1
                    edges_recalibrated = len(device.edges()) * len(spec.strategies)
                elif plan.action == "selective":
                    for strategy in spec.strategies:
                        # A fresh lazy target resolves only the flagged edges
                        # (per-edge laziness is exactly what makes selective
                        # recalibration cheaper than a full rebuild).
                        fresh = Target.from_device(device, strategy)
                        updates = {
                            edge: fresh.basis_gate(edge) for edge in plan.edges
                        }
                        targets[strategy] = targets[strategy].with_selections(updates)
                        sources[strategy] = "selective"
                    reference_rates.update(
                        _capture_reference_rates(
                            device, targets, edges=list(plan.edges)
                        )
                    )
                    run.selective_edges += len(plan.edges) * len(spec.strategies)
                    edges_recalibrated = len(plan.edges) * len(spec.strategies)
                elif plan.action == "retune":
                    for strategy in spec.strategies:
                        target = targets[strategy]
                        updates = {
                            edge: retune_selection(
                                selection,
                                reference_rates[(strategy, edge)],
                                device.entangler_model(
                                    edge, target.drive_amplitude
                                ).xy_rate,
                            )
                            for edge, selection in target.selections.items()
                        }
                        targets[strategy] = target.with_selections(updates)
                        sources[strategy] = "retuned"
                    # The rescaled durations now match the *current* rates, so
                    # the retune anchor moves with them -- anchoring on the
                    # original rates would compound the rescale next time.
                    reference_rates = _capture_reference_rates(device, targets)
                    run.retunes += 1

            context = DispatchContext(
                device,
                dict(targets),
                mapping=spec.mapping,
                seed=spec.compile_seed,
                # Epoch in the key: the device mutates every epoch, so a
                # persistent process pool must rotate (re-ship device and
                # targets) rather than reuse pre-drift worker state.
                key=(policy.label, epoch, spec.strategies, spec.mapping),
            )
            batch = dispatcher.dispatch(circuits, context)

            per_strategy: dict[str, dict[str, float]] = {}
            for strategy in spec.strategies:
                true_fids, believed_fids, durations = [], [], []
                for compiled_by_strategy in batch:
                    compiled = compiled_by_strategy[strategy]
                    believed = compiled.coherence_limited_fidelity(
                        device.coherence_time_ns
                    )
                    true = drifted_circuit_fidelity(
                        compiled, device, targets[strategy]
                    )
                    believed_fids.append(believed)
                    true_fids.append(true)
                    durations.append(compiled.total_duration)
                per_strategy[strategy] = {
                    "true_fidelity_mean": float(np.mean(true_fids)),
                    "believed_fidelity_mean": float(np.mean(believed_fids)),
                    "miscalibration_loss_mean": float(
                        np.mean(believed_fids) - np.mean(true_fids)
                    ),
                    "duration_mean_ns": float(np.mean(durations)),
                }

            after = asdict(hot.stats)
            run.epochs.append(
                EpochRecord(
                    epoch=epoch,
                    drift_events=events,
                    action=action,
                    reason=reason,
                    predicted_loss_mean=loss_mean,
                    predicted_loss_max=loss_max,
                    edges_recalibrated=edges_recalibrated,
                    target_sources=dict(sources),
                    strategies=per_strategy,
                    cache={key: after[key] - before[key] for key in after},
                )
            )
    run.cache = hot.as_dict()
    return run


def run_drift_sweep(spec: DriftSpec) -> DriftResult:
    """Run every policy in the spec against an identical drift trajectory.

    Returns a :class:`DriftResult` whose ``summary`` block compares final
    true fidelities per policy and -- when the spec includes the ``never``
    baseline and the ``always`` oracle -- the fraction of the drift-induced
    fidelity loss each policy recovered.

    Example::

        from repro.drift import DriftSpec, run_drift_sweep
        from repro.fleet import TopologySpec

        spec = DriftSpec(topology=TopologySpec.parse("heavy_hex:2"),
                         epochs=6, drift=("ou:sigma_ghz=0.08",),
                         policies=("never", "always", "threshold:0.001"))
        result = run_drift_sweep(spec)
        print(result.format_table())
        result.recovery("threshold:0.001")   # fraction of lost fidelity won back
    """
    policies = [parse_policy(text) for text in spec.policies]
    runs = {policy.label: _run_policy(spec, policy) for policy in policies}
    return DriftResult(spec=spec, runs=runs)
