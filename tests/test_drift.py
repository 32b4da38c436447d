"""Tests for the calibration-drift engine: models, policies, staleness, CLI.

Covers the PR acceptance criterion directly: on a heavy-hex device under OU
frequency drift, threshold-triggered recalibration recovers at least half of
the fidelity lost by a never-recalibrate baseline at the final epoch
(``TestAcceptance.test_threshold_recovers_half_of_lost_fidelity``), plus the
staleness edges: a partially-resolved snapshot used after recalibration
raises, a process pool holding pre-drift targets is rotated, and warm
disk-cache entries for a drifted fingerprint are misses.
"""

import json

import numpy as np
import pytest

from repro.calibration import retune_selection
from repro.compiler.pipeline.dispatch import BatchDispatcher, DispatchContext
from repro.compiler.pipeline.target import Target, build_target
from repro.device import Device, DeviceParameters
from repro.drift import (
    DriftSpec,
    apply_drift,
    drifted_circuit_fidelity,
    parse_drift_model,
    parse_policy,
    predicted_edge_losses,
    run_drift_sweep,
    summarize_losses,
)
from repro.drift.__main__ import main as drift_main
from repro.fleet import TopologySpec, device_fingerprint
from repro.fleet.cache import TARGET_CODEC, get_target
from repro.fleet.sweep import build_circuit
from repro.store import ContentStore


def make_device(seed=11, topology="linear:4", **params):
    spec = TopologySpec.parse(topology)
    return Device(
        graph=spec.graph(), params=DeviceParameters(seed=seed, **params)
    )


class TestDriftModels:
    def test_parse_round_trip_and_errors(self):
        model = parse_drift_model("ou:sigma_ghz=0.05,reversion=0.2")
        assert model.name == "ou"
        assert model.sigma_ghz == 0.05 and model.reversion == 0.2
        assert parse_drift_model("tls").name == "tls"
        assert parse_drift_model("coherence:decay=0.1").decay == 0.1
        with pytest.raises(ValueError, match="unknown drift model"):
            parse_drift_model("cosmic_rays")
        with pytest.raises(ValueError, match="key=value"):
            parse_drift_model("ou:sigma")
        with pytest.raises(ValueError, match="not a number"):
            parse_drift_model("ou:sigma_ghz=abc")
        with pytest.raises(ValueError, match="bad parameters"):
            parse_drift_model("ou:wavelength=3")
        with pytest.raises(ValueError, match="reversion"):
            parse_drift_model("ou:reversion=2")

    def test_drift_is_deterministic_across_devices(self):
        """Two identically-seeded devices see byte-identical drift
        (fresh model instances per device, same drift seed)."""
        a, b = make_device(), make_device()
        model_a = parse_drift_model("ou:sigma_ghz=0.05")
        model_b = parse_drift_model("ou:sigma_ghz=0.05")
        for epoch in (1, 2, 3):
            apply_drift(a, [model_a], epoch, drift_seed=7)
            apply_drift(b, [model_b], epoch, drift_seed=7)
        assert a.frequencies == b.frequencies

    def test_one_epoch_bump_per_apply(self):
        device = make_device()
        models = [
            parse_drift_model("ou"),
            parse_drift_model("tls:rate=1.0"),
            parse_drift_model("coherence"),
        ]
        events = apply_drift(device, models, epoch=1, drift_seed=3)
        assert device.calibration_epoch == 1
        assert [event.model for event in events] == ["ou", "tls", "coherence"]

    def test_tls_jumps_mutate_scales_and_zz(self):
        device = make_device()
        scales_before = {e: device.deviation_scale(e) for e in device.edges()}
        apply_drift(device, [parse_drift_model("tls:rate=1.0")], 1, drift_seed=3)
        for edge in device.edges():
            assert device.deviation_scale(edge) > scales_before[edge]
            assert device.static_zz(edge) > 0.0

    def test_coherence_decay_respects_floor(self):
        device = make_device(coherence_time_us=10.0)
        model = parse_drift_model("coherence:decay=0.9,floor_us=5.0")
        for epoch in (1, 2, 3):
            apply_drift(device, [model], epoch, drift_seed=3)
        assert device.params.coherence_time_us == 5.0

    def test_ou_reversion_keeps_bands_apart(self):
        device = make_device()
        initial = dict(device.frequencies)
        model = parse_drift_model("ou:sigma_ghz=0.05,reversion=0.3")
        for epoch in range(1, 30):
            apply_drift(device, [model], epoch, drift_seed=5)
        for qubit, start in initial.items():
            assert abs(device.frequencies[qubit] - start) < 0.8


class TestDeviceCalibrationUpdates:
    def test_update_validates_labels_and_edges(self):
        device = make_device()
        with pytest.raises(ValueError, match="unknown qubit label"):
            device.update_calibration(frequency_shifts={99: 0.1})
        with pytest.raises(ValueError, match="not an edge"):
            device.update_calibration(static_zz={(0, 3): 0.1})
        with pytest.raises(ValueError, match="coherence_time_us"):
            device.update_calibration(coherence_time_us=-1.0)
        assert device.calibration_epoch == 0  # nothing applied

    def test_update_is_atomic_on_bad_values(self):
        """A non-numeric value must fail *before* any mutation: a partial
        drift with no epoch bump would serve stale caches as fresh."""
        device = make_device()
        before = dict(device.frequencies)
        with pytest.raises(ValueError, match="must be numbers"):
            device.update_calibration(frequencies={0: 4.7, 1: "fast"})
        assert device.frequencies == before
        assert device.calibration_epoch == 0

    def test_update_mutates_and_invalidates(self):
        device = make_device()
        before = device.frequencies[0]
        device.update_calibration(
            frequency_shifts={0: 0.05},
            coherence_time_us=70.0,
            static_zz={(0, 1): 0.001},
        )
        assert device.frequencies[0] == pytest.approx(before + 0.05)
        assert device.params.coherence_time_us == 70.0
        assert device.static_zz((1, 0)) == 0.001  # order-insensitive
        assert device.calibration_epoch == 1

    def test_static_zz_survives_pickling(self):
        import pickle

        device = make_device()
        device.update_calibration(static_zz={(0, 1): 0.002})
        clone = pickle.loads(pickle.dumps(device))
        assert clone.static_zz((0, 1)) == 0.002
        assert device_fingerprint(clone) == device_fingerprint(device)

    def test_static_zz_enters_the_entangler_model(self):
        device = make_device()
        base = device.entangler_model((0, 1), 0.04).zz_rate
        device.update_calibration(static_zz={(0, 1): 0.005})
        assert device.entangler_model((0, 1), 0.04).zz_rate == pytest.approx(
            base + 0.005
        )


class TestPolicies:
    def test_parse_labels_round_trip(self):
        for text, label in [
            ("never", "never"),
            ("always", "always"),
            ("periodic:3", "periodic:3"),
            ("threshold:0.001", "threshold:0.001"),
            ("selective:0.002", "selective:0.002"),
            ("retune:0.001", "retune:0.001"),
        ]:
            assert parse_policy(text).label == label
        with pytest.raises(ValueError, match="unknown recalibration policy"):
            parse_policy("sometimes")
        with pytest.raises(ValueError, match="cannot parse policy"):
            parse_policy("periodic:often")
        with pytest.raises(ValueError, match="positive"):
            parse_policy("threshold:-1")

    def test_threshold_and_selective_plans(self):
        losses = {"criterion2": {(0, 1): 0.005, (1, 2): 1e-6}}
        assert parse_policy("threshold:0.001").plan(1, losses).action == "full"
        assert parse_policy("threshold:0.1").plan(1, losses).action == "none"
        plan = parse_policy("selective:0.001").plan(1, losses)
        assert plan.action == "selective" and plan.edges == ((0, 1),)
        assert parse_policy("never").plan(1, losses).action == "none"
        assert parse_policy("always").plan(5, losses).action == "full"
        periodic = parse_policy("periodic:2")
        assert periodic.plan(2, losses).action == "full"
        assert periodic.plan(3, losses).action == "none"

    def test_predicted_losses_zero_on_fresh_device(self):
        device = make_device()
        target = build_target(device, "criterion2").complete()
        losses = predicted_edge_losses(device, {"criterion2": target})
        mean, peak = summarize_losses(losses)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert peak == pytest.approx(0.0, abs=1e-12)

    def test_predicted_losses_grow_with_drift(self):
        device = make_device()
        target = build_target(device, "criterion2").complete()
        apply_drift(device, [parse_drift_model("ou:sigma_ghz=0.1")], 1, drift_seed=3)
        mean, peak = summarize_losses(
            predicted_edge_losses(device, {"criterion2": target})
        )
        assert peak > mean > 0.0


class TestRetune:
    def test_retune_selection_rescales_duration_only(self):
        device = make_device()
        selection = build_target(device, "criterion2").basis_gate((0, 1))
        retuned = retune_selection(selection, 0.08, 0.04)
        assert retuned.duration == pytest.approx(2.0 * selection.duration)
        assert retuned.coordinates == selection.coordinates
        assert np.array_equal(retuned.unitary, selection.unitary)
        with pytest.raises(ValueError, match="positive"):
            retune_selection(selection, 0.0, 0.04)

    def test_retune_cancels_pure_frequency_drift(self):
        """Frequency drift rescales J and K together, so retune is ~exact."""
        device = make_device()
        target = build_target(device, "criterion2").complete()
        edge = (0, 1)
        reference_rate = device.entangler_model(edge, target.drive_amplitude).xy_rate
        device.update_calibration(frequency_shifts={0: 0.15})
        model = device.entangler_model(edge, target.drive_amplitude)
        stale = target.selections[edge]
        stale_loss = 1 - abs(
            np.trace(stale.unitary.conj().T @ model.unitary(stale.duration))
        ) ** 2 / 16
        retuned = retune_selection(stale, reference_rate, model.xy_rate)
        retuned_loss = 1 - abs(
            np.trace(retuned.unitary.conj().T @ model.unitary(retuned.duration))
        ) ** 2 / 16
        assert stale_loss > 1e-5
        assert retuned_loss < stale_loss * 1e-3


class TestStalenessEdges:
    """The PR's staleness satellite: stale snapshots must fail loudly."""

    def test_partial_snapshot_raises_after_drift(self):
        device = make_device()
        target = build_target(device, "criterion2")
        target.basis_gate((0, 1))  # resolve one edge pre-drift
        apply_drift(device, [parse_drift_model("ou")], 1, drift_seed=3)
        with pytest.raises(RuntimeError, match="recalibrated"):
            target.basis_gate((1, 2))
        with pytest.raises(RuntimeError, match="recalibrated"):
            target.complete()
        # a rebuilt target resolves fine
        assert build_target(device, "criterion2").basis_gate((1, 2)) is not None

    def test_detached_partial_snapshot_raises_after_recalibration(self):
        device = make_device()
        target = Target.from_device(device, "criterion2")
        target.basis_gate((0, 1))
        apply_drift(device, [parse_drift_model("ou")], 1, drift_seed=3)
        del device  # detach: the backing device is collected
        with pytest.raises(RuntimeError, match="detached"):
            target.basis_gate((1, 2))
        with pytest.raises(RuntimeError, match="detached"):
            target.complete()

    def test_completed_snapshot_stays_serviceable_after_drift(self):
        """The never-recalibrate baseline depends on exactly this."""
        device = make_device()
        target = build_target(device, "criterion2").complete()
        apply_drift(device, [parse_drift_model("ou")], 1, drift_seed=3)
        assert target.basis_gate((0, 1)) is not None  # memoised, consistent

    def test_warm_disk_cache_misses_after_drift(self, tmp_path):
        device = make_device()
        get_target(ContentStore(TARGET_CODEC, 4, tmp_path), device, "criterion2")
        warm = ContentStore(TARGET_CODEC, 4, tmp_path)
        assert get_target(warm, device, "criterion2")[1] == "disk"
        apply_drift(device, [parse_drift_model("ou:sigma_ghz=0.05")], 1, drift_seed=3)
        rebuilt, source = get_target(warm, device, "criterion2")
        assert source == "built"  # drifted key: miss
        fresh = ContentStore(TARGET_CODEC, 4, tmp_path)
        assert get_target(fresh, device, "criterion2") == (rebuilt, "disk")

    def test_hot_cache_invalidate_fingerprint(self, tmp_path):
        hot = ContentStore(TARGET_CODEC, 8, tmp_path)
        device = make_device()
        fingerprint = device_fingerprint(device)
        get_target(hot, device, "criterion2", fingerprint)
        get_target(hot, device, "baseline", fingerprint)
        assert len(hot) == 2
        assert hot.invalidate_prefix(f"{fingerprint}-") == 2
        assert len(hot) == 0
        assert hot.invalidate_prefix(f"{fingerprint}-") == 0  # idempotent
        assert hot.stats.invalidated == 2

    def test_process_pool_rotates_on_drifted_context_key(self):
        """A pickled worker holding a pre-drift target is re-initialized,
        not silently reused, when the context key carries the new state."""
        device = make_device()
        circuits = [build_circuit("ghz_3"), build_circuit("bv_3")]
        with BatchDispatcher(executor="process", max_workers=2) as dispatcher:
            targets = {"criterion2": build_target(device, "criterion2").complete()}
            fingerprint = device_fingerprint(device)
            context = DispatchContext(
                device, targets, seed=17, key=("drift-test", fingerprint)
            )
            before = dispatcher.dispatch(circuits, context)
            pool_before = dispatcher._process_pool
            assert dispatcher._process_key == ("drift-test", fingerprint)

            # same key -> the pool (and its worker state) is reused
            dispatcher.dispatch(circuits, context)
            assert dispatcher._process_pool is pool_before

            apply_drift(
                device, [parse_drift_model("ou:sigma_ghz=0.1")], 1, drift_seed=3
            )
            fresh = {"criterion2": build_target(device, "criterion2").complete()}
            new_fingerprint = device_fingerprint(device)
            assert new_fingerprint != fingerprint
            rotated = DispatchContext(
                device, fresh, seed=17, key=("drift-test", new_fingerprint)
            )
            after = dispatcher.dispatch(circuits, rotated)
            assert dispatcher._process_pool is not pool_before
            assert dispatcher._process_key == ("drift-test", new_fingerprint)
            # the rotated pool compiled against the *new* calibration:
            # byte-identical to an in-process compile with the fresh targets
            serial = [rotated.compile_one(circuit) for circuit in circuits]
            for got, want in zip(after, serial):
                assert got["criterion2"].summary() == want["criterion2"].summary()
            # and the pre-drift results came from different selections
            assert any(
                before[i]["criterion2"].summary() != after[i]["criterion2"].summary()
                for i in range(len(circuits))
            )


class TestDriftedFidelity:
    def test_reduces_to_paper_model_when_fresh(self):
        device = make_device()
        target = build_target(device, "criterion2").complete()
        context = DispatchContext(device, {"criterion2": target}, seed=17)
        compiled = context.compile_one(build_circuit("ghz_4"))["criterion2"]
        assert drifted_circuit_fidelity(compiled, device, target) == pytest.approx(
            compiled.fidelity
        )

    def test_stale_target_loses_fidelity_and_recalibration_restores(self):
        device = make_device()
        stale = build_target(device, "criterion2").complete()
        context = DispatchContext(device, {"criterion2": stale}, seed=17)
        compiled = context.compile_one(build_circuit("ghz_4"))["criterion2"]
        apply_drift(
            device, [parse_drift_model("ou:sigma_ghz=0.15")], 1, drift_seed=3
        )
        true_stale = drifted_circuit_fidelity(compiled, device, stale)
        believed = compiled.coherence_limited_fidelity(device.coherence_time_ns)
        assert true_stale < believed  # miscalibration charged

        fresh = build_target(device, "criterion2").complete()
        recompiled = DispatchContext(
            device, {"criterion2": fresh}, seed=17
        ).compile_one(build_circuit("ghz_4"))["criterion2"]
        true_fresh = drifted_circuit_fidelity(recompiled, device, fresh)
        assert true_fresh == pytest.approx(
            recompiled.coherence_limited_fidelity(device.coherence_time_ns)
        )
        assert true_fresh > true_stale


class TestDriftSpecAndSweep:
    def test_spec_validation_fails_fast(self):
        topology = TopologySpec.parse("linear:4")
        with pytest.raises(ValueError, match="unknown drift model"):
            DriftSpec(topology=topology, drift=("entropy",))
        with pytest.raises(ValueError, match="unknown recalibration policy"):
            DriftSpec(topology=topology, policies=("sometimes",))
        with pytest.raises(ValueError, match="duplicate policies"):
            DriftSpec(topology=topology, policies=("always", "periodic:1"))
        with pytest.raises(ValueError, match="needs 10 qubits"):
            DriftSpec(topology=topology, circuits=("ghz_10",))
        with pytest.raises(ValueError, match="epochs"):
            DriftSpec(topology=topology, epochs=0)
        with pytest.raises(ValueError, match="unknown strategy"):
            DriftSpec(topology=topology, strategies=("criterion9",))

    def test_sweep_records_and_json_schema(self, tmp_path):
        spec = DriftSpec(
            topology=TopologySpec.parse("linear:4"),
            epochs=3,
            drift=("ou:sigma_ghz=0.08",),
            policies=("never", "always", "selective:1e-6", "retune:1e-6"),
            strategies=("criterion2",),
            circuits=("ghz_3",),
            cache_dir=str(tmp_path / "cache"),
        )
        result = run_drift_sweep(spec)
        assert set(result.runs) == {"never", "always", "selective:1e-06", "retune:1e-06"}

        never = result.runs["never"]
        assert [r.epoch for r in never.epochs] == [0, 1, 2]
        assert never.recalibrations == 0
        assert never.epochs[0].action == "none"
        assert never.epochs[0].cache["misses"] == 1  # initial calibration
        assert never.epochs[1].drift_events[0].model == "ou"
        assert never.epochs[-1].predicted_loss_mean > 0

        always = result.runs["always"]
        assert always.recalibrations == 2
        # policy 'never' ran first and populated the shared disk cache only
        # for the *initial* fingerprint; 'always' hits disk there and builds
        # (misses) for each drifted fingerprint -- content addressing.
        assert always.epochs[0].cache["disk_hits"] == 1
        assert always.epochs[1].cache["misses"] == 1
        assert always.epochs[1].cache == {
            "memory_hits": 0, "disk_hits": 0, "misses": 1, "invalidated": 0,
        }
        assert always.epochs[1].target_sources == {"criterion2": "built"}

        selective = result.runs["selective:1e-06"]
        assert selective.selective_edges > 0
        assert selective.epochs[1].target_sources == {"criterion2": "selective"}
        retune = result.runs["retune:1e-06"]
        assert retune.retunes == 2
        assert retune.epochs[1].target_sources == {"criterion2": "retuned"}

        document = result.to_dict()
        json.dumps(document)  # must be JSON-serializable
        assert set(document) == {"spec", "policies", "summary"}
        assert document["spec"]["topology"] == "linear:4"
        assert set(document["summary"]["recovery"]) == set(result.runs)
        assert document["summary"]["recovery"]["never"] == 0.0
        assert document["summary"]["recovery"]["always"] == 1.0
        epoch_row = document["policies"]["never"]["epochs"][1]
        assert set(epoch_row) == {
            "epoch",
            "drift_events",
            "action",
            "reason",
            "predicted_loss",
            "edges_recalibrated",
            "target_sources",
            "strategies",
            "cache",
        }
        strategy_row = epoch_row["strategies"]["criterion2"]
        assert set(strategy_row) == {
            "true_fidelity_mean",
            "believed_fidelity_mean",
            "miscalibration_loss_mean",
            "duration_mean_ns",
        }

        path = result.write_json(tmp_path / "out" / "drift.json")
        assert json.loads(path.read_text()) == document

    def test_identical_drift_across_policies(self):
        """Every policy must see the same drift trajectory (seeded)."""
        spec = DriftSpec(
            topology=TopologySpec.parse("linear:4"),
            epochs=3,
            drift=("ou:sigma_ghz=0.08", "coherence:decay=0.05"),
            policies=("never", "always"),
            strategies=("criterion2",),
            circuits=("ghz_3",),
        )
        result = run_drift_sweep(spec)
        for a, b in zip(
            result.runs["never"].epochs, result.runs["always"].epochs
        ):
            assert [e.as_dict() for e in a.drift_events] == [
                e.as_dict() for e in b.drift_events
            ]


class TestAcceptance:
    def test_threshold_recovers_half_of_lost_fidelity(self):
        """The PR acceptance criterion: heavy-hex + OU drift, threshold
        recalibration recovers >= half of the never-baseline's loss."""
        spec = DriftSpec(
            topology=TopologySpec.parse("heavy_hex:2"),
            device_seed=11,
            epochs=6,
            drift=("ou:sigma_ghz=0.08", "coherence:decay=0.02"),
            policies=("never", "always", "threshold:0.001"),
            strategies=("criterion2",),
            circuits=("ghz_4", "qft_4"),
        )
        result = run_drift_sweep(spec)
        never = result.runs["never"]
        always = result.runs["always"]
        # drift must actually hurt, or the criterion is vacuous
        lost = always.final_true_fidelity() - never.final_true_fidelity()
        assert lost > 0.01
        assert never.epochs[-1].strategies["criterion2"][
            "miscalibration_loss_mean"
        ] > 0.01
        assert result.recovery("threshold:0.001") >= 0.5
        assert result.runs["threshold:0.001"].recalibrations <= always.recalibrations


class TestDriftCli:
    def test_cli_json_output(self, tmp_path, capsys):
        out = tmp_path / "drift.json"
        result = drift_main(
            [
                "--topology",
                "linear:4",
                "--epochs",
                "2",
                "--drift",
                "ou:sigma_ghz=0.05",
                "--policies",
                "never",
                "always",
                "--strategies",
                "criterion2",
                "--circuits",
                "ghz_3",
                "--output",
                str(out),
            ]
        )
        stdout = capsys.readouterr().out
        assert "Policy" in stdout and "recovered" in stdout
        document = json.loads(out.read_text())
        assert document["spec"]["epochs"] == 2
        assert set(document["policies"]) == {"never", "always"}
        assert result.runs["always"].recalibrations == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--topology", "triangular:3"], "cannot parse topology"),
            (["--drift", "entropy"], "unknown drift model"),
            (["--policies", "sometimes"], "unknown recalibration policy"),
            (["--circuits", "ghz_99"], "needs 99 qubits"),
            (["--epochs", "0"], "epochs must be positive"),
        ],
    )
    def test_malformed_specs_exit_2_with_readable_message(
        self, argv, message, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            drift_main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


class TestTargetWithSelections:
    def test_replaces_named_edges_only(self):
        device = make_device()
        target = build_target(device, "criterion2").complete()
        replacement = retune_selection(target.basis_gate((0, 1)), 0.08, 0.04)
        hybrid = target.with_selections({(1, 0): replacement})
        assert hybrid is not target
        assert hybrid.basis_gate((0, 1)).duration == replacement.duration
        assert hybrid.basis_gate((1, 2)) == target.basis_gate((1, 2))
        # the shared snapshot is untouched
        assert target.basis_gate((0, 1)).duration != replacement.duration

    def test_unknown_edge_raises(self):
        device = make_device()
        target = build_target(device, "criterion2").complete()
        with pytest.raises(ValueError, match="not an edge"):
            target.with_selections({(0, 3): target.basis_gate((0, 1))})
