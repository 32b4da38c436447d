"""Tests for the continuous-operation control plane (``repro.ops``).

Covers the PR acceptance criteria directly:

* scenario parsing rejects unknown phase kinds / fields / probes and
  malformed SLOs with readable errors; the CLI exits 2 with a one-line
  ``error: ...`` and never a traceback;
* drift clocks are deterministic and their fingerprints track the wire
  calibration state byte-for-byte;
* the service's calibration pre-warm populates the target and program
  caches for the *new* fingerprint before the swap, so the first post-drift
  request is served warm;
* canary decisions promote within tolerance and roll back a candidate that
  degrades fidelity -- both as a pure function and end-to-end over a live
  one-shard cluster, where the whole smoke timeline (drift, traffic,
  canary) must also produce zero stale serves and zero drops.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cluster import ClusterConfig, ClusterFrontend
from repro.drift import DriftClock
from repro.fleet.devices import make_device
from repro.fleet.spec import TopologySpec
from repro.ops import (
    ScenarioError,
    ScenarioSpec,
    SLOSpec,
    decide_canary,
    run_scenario,
)
from repro.ops.__main__ import main as ops_main
from repro.ops.scenario import PhaseSpec
from repro.service.requests import CalibrationUpdate, RequestError
from repro.service.service import CompilationService, ServiceConfig


def run(coro):
    """Run one coroutine on a fresh event loop."""
    return asyncio.run(coro)


BASE_SCENARIO = {
    "name": "t",
    "devices": [{"topology": "linear:4", "device_seed": 11}],
    "workload": {"circuits": ["ghz_3"], "strategies": ["criterion2"]},
    "phases": [{"kind": "traffic", "repeats": 1}],
}


def scenario_with(**overrides) -> dict:
    data = json.loads(json.dumps(BASE_SCENARIO))
    data.update(overrides)
    return data


class TestScenarioParsing:
    def test_round_trips_through_to_dict(self):
        spec = ScenarioSpec.from_dict(BASE_SCENARIO)
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec

    @pytest.mark.parametrize(
        "mutate, message",
        [
            ({"phases": [{"kind": "sabotage"}]}, "unknown kind 'sabotage'"),
            ({"phases": [{"kind": "traffic", "bogus": 1}]}, "unknown phase[0]"),
            ({"phases": []}, "non-empty phases"),
            ({"phases": [{"kind": "traffic", "repeats": 0}]}, "repeats must be >= 1"),
            ({"typo_field": 1}, "unknown scenario field"),
            ({"slo": {"fidelity_floor": 1.5}}, "fidelity_floor must be in [0, 1]"),
            ({"slo": {"latency_p95_ms": "fast"}}, "latency_p95_ms must be a number"),
            ({"slo": {"max_stale_serves": -1}}, "max_stale_serves must be >= 0"),
            ({"slo": {"p95": 10}}, "unknown slo field"),
            ({"drift": {"models": ["warp:9"]}}, "unknown drift model"),
            ({"devices": []}, "non-empty list"),
            ({"devices": [{"topology": "ring:4"}]}, "cannot parse topology"),
            (
                {"workload": {"circuits": ["ghz_30"], "strategies": ["criterion2"]}},
                "needs 30 qubits",
            ),
            (
                {"phases": [{"kind": "chaos", "probe": "meteor"}]},
                "unknown probe 'meteor'",
            ),
            (
                {"phases": [{"kind": "canary", "fraction": 0.5}]},
                "candidate_strategies or candidate_mapping",
            ),
            (
                {"phases": [{"kind": "canary", "fraction": 1.5,
                             "candidate_mapping": "basis_aware"}]},
                "fraction must be in (0, 1]",
            ),
            (
                {"cluster": {"shards": 0}},
                "shards must be >= 1",
            ),
        ],
    )
    def test_malformed_scenarios_raise_readable_errors(self, mutate, message):
        with pytest.raises(ScenarioError) as excinfo:
            ScenarioSpec.from_dict(scenario_with(**mutate))
        assert message in str(excinfo.value)

    def test_canary_candidate_is_cross_validated(self):
        # The candidate configuration must compile on every device too.
        data = scenario_with(
            phases=[{"kind": "canary", "candidate_strategies": ["criterion9"]}]
        )
        with pytest.raises(ScenarioError) as excinfo:
            ScenarioSpec.from_dict(data)
        assert "criterion9" in str(excinfo.value)

    def test_phase_slo_overrides_global(self):
        spec = ScenarioSpec.from_dict(
            scenario_with(
                slo={"fidelity_floor": 0.9},
                phases=[{"kind": "traffic", "slo": {"max_dropped": 3}}],
            )
        )
        effective = spec.slo.merged(spec.phases[0].slo)
        assert effective.max_dropped == 3
        assert effective.fidelity_floor is None  # replaced, not merged
        assert spec.slo.merged(None) is spec.slo

    def test_load_rejects_missing_and_invalid_files(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read scenario"):
            ScenarioSpec.load(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            ScenarioSpec.load(bad)


class TestOpsCliErrors:
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_malformed_scenario_exits_2_one_line_no_traceback(
        self, command, tmp_path, capsys
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario_with(phases=[{"kind": "sabotage"}])))
        assert ops_main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert "sabotage" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert ops_main(["validate", str(tmp_path / "ghost.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_validate_echoes_normalized_spec(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(BASE_SCENARIO))
        assert ops_main(["validate", str(path)]) == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed == ScenarioSpec.from_dict(BASE_SCENARIO).to_dict()


class TestDecideCanary:
    def test_rolls_back_a_degrading_candidate(self):
        assert decide_canary(0.95, 0.90, tolerance=0.001) == "rollback"

    def test_promotes_within_tolerance_and_on_improvement(self):
        assert decide_canary(0.95, 0.9495, tolerance=0.001) == "promote"
        assert decide_canary(0.95, 0.97, tolerance=0.0) == "promote"

    def test_never_promotes_without_evidence(self):
        assert decide_canary(None, 0.99, tolerance=1.0) == "rollback"
        assert decide_canary(0.99, None, tolerance=1.0) == "rollback"


class TestDriftClock:
    def _device(self):
        return make_device(TopologySpec.parse("linear:4"), 11)

    def test_same_seed_same_payload_sequence(self):
        one = DriftClock(self._device(), ["ou:sigma_ghz=0.08"], drift_seed=7)
        two = DriftClock(self._device(), ["ou:sigma_ghz=0.08"], drift_seed=7)
        for _ in range(3):
            assert one.tick()[0] == two.tick()[0]
            assert one.fingerprint == two.fingerprint

    def test_ticks_rotate_the_fingerprint(self):
        clock = DriftClock(self._device(), ["ou:sigma_ghz=0.08"])
        seen = {clock.fingerprint}
        for _ in range(3):
            clock.tick()
            assert clock.fingerprint not in seen
            seen.add(clock.fingerprint)
        assert clock.ticks == 3 and clock.epoch == 4

    def test_rejects_empty_models_and_bad_epoch(self):
        with pytest.raises(ValueError, match="at least one drift model"):
            DriftClock(self._device(), [])
        with pytest.raises(ValueError, match="start_epoch"):
            DriftClock(self._device(), ["ou:sigma_ghz=0.08"], start_epoch=0)


class TestServicePrewarm:
    def test_prewarm_makes_first_post_drift_request_warm(self, tmp_path):
        async def scenario():
            config = ServiceConfig(cache_dir=str(tmp_path), batch_window_ms=0.5)
            async with CompilationService(config) as service:
                request = {
                    "circuit": "ghz_3",
                    "topology": "linear:4",
                    "strategies": ["criterion2"],
                }
                before = await service.compile(request)
                report = await service.calibrate(
                    {
                        "topology": "linear:4",
                        "frequency_shifts": {"0": 0.02},
                        "prewarm": {
                            "circuits": ["ghz_3"],
                            "strategies": ["criterion2"],
                        },
                    }
                )
                after = await service.compile(request)
                return before, report, after

        before, report, after = run(scenario())
        assert report["new_fingerprint"] != report["old_fingerprint"]
        assert report["prewarm"] == {
            "targets": 1,
            "programs": 1,
            "ms": pytest.approx(report["prewarm"]["ms"]),
        }
        assert after.fingerprint == report["new_fingerprint"]
        # The whole point: the swap happened *after* the pre-warm, so the
        # first post-drift request is a memory hit, not a rebuild.
        assert after.program_source == "program-mem"
        assert before.fingerprint == report["old_fingerprint"]

    def test_shards_sharing_a_store_build_each_prewarm_target_once(
        self, tmp_path, monkeypatch
    ):
        """The calibrate fan-out sends one prewarm to every shard; over one
        store directory the drifted targets are built once in total."""
        from repro.compiler.pipeline.target import Target

        built = []
        real_from_device = Target.from_device.__func__

        def counted(cls, device, strategy):
            built.append(strategy)  # every target build starts here
            return real_from_device(cls, device, strategy)

        monkeypatch.setattr(Target, "from_device", classmethod(counted))
        update = {
            "topology": "linear:4",
            "frequency_shifts": {"0": 0.02},
            "prewarm": {"strategies": ["baseline", "criterion2"]},
        }

        async def scenario():
            config = ServiceConfig(cache_dir=str(tmp_path))
            reports = []
            for _ in range(2):
                async with CompilationService(config) as shard:
                    reports.append(await shard.calibrate(dict(update)))
            return reports

        first, second = run(scenario())
        assert first["new_fingerprint"] == second["new_fingerprint"]
        assert first["prewarm"]["targets"] == second["prewarm"]["targets"] == 2
        assert sorted(built) == ["baseline", "criterion2"]

    def test_prewarm_parses_and_rejects_like_requests(self):
        update = CalibrationUpdate.from_dict(
            {
                "topology": "linear:4",
                "set_coherence_us": 70.0,
                "prewarm": {"circuits": ["ghz_3"]},
            }
        )
        assert update.prewarm is not None
        assert update.prewarm.circuits == ("ghz_3",)
        with pytest.raises(RequestError, match="unknown prewarm field"):
            CalibrationUpdate.from_dict(
                {
                    "topology": "linear:4",
                    "set_coherence_us": 70.0,
                    "prewarm": {"circutis": ["ghz_3"]},
                }
            )
        with pytest.raises(RequestError, match="unknown strategy"):
            CalibrationUpdate.from_dict(
                {
                    "topology": "linear:4",
                    "set_coherence_us": 70.0,
                    "prewarm": {"strategies": ["criterion9"]},
                }
            )


class TestCanaryRouting:
    def _frontend(self) -> ClusterFrontend:
        # Never started: set_canary/_divert_to_canary are pure front-end
        # state, so no shard processes are needed.
        return ClusterFrontend(ClusterConfig(shards=2))

    def test_diverts_the_configured_fraction(self):
        frontend = self._frontend()
        frontend.set_canary(0.25, strategies=["baseline"])
        messages = [
            {"circuit": "ghz_3", "strategies": ["criterion2"]} for _ in range(8)
        ]
        diverted = [frontend._divert_to_canary(m) for m in messages]
        assert sum(diverted) == 2  # every 4th request
        for message, canaried in zip(messages, diverted):
            expected = ["baseline"] if canaried else ["criterion2"]
            assert message["strategies"] == expected
        assert frontend.metrics.canary_routed == 2
        assert frontend.clear_canary()["fraction"] == 0.25
        assert not frontend._divert_to_canary({"strategies": ["criterion2"]})

    def test_set_canary_validates(self):
        frontend = self._frontend()
        with pytest.raises(RequestError, match="fraction"):
            frontend.set_canary(0.0, strategies=["baseline"])
        with pytest.raises(RequestError, match="at least one override"):
            frontend.set_canary(0.5)
        with pytest.raises(RequestError, match="unknown shard"):
            frontend.kill_shard("shard-99")


class TestScenarioEndToEnd:
    def test_smoke_timeline_with_canary_rollback(self, tmp_path):
        spec = ScenarioSpec.from_dict(
            {
                "name": "e2e",
                "devices": [{"topology": "linear:4", "device_seed": 11}],
                "workload": {
                    "circuits": ["ghz_3"],
                    "strategies": ["criterion2"],
                    "tenants": ["team-a", "team-b"],
                    "concurrency": 2,
                },
                "cluster": {"shards": 1, "batch_window_ms": 1.0},
                "slo": {"fidelity_floor": 0.5, "max_stale_serves": 0,
                        "max_dropped": 0},
                "warm_start": True,
                "phases": [
                    {"kind": "drift", "ticks": 1},
                    {"kind": "traffic", "repeats": 2, "drift_ticks": 1},
                    {
                        "kind": "canary",
                        "fraction": 0.5,
                        "candidate_strategies": ["baseline"],
                        "repeats": 2,
                        "tolerance": 0.0005,
                    },
                ],
            }
        )
        report = run(run_scenario(spec, tmp_path))
        assert report.ok, report.format_summary()
        totals = report.totals()
        assert totals["dropped"] == 0
        assert totals["stale_serves"] == 0
        drift_phase, traffic_phase, canary_phase = report.phases
        assert drift_phase.verdicts["coherent_acks"]["ok"]
        assert traffic_phase.traffic.requests == 2
        # The 0.5-fraction canary diverted half the traffic...
        assert any(r.canary for r in canary_phase.traffic.records)
        # ...and the degrading candidate strategy was rolled back on true
        # (drifted-shadow) fidelity, leaving the workload untouched.
        assert canary_phase.canary["decision"] == "rollback"
        fidelity = canary_phase.canary["true_fidelity"]
        assert fidelity["candidate"] < fidelity["baseline"]
        document = report.to_dict()
        assert document["ok"] is True
        assert document["scenario"]["name"] == "e2e"


class TestPhaseSpecDefaults:
    def test_labels(self):
        assert PhaseSpec(kind="traffic").label == "traffic"
        assert PhaseSpec(kind="chaos", probe="shard_kill").label == "chaos:shard_kill"
        assert PhaseSpec(kind="drift", name="warmup").label == "warmup"

    def test_slo_defaults_are_zero_tolerance(self):
        slo = SLOSpec()
        assert slo.max_stale_serves == 0
        assert slo.max_dropped == 0
        assert slo.fidelity_floor is None
