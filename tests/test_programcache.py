"""Tests for the compiled-program cache: the warm end of this PR.

Covers the acceptance criteria directly:

* byte-identical results with the program cache on vs off
  (``TestServiceProgramCache.test_results_byte_identical_cache_on_vs_off``);
* every response reports the layer that served it
  (``program-mem`` / ``program-disk`` / ``compiled``);
* after a ``calibrate`` ack no response may carry a program compiled
  against the pre-drift fingerprint, including across a restart over a
  warm disk store (``TestProgramStaleness``).
"""

import asyncio
import json

import pytest

from repro.fleet.sweep import build_circuit
from repro.service import (
    PROGRAM_CODEC,
    CompilationService,
    ServiceConfig,
    circuit_content_hash,
    program_cache_key,
)
from repro.service.programcache import PROGRAM_CACHE_FORMAT_VERSION
from repro.store import ContentStore
from repro.synthesis import DEPTH_ORACLE_VERSION


def run(coro):
    """Run one coroutine on a fresh event loop."""
    return asyncio.run(coro)


REQUEST = {
    "circuit": "ghz_3",
    "topology": "linear:4",
    "strategies": ["criterion2"],
}
DRIFT = {"topology": "linear:4", "frequency_shifts": {"0": 0.04}}


# -- unit: keys and hashing ----------------------------------------------------


class TestContentAddressing:
    def test_circuit_hash_ignores_name_but_not_gates(self):
        ghz_a = build_circuit("ghz_3")
        ghz_b = build_circuit("ghz_3")
        assert circuit_content_hash(ghz_a) == circuit_content_hash(ghz_b)
        assert circuit_content_hash(ghz_a) != circuit_content_hash(
            build_circuit("bv_3")
        )

    def test_key_changes_with_every_component(self):
        base = dict(
            circuit_hash="c" * 64,
            fingerprint="fp0",
            strategies=("criterion2",),
            mapping="hop_count",
            seed=17,
            generations=(0,),
        )
        reference = program_cache_key(**base)
        for field, changed in [
            ("circuit_hash", "d" * 64),
            ("fingerprint", "fp1"),
            ("strategies", ("baseline",)),
            ("mapping", "basis_aware"),
            ("seed", 18),
            ("generations", (1,)),
            ("optimize", True),
            ("depth_oracle_version", DEPTH_ORACLE_VERSION + 1),
        ]:
            assert program_cache_key(**{**base, field: changed}) != reference
        # Deterministic, and prefixed by the fingerprint for prefix eviction.
        assert program_cache_key(**base) == reference
        assert reference.startswith("fp0-p")


class TestProgramCacheUnit:
    RESULTS = {"criterion2": {"fidelity": 0.99, "swap_count": 1}}
    DOCUMENT = {"fingerprint": "fp0", "strategies": ["criterion2"], "seed": 17}

    def test_lru_bounds_and_eviction(self):
        cache = ContentStore(PROGRAM_CODEC, 2)
        for index in range(3):
            cache.put(f"fp0-p{index}", self.RESULTS, self.DOCUMENT)
        assert len(cache) == 2
        assert cache.get_memory("fp0-p0") is None  # oldest evicted

    def test_lru_order_follows_use(self):
        cache = ContentStore(PROGRAM_CODEC, 2)
        cache.put("fp0-pA", self.RESULTS, self.DOCUMENT)
        cache.put("fp0-pB", self.RESULTS, self.DOCUMENT)
        assert cache.get_memory("fp0-pA") is not None  # A is now the newest
        cache.put("fp0-pC", self.RESULTS, self.DOCUMENT)
        assert cache.get_memory("fp0-pB") is None
        assert cache.get_memory("fp0-pA") is not None

    def test_hits_return_copies(self):
        cache = ContentStore(PROGRAM_CODEC, 2)
        results = {"criterion2": dict(self.RESULTS["criterion2"])}
        cache.put("fp0-p0", results, self.DOCUMENT)
        results["criterion2"]["fidelity"] = -2.0  # the caller's copy
        first = cache.get_memory("fp0-p0")
        first["criterion2"]["fidelity"] = -1.0
        assert cache.get_memory("fp0-p0")["criterion2"]["fidelity"] == 0.99

    def test_invalidate_fingerprint_is_prefix_scoped(self):
        cache = ContentStore(PROGRAM_CODEC, 8)
        cache.put("fp0-pA", self.RESULTS, self.DOCUMENT)
        cache.put("fp0-pB", self.RESULTS, self.DOCUMENT)
        cache.put("fp1-pA", self.RESULTS, self.DOCUMENT)
        assert cache.invalidate_prefix("fp0-") == 2
        assert cache.get_memory("fp0-pA") is None
        assert cache.get_memory("fp1-pA") is not None
        assert cache.stats.invalidated == 2

    def test_stats_and_sources(self):
        cache = ContentStore(PROGRAM_CODEC, 2)
        assert cache.get("fp0-p0", {}) == (None, None)
        cache.put("fp0-p0", self.RESULTS, self.DOCUMENT)
        results, source = cache.get("fp0-p0", {})
        assert source == "memory" and results == self.RESULTS
        stats = cache.as_dict()
        assert stats["memory_hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            ContentStore(PROGRAM_CODEC, 0)


class TestProgramStore:
    RESULTS = {"criterion2": {"fidelity": 0.5}}
    DOCUMENT = {"fingerprint": "fp0", "strategies": ["criterion2"], "seed": 17}

    def test_round_trip_and_echo_back_validation(self, tmp_path):
        ContentStore(PROGRAM_CODEC, 4, tmp_path).put(
            "fp0-pA", self.RESULTS, self.DOCUMENT
        )

        def load(key, document):
            return ContentStore(PROGRAM_CODEC, 4, tmp_path).get(key, document)[0]

        assert load("fp0-pA", self.DOCUMENT) == self.RESULTS
        # A mismatched expectation (e.g. a hand-renamed file) is a miss.
        assert load("fp0-pA", {**self.DOCUMENT, "fingerprint": "fp1"}) is None
        assert load("missing", self.DOCUMENT) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ContentStore(PROGRAM_CODEC, 4, tmp_path)
        store.path_for("fp0-pA").write_text("{not json")
        assert store.get("fp0-pA", {}) == (None, None)
        # Wrong format version likewise.
        store.path_for("fp0-pB").write_text(
            json.dumps({"format_version": -1, "results": self.RESULTS})
        )
        assert store.get("fp0-pB", {}) == (None, None)
        # Valid JSON that is not a document at all.
        store.path_for("fp0-pC").write_text("[1, 2]")
        assert store.get("fp0-pC", {}) == (None, None)
        assert store.stats.misses == 3

    @pytest.mark.parametrize(
        "results",
        [
            {"criterion2": 5},  # summaries must be dicts
            {"baseline": {"fidelity": 0.5}},  # keyed by other strategies
            {"criterion2": {"fidelity": 0.5}, "baseline": {"fidelity": 0.4}},
            ["criterion2"],
        ],
    )
    def test_malformed_results_are_misses(self, tmp_path, results):
        store = ContentStore(PROGRAM_CODEC, 4, tmp_path)
        store.path_for("fp0-pA").write_text(
            json.dumps(
                {
                    "format_version": PROGRAM_CACHE_FORMAT_VERSION,
                    **self.DOCUMENT,
                    "results": results,
                }
            )
        )
        assert store.get("fp0-pA", self.DOCUMENT) == (None, None)

    def test_entries_are_byte_stable(self, tmp_path):
        """The on-disk layout: format version, echo fields, then results."""
        store = ContentStore(PROGRAM_CODEC, 4, tmp_path)
        store.put("fp0-pA", self.RESULTS, self.DOCUMENT)
        [entry] = store.entries()
        assert entry.name == "fp0-pA.json"
        assert entry.read_text() == json.dumps(
            {
                "format_version": PROGRAM_CACHE_FORMAT_VERSION,
                **self.DOCUMENT,
                "results": self.RESULTS,
            }
        )

    def test_memory_layer_rehydrates_from_disk(self, tmp_path):
        warm = ContentStore(PROGRAM_CODEC, 4, tmp_path)
        warm.put("fp0-pA", self.RESULTS, self.DOCUMENT)
        cold = ContentStore(PROGRAM_CODEC, 4, tmp_path)
        results, source = cold.get("fp0-pA", self.DOCUMENT)
        assert source == "disk" and results == self.RESULTS
        assert cold.get("fp0-pA", self.DOCUMENT)[1] == "memory"


# -- integration: the service's cache hierarchy --------------------------------


class TestServiceProgramCache:
    def test_layers_and_sources_end_to_end(self, tmp_path):
        async def go():
            async with CompilationService(
                ServiceConfig(cache_dir=str(tmp_path))
            ) as service:
                cold = await service.compile(dict(REQUEST))
                warm = await service.compile(dict(REQUEST))
            # A fresh service over the same directory serves from disk,
            # then promotes the entry to its memory layer.
            async with CompilationService(
                ServiceConfig(cache_dir=str(tmp_path))
            ) as resumed:
                disk = await resumed.compile(dict(REQUEST))
                mem = await resumed.compile(dict(REQUEST))
                snapshot = resumed.metrics_snapshot()
            return cold, warm, disk, mem, snapshot

        cold, warm, disk, mem, snapshot = run(go())
        assert cold.program_source == "compiled"
        assert warm.program_source == "program-mem"
        assert disk.program_source == "program-disk"
        assert mem.program_source == "program-mem"
        assert cold.results == warm.results == disk.results == mem.results
        assert snapshot["programs"]["disk_hits"] == 1
        assert snapshot["programs"]["memory_hits"] == 1
        assert snapshot["requests"]["cached"] == 2
        assert snapshot["latency_ms"]["cache_lookup"]["max"] > 0

    def test_results_byte_identical_cache_on_vs_off(self, tmp_path):
        """The acceptance criterion: cached responses are byte-identical to
        recompiling, for every layer that can serve them."""

        async def go():
            on = ServiceConfig(cache_dir=str(tmp_path))
            off = ServiceConfig(cache_dir=str(tmp_path), program_cache=False)
            async with CompilationService(on) as service:
                compiled = await service.compile(dict(REQUEST))
                mem_hit = await service.compile(dict(REQUEST))
            async with CompilationService(on) as resumed:
                disk_hit = await resumed.compile(dict(REQUEST))
            async with CompilationService(off) as plain:
                assert plain.programs is None
                recompiled = await plain.compile(dict(REQUEST))
            return compiled, mem_hit, disk_hit, recompiled

        compiled, mem_hit, disk_hit, recompiled = run(go())
        assert recompiled.program_source == "compiled"
        reference = json.dumps(compiled.results, sort_keys=True)
        for response in (mem_hit, disk_hit, recompiled):
            assert json.dumps(response.results, sort_keys=True) == reference

    def test_memory_only_service_has_no_disk_layer(self):
        async def go():
            async with CompilationService() as service:
                assert service.programs is not None
                assert service.programs.root is None
                assert service.hot_targets.root is None
                first = await service.compile(dict(REQUEST))
                second = await service.compile(dict(REQUEST))
                return first, second

        first, second = run(go())
        assert first.program_source == "compiled"
        assert second.program_source == "program-mem"

    def test_malformed_disk_entry_is_a_miss_and_gets_overwritten(self, tmp_path):
        """A valid-JSON entry with wrong-shaped results, at the right path
        with the right echo fields, recompiles instead of failing or being
        served -- and the recompile replaces it."""

        async def go():
            config = ServiceConfig(cache_dir=str(tmp_path))
            async with CompilationService(config) as service:
                reference = await service.compile(dict(REQUEST))
            [entry] = (tmp_path / "programs").glob("*.json")
            document = json.loads(entry.read_text())
            served = []
            for results in (
                {"criterion2": 5},
                {"baseline": reference.results["criterion2"]},
            ):
                entry.write_text(json.dumps({**document, "results": results}))
                async with CompilationService(config) as service:
                    served.append(await service.compile(dict(REQUEST)))
                assert json.loads(entry.read_text()) == document
            return reference, served

        reference, served = run(go())
        for response in served:
            assert response.program_source == "compiled"
            assert response.results == reference.results

    def test_program_capacity_validated(self):
        with pytest.raises(ValueError, match="program_capacity"):
            ServiceConfig(program_capacity=0)


class TestProgramStaleness:
    def test_no_stale_program_after_calibrate(self, tmp_path):
        """Post-ack, responses must never carry a pre-drift program."""

        async def go():
            async with CompilationService(
                ServiceConfig(cache_dir=str(tmp_path))
            ) as service:
                before = await service.compile(dict(REQUEST))
                warm = await service.compile(dict(REQUEST))
                assert warm.program_source == "program-mem"
                report = await service.calibrate(dict(DRIFT))
                after = await service.compile(dict(REQUEST))
                again = await service.compile(dict(REQUEST))
                return before, report, after, again

        before, report, after, again = run(go())
        assert report["program_entries_evicted"] == 1
        # The first post-ack response recompiles under the new fingerprint.
        assert after.program_source == "compiled"
        assert after.fingerprint == report["new_fingerprint"]
        assert after.fingerprint != before.fingerprint
        # The recompiled program is itself cacheable -- under the new key.
        assert again.program_source == "program-mem"
        assert again.fingerprint == report["new_fingerprint"]

    def test_warm_disk_store_cannot_resurrect_pre_drift_programs(
        self, tmp_path
    ):
        """Restart over a warm store, re-apply the drift: the stale disk
        entry (keyed by the pre-drift fingerprint) must never be served."""

        async def go():
            config = ServiceConfig(cache_dir=str(tmp_path))
            async with CompilationService(config) as service:
                base = await service.compile(dict(REQUEST))
                report = await service.calibrate(dict(DRIFT))
                drifted = await service.compile(dict(REQUEST))
            # The store now holds programs for BOTH fingerprints.
            async with CompilationService(config) as restarted:
                # Replay the calibration before traffic (what the cluster
                # front end does for a restarted shard).
                replayed = await restarted.calibrate(dict(DRIFT))
                after = await restarted.compile(dict(REQUEST))
                repeat = await restarted.compile(dict(REQUEST))
            return base, report, drifted, replayed, after, repeat

        base, report, drifted, replayed, after, repeat = run(go())
        assert replayed["new_fingerprint"] == report["new_fingerprint"]
        # The restarted service may serve from disk -- but only the program
        # compiled under the post-drift fingerprint.
        for response in (after, repeat):
            assert response.fingerprint == report["new_fingerprint"]
            assert response.fingerprint != base.fingerprint
            assert response.results == drifted.results
        assert after.program_source == "program-disk"
        assert repeat.program_source == "program-mem"


class TestOptimizerStaleness:
    """The optimizer flag and depth-oracle version are addressed content:
    flipping either re-keys programs, so pre-flip entries cannot be served."""

    def test_format_version_bumped_for_optimizer(self):
        # v2 carries the optimize flag + depth-oracle version in documents.
        assert PROGRAM_CACHE_FORMAT_VERSION == 2

    def test_pre_optimizer_disk_entries_are_unservable(self, tmp_path):
        """A v1-format entry (pre-optimizer seed) at the right path is a miss."""
        store = ContentStore(PROGRAM_CODEC, 4, tmp_path)
        results = {"criterion2": {"fidelity": 0.9}}
        document = {"fingerprint": "fp0", "strategies": ["criterion2"]}
        store.put("fp0-pabc", results, document)
        fresh = ContentStore(PROGRAM_CODEC, 4, tmp_path)
        assert fresh.get("fp0-pabc", document) == (results, "disk")
        path = store.path_for("fp0-pabc")
        stale = json.loads(path.read_text())
        stale["format_version"] = 1
        path.write_text(json.dumps(stale))
        fresh = ContentStore(PROGRAM_CODEC, 4, tmp_path)
        assert fresh.get("fp0-pabc", document) == (None, None)

    def test_optimize_flag_partitions_the_cache(self, tmp_path):
        """optimize=True and optimize=False are distinct cache entries, each
        warm for its own repeats, and only optimized results carry the
        depth-oracle keys."""

        async def go():
            plain = dict(REQUEST)
            optimized = dict(REQUEST, optimize=True)
            async with CompilationService(
                ServiceConfig(cache_dir=str(tmp_path))
            ) as service:
                base = await service.compile(plain)
                flipped = await service.compile(optimized)
                warm_base = await service.compile(plain)
                warm_flipped = await service.compile(optimized)
            return base, flipped, warm_base, warm_flipped

        base, flipped, warm_base, warm_flipped = run(go())
        # Flipping the switch never serves the other variant's entry.
        assert base.program_source == "compiled"
        assert flipped.program_source == "compiled"
        assert warm_base.program_source == "program-mem"
        assert warm_flipped.program_source == "program-mem"
        for response in (base, warm_base):
            for summary in response.results.values():
                assert "depth_vs_lower_bound" not in summary
        for response in (flipped, warm_flipped):
            for summary in response.results.values():
                assert summary["depth_vs_lower_bound"] >= 1.0
                assert summary["depth_lower_bound"] >= 0
        assert warm_base.results == base.results
        assert warm_flipped.results == flipped.results

    def test_reregistering_a_strategy_rekeys_programs(self, tmp_path):
        """A strategy generation bump makes prior entries unreachable."""
        from repro.compiler.pipeline.registry import REGISTRY

        async def go():
            async with CompilationService(
                ServiceConfig(cache_dir=str(tmp_path))
            ) as service:
                first = await service.compile(dict(REQUEST))
                warm = await service.compile(dict(REQUEST))
                REGISTRY.register(REGISTRY.spec("criterion2"), overwrite=True)
                rekeyed = await service.compile(dict(REQUEST))
            return first, warm, rekeyed

        first, warm, rekeyed = run(go())
        assert warm.program_source == "program-mem"
        # Same request, same fingerprint -- but the generation in the key
        # changed, so the old program is structurally unservable.
        assert rekeyed.program_source == "compiled"
        assert rekeyed.fingerprint == first.fingerprint
