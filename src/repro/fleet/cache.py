"""Persistent on-disk cache of completed :class:`Target` snapshots.

Basis-gate selection (simulating each edge's Cartan trajectory) dominates
the cost of compiling onto a fresh device, and it depends only on the device
and the strategy -- never on the circuit.  The in-memory ``build_target``
memo already makes it build-once per process; :class:`TargetCache` extends
that across processes and runs by persisting ``Target.to_dict()`` snapshots
(plus the derived per-edge :class:`~repro.compiler.cost.CostModel` consumed
by basis-aware mapping) under a content-addressed key:

    ``sha256(device inputs)`` + strategy name + registry generation

The key scheme makes invalidation automatic rather than managed:

* mutate the device in place (frequencies, amplitudes, coherence, graph) and
  the fingerprint changes, so the old entry is simply never matched again;
* re-register a strategy name (``register_strategy(..., overwrite=True)``)
  and the registry generation in the key changes likewise;
* corrupt or truncated files are treated as misses and rebuilt.

Entries never need deleting for correctness; ``clear()`` exists for disk
hygiene only.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

try:  # POSIX advisory locks; the cache stays usable (rename-atomic) without.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.compiler.cost import CostModel
from repro.compiler.pipeline.registry import REGISTRY
from repro.compiler.pipeline.target import Target, build_target
from repro.fleet.devices import device_fingerprint

#: On-disk format version; bump when the stored layout changes incompatibly.
#: v2 added the per-edge ``cost_model`` payload next to the target (older
#: entries are treated as misses and rebuilt on first use).  v3 added
#: ``basis_coordinates`` to every cost-model row (the block-consolidation
#: optimizer's coverage-set oracle needs them, so rows without them must be
#: rebuilt rather than served).  v4: selections carry CNOT layer counts from
#: the exact three-layer test (4 where three layers cannot make CNOT), so
#: rows that assumed 3 must be rebuilt.
CACHE_FORMAT_VERSION = 4


def target_cache_key(device, strategy: str, fingerprint: str | None = None) -> str:
    """The content-addressed key for one (device, strategy) cell.

    Shared by the on-disk :class:`TargetCache` and the service layer's
    in-memory hot cache (:class:`~repro.service.hotcache.TargetHotCache`),
    so the two cache layers always agree on entry identity.
    """
    fingerprint = device_fingerprint(device) if fingerprint is None else fingerprint
    safe_strategy = re.sub(r"[^A-Za-z0-9_.-]", "_", strategy)
    if safe_strategy != strategy:
        # Sanitization can collide distinct names (e.g. "crit@v2" and
        # "crit_v2"); a digest of the raw name keeps their keys apart.
        digest = hashlib.sha256(strategy.encode("utf-8")).hexdigest()[:8]
        safe_strategy = f"{safe_strategy}.{digest}"
    return f"{fingerprint}-{safe_strategy}-g{REGISTRY.generation(strategy)}"


@contextlib.contextmanager
def entry_lock(path: Path):
    """Exclusive advisory lock serializing writers of one cache entry.

    Locks a ``<entry>.lock`` sidecar (never the entry itself -- readers stay
    lock-free; the atomic rename already guarantees they see a whole file).
    Used by :meth:`TargetCache.store` so concurrent processes writing the
    same key queue up instead of racing scratch files, and by
    :meth:`TargetCache.get_or_build` so only the first of N cold processes
    pays for a target build -- the rest block on the lock, then load the
    winner's entry from disk.  On platforms without :mod:`fcntl` this is a
    no-op (rename atomicity still holds; only build dedup is lost).
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    lock_path = path.with_name(path.name + ".lock")
    with open(lock_path, "a+") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`TargetCache` instance."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when none yet)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        """Plain-data form for result files."""
        return {"hits": self.hits, "misses": self.misses, "hit_rate": self.hit_rate}


class TargetCache:
    """A directory of completed, serialized targets keyed by device identity."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    # -- keys -----------------------------------------------------------------

    def cache_key(self, device, strategy: str, fingerprint: str | None = None) -> str:
        """The content-addressed key for one (device, strategy) cell."""
        return target_cache_key(device, strategy, fingerprint)

    def path_for(self, device, strategy: str, fingerprint: str | None = None) -> Path:
        """Where the entry for one (device, strategy) cell lives on disk."""
        return self.root / f"{self.cache_key(device, strategy, fingerprint)}.json"

    # -- read/write -----------------------------------------------------------

    def load(
        self, device, strategy: str, fingerprint: str | None = None
    ) -> Target | None:
        """The cached target for a cell, or None (counts a hit or a miss).

        The stored fingerprint, strategy and generation are re-checked
        against the filename-derived expectations, so a hand-renamed or
        partially-written file can never masquerade as a valid entry.
        ``fingerprint`` lets callers that probe several strategies on one
        device hash it once (it walks every edge).
        """
        fingerprint = device_fingerprint(device) if fingerprint is None else fingerprint
        path = self.path_for(device, strategy, fingerprint)
        target = self._read(path, fingerprint, strategy)
        if target is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return target

    def _read(self, path: Path, fingerprint: str, strategy: str) -> Target | None:
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None  # absent, unreadable or corrupt: a miss either way
        if (
            data.get("format_version") != CACHE_FORMAT_VERSION
            or data.get("fingerprint") != fingerprint
            or data.get("strategy") != strategy
            or data.get("generation") != REGISTRY.generation(strategy)
        ):
            return None
        try:
            target = Target.from_dict(data["target"])
            # Basis-aware mapping sweeps reuse the persisted per-edge cost
            # model instead of re-deriving it from the selections.
            return target.attach_cost_model(CostModel.from_dict(data["cost_model"]))
        except (KeyError, TypeError, ValueError):
            return None

    def store(
        self, device, strategy: str, target: Target, fingerprint: str | None = None
    ) -> Path:
        """Persist a (completed) target; atomic against concurrent readers
        and serialized (via :func:`entry_lock`) against concurrent writers
        of the same key -- safe as a store shared by many processes."""
        fingerprint = device_fingerprint(device) if fingerprint is None else fingerprint
        path = self.path_for(device, strategy, fingerprint)
        with entry_lock(path):
            self._write(path, strategy, target, fingerprint)
        return path

    def _write(
        self, path: Path, strategy: str, target: Target, fingerprint: str
    ) -> None:
        """Scratch-write + atomic rename; caller holds the entry lock."""
        payload = {
            "format_version": CACHE_FORMAT_VERSION,
            "fingerprint": fingerprint,
            "strategy": strategy,
            "generation": REGISTRY.generation(strategy),
            "target": target.to_dict(),
            # Stored alongside the selections so warm basis-aware sweeps skip
            # even the (cheap) per-edge cost derivation.
            "cost_model": target.cost_model().to_dict(),
        }
        scratch = path.with_name(f"{path.name}.tmp{os.getpid()}")
        scratch.write_text(json.dumps(payload))
        os.replace(scratch, path)  # readers see the old or the new file, never half

    def get_or_build(
        self, device, strategy: str, fingerprint: str | None = None
    ) -> Target:
        """Cached target when present; otherwise build, complete and persist.

        Cache hits return a *detached* deserialized target: compilation never
        touches the device's lazy calibration caches, which is the whole
        point -- a warm fleet sweep skips calibration entirely.

        The miss path holds the per-entry lock across (re-check, build,
        write): when N processes race the same cold cell -- e.g. cluster
        shards warming one shared store -- exactly one builds, the others
        block briefly and then deserialize the winner's entry.
        """
        fingerprint = device_fingerprint(device) if fingerprint is None else fingerprint
        cached = self.load(device, strategy, fingerprint)
        if cached is not None:
            return cached
        path = self.path_for(device, strategy, fingerprint)
        with entry_lock(path):
            # Re-check under the lock: a sibling process may have finished
            # the build while we waited for it.
            cached = self._read(path, fingerprint, strategy)
            if cached is not None:
                self.stats.hits += 1
                return cached
            target = build_target(device, strategy).complete()
            self._write(path, strategy, target, fingerprint)
        return target

    def warm(
        self, device, strategies, fingerprint: str | None = None
    ) -> dict[str, str]:
        """Pre-build every (device, strategy) cell; report hit/built per cell.

        The control-plane warm-start path: touch the store before traffic
        arrives so the first requests deserialize instead of building.  Hashes
        the device once and reuses :meth:`get_or_build`'s locked build-dedup,
        so concurrent warmers over a shared store still build each cell once.
        """
        fingerprint = device_fingerprint(device) if fingerprint is None else fingerprint
        outcome: dict[str, str] = {}
        for strategy in strategies:
            hits_before = self.stats.hits
            self.get_or_build(device, strategy, fingerprint)
            outcome[strategy] = "hit" if self.stats.hits > hits_before else "built"
        return outcome

    # -- maintenance ----------------------------------------------------------

    def entries(self) -> list[Path]:
        """Every entry file currently in the cache directory."""
        return sorted(p for p in self.root.glob("*.json"))

    def __len__(self) -> int:
        return len(self.entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.

        Also sweeps up ``.tmp<pid>`` scratch files orphaned by a writer that
        crashed between writing and the atomic rename, and the ``.lock``
        sidecars (stateless -- safe to delete when no writer is live).
        """
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            removed += 1
        for scratch in self.root.glob("*.json.tmp*"):
            scratch.unlink(missing_ok=True)
        for lock in self.root.glob("*.json.lock"):
            lock.unlink(missing_ok=True)
        return removed
