"""One content-addressed store for everything this system caches.

Per-edge basis-gate selection makes every compile depend on a per-device
*target* (one calibrated basis gate per qubit pair), and drift invalidates
it.  Both the targets and the compiled programs built on them are therefore
cached under content-addressed keys: each key is derived from everything
the entry depends on (device fingerprint, strategy registry generation,
circuit content hash, ...).  Invalidation is automatic -- drift the device
or re-register a strategy and the new key never matches an old entry.

:class:`ContentStore` is that cache, once:

* a thread-safe, bounded in-memory LRU;
* over an optional directory of JSON entries, one ``<key>.json`` file per
  key.  Writers scratch-write a ``.tmp<pid>`` file and atomically rename it
  into place under a per-entry flock (:func:`entry_lock`), so readers stay
  lock-free and never see half a file, and processes sharing one directory
  (cluster shards) build each entry once;
* echo-back validation: an entry repeats the fields its key was derived
  from, and every read re-checks them and the format version, so a renamed,
  stale, truncated or corrupt file reads as a miss, never as a wrong answer;
* prefix invalidation (keys lead with the device fingerprint), which frees
  memory early -- correctness never depends on it;
* one :class:`StoreStats` schema.

The store never looks inside a payload.  A :class:`Codec` carries everything
that differs between payload kinds: the format version, the JSON fields a
value is stored as, how a document decodes back, and what a reader gets
(the held value or a copy of it).
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

try:  # POSIX advisory locks; the store stays usable (rename-atomic) without.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

@contextlib.contextmanager
def entry_lock(path: Path):
    """Exclusive advisory lock serializing writers of one store entry.

    Locks a ``<entry>.lock`` sidecar (never the entry itself -- readers stay
    lock-free; the atomic rename already guarantees they see a whole file).
    Writers of the same key queue up instead of racing scratch files, and
    :meth:`ContentStore.get_or_build` holds it across (re-read, build, write)
    so only the first of N cold builders pays for a build -- the rest block
    on the lock, then load the winner's entry.  On platforms without
    :mod:`fcntl` this is a no-op (rename atomicity still holds; only build
    dedup is lost).
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
class StoreStats:
    """Counters for one :class:`ContentStore`; every lookup lands in exactly
    one of ``memory_hits``, ``disk_hits`` or ``misses``."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    invalidated: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups observed."""
        return self.memory_hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either layer (0.0 when none yet)."""
        hits = self.memory_hits + self.disk_hits
        return hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        """Plain-data form for metrics snapshots and result files."""
        return {**asdict(self), "hit_rate": self.hit_rate}


def _identity(value):
    return value


@dataclass(frozen=True)
class Codec:
    """Everything a payload kind contributes to a :class:`ContentStore`.

    Attributes:
        format_version: stored in every entry; bump it when the stored
            layout changes incompatibly (older entries then read as misses).
        encode: value -> the JSON fields stored after the echo fields.
        decode: a whole entry document (version and echo fields already
            checked) -> value.  Raising ``KeyError``, ``TypeError`` or
            ``ValueError`` on a malformed document makes it a miss.
        copy: what a reader receives of a held value -- the value itself
            when nobody mutates it, a fresh copy when callers may.
    """

    format_version: int
    encode: Callable[[Any], dict]
    decode: Callable[[dict], Any]
    copy: Callable[[Any], Any] = _identity


class ContentStore:
    """Bounded memory LRU over an optional directory of JSON entries.

    ``root=None`` runs memory-only: evicted entries are rebuilt or
    recompiled.  Thread-safe: the service probes the memory layer from its
    event loop and the disk layer from executor threads.  The memory lock is
    never held across disk I/O or a build.

    Example::

        store = ContentStore(codec, capacity=8, root=".svc")
        value, source = store.get_or_build(key, echo, build)   # 'built'
        value, source = store.get_or_build(key, echo, build)   # 'memory'
    """

    def __init__(self, codec: Codec, capacity: int, root: str | Path | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.codec = codec
        self.capacity = int(capacity)
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self.stats = StoreStats()
        self._lru: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()

    def path_for(self, key: str) -> Path:
        """Where the entry for one key lives (stores with a disk layer)."""
        return self.root / f"{key}.json"

    # -- lookups --------------------------------------------------------------

    def get_memory(self, key: str):
        """Memory-layer probe; counts a hit but never a miss (the caller
        falls through to :meth:`get`, which settles the lookup)."""
        with self._lock:
            value = self._lru.get(key)
            if value is None:
                return None
            self._lru.move_to_end(key)
            self.stats.memory_hits += 1
            return self.codec.copy(value)

    def get(self, key: str, echo: dict) -> tuple[Any, str | None]:
        """Memory, then disk: ``(value, "memory" | "disk")``, or
        ``(None, None)`` counted as a miss."""
        value, source = self._find(key, echo)
        if value is None:
            with self._lock:
                self.stats.misses += 1
        return value, source

    def get_or_build(
        self, key: str, echo: dict, build: Callable[[], Any]
    ) -> tuple[Any, str]:
        """The value for a key plus its source: ``"memory"``, ``"disk"`` or
        ``"built"``.

        The miss path holds the entry lock across (re-read, build, write):
        when N processes race the same cold key -- e.g. cluster shards
        warming one shared directory -- exactly one builds, and the others
        block briefly and then load the winner's entry.
        """
        value, source = self._find(key, echo)
        if value is not None:
            return value, source
        if self.root is None:
            value = build()
        else:
            path = self.path_for(key)
            with entry_lock(path):
                # Re-check under the lock: a sibling may have finished the
                # build while we waited for it.
                value = self._load(key, echo)
                if value is not None:
                    return value, "disk"
                value = build()
                self._write(path, echo, value)
        with self._lock:
            self._admit(key, value)
            self.stats.misses += 1
        return self.codec.copy(value), "built"

    def put(self, key: str, value, echo: dict) -> None:
        """Admit an externally built value to both layers."""
        with self._lock:
            self._admit(key, self.codec.copy(value))
        if self.root is not None:
            path = self.path_for(key)
            with entry_lock(path):
                self._write(path, echo, value)

    def invalidate_prefix(self, prefix: str) -> int:
        """Evict every memory entry whose key starts with ``prefix``.

        Disk entries stay: their keys embed the stale fingerprint, so they
        can never be served again (content addressing is the correctness
        mechanism; this eviction just frees memory early).  Returns how many
        entries went.
        """
        with self._lock:
            stale = [key for key in self._lru if key.startswith(prefix)]
            for key in stale:
                del self._lru[key]
            self.stats.invalidated += len(stale)
            return len(stale)

    # -- internals ------------------------------------------------------------

    def _admit(self, key: str, value) -> None:
        """Install an LRU entry; caller holds ``_lock``."""
        self._lru[key] = value
        self._lru.move_to_end(key)
        while len(self._lru) > self.capacity:
            self._lru.popitem(last=False)

    def _find(self, key: str, echo: dict) -> tuple[Any, str | None]:
        """Memory, then disk; counts hits only."""
        value = self.get_memory(key)
        if value is not None:
            return value, "memory"
        value = self._load(key, echo)
        return value, ("disk" if value is not None else None)

    def _load(self, key: str, echo: dict):
        """Disk probe: on a valid entry, admit it and count a disk hit."""
        if self.root is None:
            return None
        value = self._read(self.path_for(key), echo)
        if value is None:
            return None
        with self._lock:
            self._admit(key, value)
            self.stats.disk_hits += 1
        return self.codec.copy(value)

    def _read(self, path: Path, echo: dict):
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError):
            return None  # absent, unreadable or corrupt: a miss either way
        if not isinstance(document, dict):
            return None
        if document.get("format_version") != self.codec.format_version:
            return None
        for field_name, value in echo.items():
            if document.get(field_name) != value:
                return None
        try:
            return self.codec.decode(document)
        except (KeyError, TypeError, ValueError):
            return None

    def _write(self, path: Path, echo: dict, value) -> None:
        """Scratch-write + atomic rename; caller holds the entry lock."""
        document = {
            "format_version": self.codec.format_version,
            **echo,
            **self.codec.encode(value),
        }
        scratch = path.with_name(f"{path.name}.tmp{os.getpid()}")
        scratch.write_text(json.dumps(document))
        os.replace(scratch, path)  # readers see the old or the new file, never half

    # -- maintenance ----------------------------------------------------------

    def entries(self) -> list[Path]:
        """Every entry file in the directory (none when memory-only)."""
        if self.root is None:
            return []
        return sorted(self.root.glob("*.json"))

    def __len__(self) -> int:
        """Entries in the memory layer."""
        with self._lock:
            return len(self._lru)

    def clear(self) -> int:
        """Drop the memory layer and delete every disk entry; returns how
        many disk entries were removed.

        Also sweeps ``.tmp<pid>`` scratch files orphaned by a writer that
        crashed between writing and the atomic rename, and the ``.lock``
        sidecars (stateless -- safe to delete when no writer is live).
        """
        with self._lock:
            self._lru.clear()
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            removed += 1
        if self.root is not None:
            for leftover in (
                *self.root.glob("*.json.tmp*"),
                *self.root.glob("*.json.lock"),
            ):
                leftover.unlink(missing_ok=True)
        return removed

    def as_dict(self) -> dict:
        """Snapshot for metrics documents: layer sizes and counters."""
        with self._lock:
            entries, stats = len(self._lru), self.stats.as_dict()
        return {
            "entries": entries,
            "capacity": self.capacity,
            "disk_entries": len(self.entries()),
            **stats,
        }
