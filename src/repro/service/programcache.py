"""Compiled programs (per-strategy summaries) in the content-addressed store.

The top layer of the service's cache hierarchy: while the target store
(:data:`~repro.fleet.cache.TARGET_CODEC`) caches the per-device basis gates
that compilation consumes, this layer caches the *output* of the whole
pipeline -- the per-strategy compiled summaries of one request -- so a warm
repeat request skips layout, routing and translation entirely.

The key is content-addressed over everything the compiled output depends on::

    (circuit content hash, device fingerprint, strategies, mapping,
     layout/routing seed, per-strategy registry generations)

which makes invalidation automatic, exactly like the target store: drift
the device and the new fingerprint never matches old entries; re-register a
strategy and the generation changes likewise.  Prefix eviction is
bookkeeping that frees memory early -- correctness never depends on it.

Programs live in a :class:`~repro.store.ContentStore` with
:data:`PROGRAM_CODEC`: a bounded in-memory LRU (per service process) over an
optional directory (``<cache_dir>/programs``), so cluster shards pointed at
one store directory share warm programs across processes and restarts.

Because the cached payload is the plain-data ``summarize_compiled`` dict
(floats and ints, JSON round-trips exactly), a cache hit is byte-identical to
recompiling -- a property the service tests assert.
"""

from __future__ import annotations

import hashlib
import json

from repro.store import Codec
from repro.synthesis.depth import DEPTH_ORACLE_VERSION

#: On-disk format version; bump when the stored layout changes incompatibly.
#: v2: keys and documents carry the optimizer flag and depth-oracle version,
#: so pre-optimizer entries are structurally unservable.
PROGRAM_CACHE_FORMAT_VERSION = 2

#: The layers a response can be served from, as reported in
#: ``CompileResponse.program_source``.
PROGRAM_SOURCES = ("program-mem", "program-disk", "compiled")


def circuit_content_hash(circuit) -> str:
    """Content hash of a circuit: qubit count plus the ordered gate list.

    Deliberately excludes the circuit's *name* -- two differently-named but
    gate-identical circuits compile identically, and a content-addressed key
    must say so.  Parameters are hashed by exact float repr, which
    round-trips every double.
    """
    payload: list = [int(circuit.n_qubits)]
    for gate in circuit:
        payload.append(
            [gate.name, list(gate.qubits), [repr(float(p)) for p in gate.params]]
        )
    blob = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def program_cache_key(
    circuit_hash: str,
    fingerprint: str,
    strategies: tuple[str, ...],
    mapping: str,
    seed: int,
    generations: tuple[int, ...],
    optimize: bool = False,
    depth_oracle_version: int = DEPTH_ORACLE_VERSION,
) -> str:
    """The content-addressed key for one compiled program.

    Leads with the device fingerprint so a calibration update can evict it
    with the same prefix scan as the device's targets.  The optimizer flag and
    the coverage-set depth-oracle version are part of the addressed content:
    flipping ``optimize`` or revving the oracle re-keys every program, so
    stale entries can never be served (they become unreachable, exactly like
    a drifted fingerprint).
    """
    blob = json.dumps(
        [
            circuit_hash,
            list(strategies),
            mapping,
            int(seed),
            list(generations),
            bool(optimize),
            int(depth_oracle_version),
        ],
        separators=(",", ":"),
    )
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]
    return f"{fingerprint}-p{digest}"


def _decode_results(document: dict) -> dict:
    """The stored results, accepted only as a dict of per-strategy summary
    dicts keyed exactly by the echoed strategies (anything else is a miss,
    never a request-path error or a wrong-shaped answer)."""
    results = document["results"]
    if not isinstance(results, dict) or sorted(results) != sorted(
        document["strategies"]
    ):
        raise ValueError("program results do not match the echoed strategies")
    if not all(isinstance(summary, dict) for summary in results.values()):
        raise ValueError("program results must be per-strategy summary dicts")
    return results


def _copy_results(results: dict) -> dict:
    # One level deep is enough: values are plain float/int summary dicts.
    return {strategy: dict(summary) for strategy, summary in results.items()}


#: Callers get copies: responses hand results to clients, who may mutate them.
PROGRAM_CODEC = Codec(
    PROGRAM_CACHE_FORMAT_VERSION,
    lambda results: {"results": results},
    _decode_results,
    _copy_results,
)
