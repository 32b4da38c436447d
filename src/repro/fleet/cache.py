"""Completed :class:`Target` snapshots in the content-addressed store.

Basis-gate selection (simulating each edge's Cartan trajectory) dominates
the cost of compiling onto a fresh device, and it depends only on the device
and the strategy -- never on the circuit.  The in-memory ``build_target``
memo already makes it build-once per process; a
:class:`~repro.store.ContentStore` with :data:`TARGET_CODEC` extends that
across processes and runs by persisting ``Target.to_dict()`` snapshots (plus
the derived per-edge :class:`~repro.compiler.cost.CostModel` consumed by
basis-aware mapping) under a content-addressed key:

    ``sha256(device inputs)`` + strategy name + registry generation

The key scheme makes invalidation automatic rather than managed:

* mutate the device in place (frequencies, amplitudes, coherence, graph) and
  the fingerprint changes, so the old entry is simply never matched again;
* re-register a strategy name (``register_strategy(..., overwrite=True)``)
  and the registry generation in the key changes likewise;
* corrupt or truncated files are treated as misses and rebuilt.

Entries never need deleting for correctness; ``clear()`` exists for disk
hygiene only.  :func:`get_target` is the one place a complete target is
built for a store -- fleet sweeps, Table II, the service, the drift sweep
and the ops harness all resolve targets through it.
"""

from __future__ import annotations

import hashlib
import re

from repro.compiler.cost import CostModel
from repro.compiler.pipeline.registry import REGISTRY
from repro.compiler.pipeline.target import Target, build_target
from repro.fleet.devices import device_fingerprint
from repro.store import Codec, ContentStore

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
    """The content-addressed key for one (device, strategy) cell."""
    fingerprint = device_fingerprint(device) if fingerprint is None else fingerprint
    safe_strategy = re.sub(r"[^A-Za-z0-9_.-]", "_", strategy)
    if safe_strategy != strategy:
        # Sanitization can collide distinct names (e.g. "crit@v2" and
        # "crit_v2"); a digest of the raw name keeps their keys apart.
        digest = hashlib.sha256(strategy.encode("utf-8")).hexdigest()[:8]
        safe_strategy = f"{safe_strategy}.{digest}"
    return f"{fingerprint}-{safe_strategy}-g{REGISTRY.generation(strategy)}"


def _encode_target(target: Target) -> dict:
    # Stored alongside the selections so warm basis-aware sweeps skip even
    # the (cheap) per-edge cost derivation.
    return {"target": target.to_dict(), "cost_model": target.cost_model().to_dict()}


def _decode_target(document: dict) -> Target:
    # Served targets are *detached*: compilation never touches the device's
    # lazy calibration caches, which is the whole point -- a warm fleet
    # sweep skips calibration entirely.
    target = Target.from_dict(document["target"])
    return target.attach_cost_model(CostModel.from_dict(document["cost_model"]))


#: Targets are never mutated once complete (``with_selections`` copies), so
#: readers share the held object.
TARGET_CODEC = Codec(CACHE_FORMAT_VERSION, _encode_target, _decode_target)


def _build_complete_target(device, strategy: str) -> Target:
    """The expensive path: per-edge basis-gate selection on the device."""
    target = build_target(device, strategy).complete()
    # Derive the cost model while the entry is hot so basis-aware requests
    # never pay for it inside a dispatch.
    target.cost_model()
    return target


def get_target(
    store: ContentStore, device, strategy: str, fingerprint: str | None = None
) -> tuple[Target, str]:
    """The completed target for a cell, plus the layer that served it.

    ``source`` is ``"memory"``, ``"disk"`` or ``"built"``.  A miss builds
    under the store's entry lock, so concurrent cold callers over one
    directory build each cell once.  ``fingerprint`` lets callers that
    already hashed the device (it walks every edge) skip re-hashing.
    """
    fingerprint = device_fingerprint(device) if fingerprint is None else fingerprint
    echo = {
        "fingerprint": fingerprint,
        "strategy": strategy,
        "generation": REGISTRY.generation(strategy),
    }
    return store.get_or_build(
        target_cache_key(device, strategy, fingerprint),
        echo,
        lambda: _build_complete_target(device, strategy),
    )
