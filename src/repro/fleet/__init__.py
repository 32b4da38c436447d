"""Device-fleet scenario engine: Monte-Carlo strategy sweeps.

The paper demonstrates per-edge basis-gate selection on one sampled device;
this package scales the demonstration to a *fleet* -- many topologies
(grid / linear / heavy-hex at parameterized sizes) x many seeded frequency
draws -- and aggregates per-strategy fidelity/duration distributions plus
win rates against the fixed-basis baseline.

Two performance layers keep sweeps fast:

* a :class:`~repro.store.ContentStore` with
  :data:`~repro.fleet.cache.TARGET_CODEC` persists completed per-device
  ``Target`` snapshots on disk (keyed by device fingerprint + strategy +
  registry generation), so recompiles across runs skip calibration entirely;
* ``transpile_batch(..., executor="process")`` fans CPU-bound compilation
  out over a process pool with pickle-safe targets.

Quickstart::

    from repro.fleet import FleetSpec, TopologySpec, run_sweep

    spec = FleetSpec(
        topologies=(TopologySpec.grid(3, 3), TopologySpec.linear(6)),
        draws=3,
        cache_dir=".fleet-cache",
    )
    result = run_sweep(spec)
    print(result.format_table())
    result.write_json("benchmarks/fleet_results.json")

or, from the shell: ``python -m repro.fleet --topology grid:3x3 --draws 3``.
See ``docs/fleet.md`` for the full specification and cache semantics.
"""

from repro.fleet.cache import TARGET_CODEC, get_target
from repro.fleet.devices import (
    FINGERPRINT_FIELDS,
    Scenario,
    build_device,
    device_fingerprint,
    fingerprint_payload,
    fleet_scenarios,
    iter_fleet,
    make_device,
)
from repro.fleet.spec import TOPOLOGY_FAMILIES, FleetSpec, TopologySpec
from repro.fleet.sweep import (
    CellResult,
    FleetResult,
    StrategyAggregate,
    aggregate_cells,
    aggregate_label,
    build_circuit,
    circuit_qubit_count,
    compare_mappings,
    run_sweep,
)

__all__ = [
    "TARGET_CODEC",
    "get_target",
    "FINGERPRINT_FIELDS",
    "Scenario",
    "build_device",
    "device_fingerprint",
    "fingerprint_payload",
    "fleet_scenarios",
    "iter_fleet",
    "make_device",
    "TOPOLOGY_FAMILIES",
    "FleetSpec",
    "TopologySpec",
    "CellResult",
    "FleetResult",
    "StrategyAggregate",
    "aggregate_cells",
    "aggregate_label",
    "build_circuit",
    "circuit_qubit_count",
    "compare_mappings",
    "run_sweep",
]
