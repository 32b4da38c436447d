"""The library workload ``compile_cold``: first optimized compiles on
never-seen devices.

It runs the compiler in this process, closed loop, one thread, and times
each ``PassManager.run`` call.  See ``perfbench/README.md`` for why the
workload exists and which layer it isolates.
"""

from __future__ import annotations

import time

from common import FAILED, percentile, self_peak_rss_mb

#: The circuits every fresh device compiles, in this order.
COLD_CIRCUITS = ("qft_4", "qaoa_0.5_5", "cuccaro_4")
#: The devices every run compiles, in this order, whatever its seed.
COLD_DEVICES = tuple(range(1000, 1008))
#: The highest percentile the 24 compiles of a run support (README).
COLD_TAIL_PERCENTILE = 75


# -- output checks ------------------------------------------------------------


def _compact(circuits, layout):
    """Re-address circuits onto only the wires they touch.

    Wires no gate touches carry the identity in every circuit, so dropping
    them preserves unitary equivalence; it keeps the dense harness at 2^k
    for the k touched wires instead of 2^n for the whole device.
    """
    from repro.circuits.circuit import QuantumCircuit

    wires = sorted(
        {q for circuit in circuits for gate in circuit.gates for q in gate.qubits}
        | set(layout.values())
    )
    index = {wire: i for i, wire in enumerate(wires)}
    compacted = []
    for circuit in circuits:
        out = QuantumCircuit(len(wires), name=circuit.name)
        for gate in circuit.gates:
            out.append(gate.with_qubits(*(index[q] for q in gate.qubits)))
        compacted.append(out)
    return compacted, {logical: index[wire] for logical, wire in layout.items()}


def check_optimized_compile(source, compiled) -> str | None:
    """None when the compile is proven correct, else the reason it is not.

    The optimizer's block-local proof (``verify_consolidation``) runs on
    every compile; the dense harness proves routed == source and optimized
    == routed when the compile fits its 10-qubit limit.
    """
    from repro.circuits.equivalence import circuits_equivalent, routed_equivalent
    from repro.compiler.optimizer import verify_consolidation

    try:
        verify_consolidation(compiled.optimization)
        if compiled.routing.circuit.n_qubits > 10:
            return None
        (routed, optimized), layout = _compact(
            [compiled.routing.circuit, compiled.optimization.circuit],
            compiled.routing.initial_layout,
        )
        if not routed_equivalent(source, routed, layout):
            return "routed circuit is not equivalent to its source"
        if not circuits_equivalent(routed, optimized):
            return "optimized circuit is not equivalent to the routed one"
    except ValueError as error:
        return str(error)
    return None


# -- the workload ----------------------------------------------------------------


def cold_setup():
    from repro import PassManager
    from repro.fleet.devices import make_device
    from repro.fleet.spec import TopologySpec
    from repro.fleet.sweep import build_circuit

    circuits = {name: build_circuit(name) for name in COLD_CIRCUITS}
    topology = TopologySpec.parse("grid:3x3")
    return PassManager, make_device, topology, circuits


def run_compile_cold(tracer, state) -> dict:
    """Compile every circuit on every device of the fixed set, once.

    A run does the same work whatever its seed, ``--seconds`` or the host's
    speed.  A cold compile costs 0.1-3.5 s today depending on the device,
    and the numerical oracle's cross-query warm starts move cost between
    devices with their order, so only a fixed list of devices in a fixed
    order times the same work in every run (README).
    """
    PassManager, make_device, topology, circuits = state
    from repro.synthesis.numerical import synthesis_memo_stats

    latencies = []
    busy = 0.0
    failures = []
    compiles = []  # light per-compile results
    misses_before = synthesis_memo_stats().misses
    started = time.perf_counter()
    for device_seed in COLD_DEVICES:
        device = make_device(topology, seed=device_seed)
        for name in COLD_CIRCUITS:
            begin = time.perf_counter()
            with tracer.span("op"):
                compiled = PassManager.default(
                    "criterion2", mapping="basis_aware", optimize=True
                ).run(circuits[name], device=device)
            elapsed = time.perf_counter() - begin
            busy += elapsed
            reason = check_optimized_compile(circuits[name], compiled)
            if reason is not None:
                failures.append(f"device {device_seed} {name}: {reason}")
            latencies.append(FAILED if reason is not None else elapsed * 1000.0)
            compiles.append((device_seed, name, elapsed, compiled.swap_count,
                             compiled.optimization.blocks_consolidated,
                             compiled.optimization.blocks_dropped,
                             compiled.two_qubit_layer_count, compiled.fidelity))
    ended = time.perf_counter()

    return {
        "latencies_ms": latencies,
        "latency_ms_p50": percentile(latencies, 50),
        "latency_ms_tail": percentile(latencies, COLD_TAIL_PERCENTILE),
        "throughput": len(latencies) / busy,
        "peak_rss_mb": self_peak_rss_mb(),
        "two_qubit_layers": sum(op[6] for op in compiles),
        "mean_fidelity": sum(op[7] for op in compiles) / len(compiles),
        "attempted": len(latencies),
        "failures": failures,
        "window": (started, ended),
        "layers": {
            "routing.swaps": sum(op[3] for op in compiles),
            "optimize.blocks_consolidated": sum(op[4] for op in compiles),
            "optimize.blocks_dropped": sum(op[5] for op in compiles),
            "synthesis.misses": synthesis_memo_stats().misses - misses_before,
        },
        "record": {
            "tail_percentile": COLD_TAIL_PERCENTILE,
            "samples_beyond_tail": len(latencies) * (100 - COLD_TAIL_PERCENTILE) / 100,
            "compile_ms": [[op[0], op[1], round(op[2] * 1000.0, 1)] for op in compiles],
        },
    }
