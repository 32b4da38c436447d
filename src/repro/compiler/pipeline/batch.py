"""Batch compilation: many circuits x many strategies, targets built once.

``transpile_batch`` is the workhorse behind ``compare_strategies``, the
Table II experiment and the fleet scenario engine.  It mirrors the paper's
methodology:

* each circuit is laid out and routed **once** (layout and routing do not
  depend on the basis gates), so fidelity differences across strategies
  reflect the basis-gate choice only;
* each (device, strategy) :class:`Target` is built **once** for the whole
  batch instead of being re-derived per circuit;
* independent circuits fan out over a ``concurrent.futures`` executor.

The execution machinery itself lives in
:mod:`~repro.compiler.pipeline.dispatch`: a :class:`DispatchContext` bundles
the batch inputs and a :class:`BatchDispatcher` owns the worker pool.
``transpile_batch`` is the one-shot wrapper -- it builds a context, runs a
throwaway dispatcher and tears the pool down again.  Long-lived callers (the
compilation service) keep a persistent dispatcher instead so warm batches
reuse live workers; both produce byte-identical seeded results.

Two executors are available.  ``executor="thread"`` shares the device and
targets in-process; the compilation stages are mostly GIL-bound pure Python,
so threads mainly help workloads that release the GIL in numpy.
``executor="process"`` ships a pickled device (lazy calibration caches
stripped, see ``Device.__getstate__``) plus ``Target.to_dict()`` snapshots to
each worker once, via the pool initializer, and compiles with true
parallelism; results are byte-identical to the serial path because target
serialization round-trips every float exactly.

Callers that already hold targets (for example from the persistent target
store, :func:`~repro.fleet.cache.get_target`) can pass them in via ``targets=`` to
skip ``build_target`` entirely.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.cost import DEFAULT_MAPPING, validate_mapping
from repro.compiler.pipeline.dispatch import (
    EXECUTORS,
    BatchDispatcher,
    DispatchContext,
    compile_with_targets,
)
from repro.compiler.pipeline.registry import validate_strategy
from repro.compiler.pipeline.result import CompiledCircuit
from repro.compiler.pipeline.target import Target, build_target

__all__ = [
    "DEFAULT_STRATEGIES",
    "EXECUTORS",
    "compile_with_targets",
    "resolve_targets",
    "transpile_batch",
]

DEFAULT_STRATEGIES = ("baseline", "criterion1", "criterion2")


def resolve_targets(
    device,
    strategies: tuple[str, ...],
    targets: Mapping[str, Target] | None,
    *,
    eager: bool = False,
    max_workers: int | None = None,
) -> dict[str, Target]:
    """The targets to compile against, in strategy order.

    With ``targets=None`` every strategy's target is built (memoised) from
    the device; otherwise the provided mapping must cover every requested
    strategy -- a partially supplied batch would silently mix cached and
    freshly built snapshots.

    By default targets stay lazy so small workloads only calibrate the edges
    they touch.  ``eager=True`` resolves every edge of every target up front,
    fanning the per-edge trajectory simulation out over ``max_workers``
    threads (``Target.complete``); selections are byte-identical to lazy
    resolution.

    Example::

        resolve_targets(device, ("baseline", "criterion2"), None)
        # {'baseline': <Target>, 'criterion2': <Target>}
        resolve_targets(device, ("criterion2",), {})   # ValueError: missing
    """
    if targets is None:
        resolved = {
            strategy: build_target(device, strategy) for strategy in strategies
        }
    else:
        missing = [strategy for strategy in strategies if strategy not in targets]
        if missing:
            raise ValueError(
                f"targets= is missing strategies {missing}; provided: {sorted(targets)}"
            )
        resolved = {strategy: targets[strategy] for strategy in strategies}
    if eager:
        for target in resolved.values():
            target.complete(max_workers=max_workers)
    return resolved


def transpile_batch(
    circuits: Sequence[QuantumCircuit],
    device,
    strategies: Iterable[str] = DEFAULT_STRATEGIES,
    *,
    seed: int = 17,
    max_workers: int | None = None,
    executor: str = "thread",
    targets: Mapping[str, Target] | None = None,
    mapping: str = DEFAULT_MAPPING,
    optimize: bool = False,
) -> list[dict[str, CompiledCircuit]]:
    """Compile many circuits under many strategies with shared targets.

    Returns one ``{strategy: CompiledCircuit}`` dict per input circuit, in
    input order.  ``max_workers=None`` (the default) or ``<= 1`` runs
    serially, keeping per-edge laziness so small workloads only calibrate the
    edges they touch; an explicit ``max_workers > 1`` fans out, which first
    resolves every target edge.

    ``executor`` selects the fan-out flavour: ``"thread"`` (default) shares
    the device in-process and is mostly GIL-bound; ``"process"`` ships the
    device and ``Target.to_dict()`` snapshots to each worker once and runs
    CPU-bound compilation in parallel.  Both produce byte-identical seeded
    results to the serial path, in input order.

    ``targets`` optionally supplies pre-built :class:`Target` snapshots (one
    per strategy) instead of ``build_target`` -- e.g. deserialized from the
    fleet engine's on-disk cache.

    ``mapping`` selects the layout/routing metric (``"hop_count"`` default;
    ``"basis_aware"`` routes each strategy against its own
    :class:`~repro.compiler.cost.CostModel`, which resolves every target
    edge even in serial runs).

    ``optimize=True`` runs the block-consolidation optimizer on every routed
    circuit before translation (``docs/optimizer.md``); the default
    ``False`` keeps batch output byte-identical to the pre-optimizer seed.

    Example::

        results = transpile_batch(
            [ghz_circuit(4), qft_circuit(4)], device,
            strategies=("baseline", "criterion2"),
            max_workers=4, executor="process",
        )
        for per_strategy in results:
            print({s: c.fidelity for s, c in per_strategy.items()})
    """
    strategies = tuple(strategies)
    for strategy in strategies:
        validate_strategy(strategy)
    validate_mapping(mapping)
    context = DispatchContext(
        device,
        resolve_targets(device, strategies, targets),
        mapping=mapping,
        seed=seed,
        optimize=optimize,
    )
    with BatchDispatcher(executor=executor, max_workers=max_workers) as dispatcher:
        return dispatcher.dispatch(circuits, context)
