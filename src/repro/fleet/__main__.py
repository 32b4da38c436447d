"""Command-line entry point for fleet sweeps.

Examples::

    python -m repro.fleet                                # tiny default sweep
    python -m repro.fleet --topology grid:3x3 --topology heavy_hex:3 \
        --draws 3 --circuits ghz_4 bv_5 qft_4 \
        --cache-dir .fleet-cache --workers 4 --executor process \
        --output benchmarks/fleet_results.json
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields as dataclass_fields

from repro.compiler.cost import available_mapping_names
from repro.compiler.pipeline.batch import EXECUTORS
from repro.fleet.spec import FleetSpec, TopologySpec
from repro.fleet.sweep import FleetResult, run_sweep

DEFAULT_TOPOLOGIES = ("grid:3x3", "linear:6")

#: CLI defaults come straight from the FleetSpec dataclass, so the two entry
#: points (`run_sweep(FleetSpec(...))` and `python -m repro.fleet`) cannot
#: silently drift apart.
_SPEC_DEFAULTS = {field.name: field.default for field in dataclass_fields(FleetSpec)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Monte-Carlo sweep of basis-gate selection strategies "
        "over a fleet of simulated devices.",
    )
    parser.add_argument(
        "--topology",
        action="append",
        dest="topologies",
        metavar="FAMILY:SIZE",
        help="topology to include (repeatable): grid:RxC, linear:N or "
        f"heavy_hex:D; default: {list(DEFAULT_TOPOLOGIES)}",
    )
    parser.add_argument(
        "--draws", type=int, default=_SPEC_DEFAULTS["draws"], help="seeded frequency draws per topology"
    )
    parser.add_argument("--seed", type=int, default=_SPEC_DEFAULTS["base_seed"], help="first device seed")
    parser.add_argument(
        "--strategies",
        nargs="+",
        default=list(_SPEC_DEFAULTS["strategies"]),
        help="strategies to compare (first listed need not be the baseline)",
    )
    parser.add_argument(
        "--baseline",
        default=_SPEC_DEFAULTS["baseline_strategy"],
        help="fixed-basis strategy that win rates are computed against",
    )
    parser.add_argument(
        "--circuits",
        nargs="+",
        default=list(_SPEC_DEFAULTS["circuits"]),
        help="benchmark circuits, e.g. ghz_4 bv_9 qft_10 qaoa_0.33_10",
    )
    parser.add_argument(
        "--mappings",
        nargs="+",
        default=list(_SPEC_DEFAULTS["mappings"]),
        metavar="MAPPING",
        help="layout/routing metrics to sweep (e.g. hop_count basis_aware); "
        "the first listed is the comparison reference; registered: "
        f"{list(available_mapping_names())}",
    )
    parser.add_argument(
        "--compile-seed", type=int, default=_SPEC_DEFAULTS["compile_seed"], help="layout/routing seed"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan-out width for batch compilation; omitted or <= 1 is serial",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=_SPEC_DEFAULTS["executor"],
        help="fan-out flavour when --workers > 1",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent target-cache directory; warm reruns skip calibration",
    )
    parser.add_argument(
        "--coherence-us", type=float, default=_SPEC_DEFAULTS["coherence_time_us"], help="per-qubit T in microseconds"
    )
    parser.add_argument(
        "--gate-ns",
        type=float,
        default=_SPEC_DEFAULTS["single_qubit_gate_ns"],
        help="single-qubit gate duration in nanoseconds",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write machine-readable JSON results here",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the human-readable table"
    )
    return parser


def main(argv: list[str] | None = None) -> FleetResult:
    args = build_parser().parse_args(argv)
    topology_texts = args.topologies or list(DEFAULT_TOPOLOGIES)
    try:
        spec = FleetSpec(
            topologies=tuple(TopologySpec.parse(text) for text in topology_texts),
            draws=args.draws,
            base_seed=args.seed,
            strategies=tuple(args.strategies),
            baseline_strategy=args.baseline,
            circuits=tuple(args.circuits),
            mappings=tuple(args.mappings),
            compile_seed=args.compile_seed,
            max_workers=args.workers,
            executor=args.executor,
            cache_dir=args.cache_dir,
            coherence_time_us=args.coherence_us,
            single_qubit_gate_ns=args.gate_ns,
        )
        result = run_sweep(spec)
    except ValueError as error:
        # Malformed specs (bad topology/circuit/strategy names, impossible
        # circuit sizes, ...) exit nonzero with a one-line readable message
        # instead of a traceback.
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2) from error
    if not args.quiet:
        print(
            f"Fleet: {spec.device_count} devices "
            f"({', '.join(t.label for t in spec.topologies)}; "
            f"{spec.draws} draws) x {len(spec.circuits)} circuits x "
            f"{len(spec.strategies)} strategies x "
            f"{len(spec.mappings)} mappings = {len(result.cells)} cells\n"
        )
        print(result.format_table())
        if result.mapping_comparison:
            print(
                f"\nMapping vs {spec.baseline_mapping!r} "
                "(negative deltas = improvement):"
            )
            print(result.format_mapping_table())
        if result.cache_stats is not None:
            print(
                f"\nTarget cache: {result.cache_stats['disk_hits']} hits, "
                f"{result.cache_stats['misses']} misses "
                f"(hit rate {result.cache_stats['hit_rate'] * 100:.0f}%)"
            )
    if args.output is not None:
        path = result.write_json(args.output)
        if not args.quiet:
            print(f"\nWrote {path}")
    return result


if __name__ == "__main__":
    main()
