"""Compile benchmark circuits onto the 10x10 device under all three basis sets.

Reproduces the Table II workflow on a configurable subset of the paper's
benchmark suite through the batch pipeline API: each (device, strategy)
``Target`` is built once (optionally served from the fleet engine's on-disk
cache), every circuit is SABRE laid out and routed once, and independent
circuits fan out over a thread or process pool.

Run with:  python examples/compile_benchmarks.py [--workers N] [benchmark ...]
e.g.       python examples/compile_benchmarks.py --workers 4 --executor process \
               --cache-dir .target-cache bv_29 qft_10
"""

from __future__ import annotations

import argparse

from repro.experiments.config import CaseStudyConfig, case_study_device
from repro.experiments.table2 import TABLE2_BENCHMARKS, format_table2, table2_rows

DEFAULT_SUBSET = ["bv_9", "bv_19", "bv_29", "qft_10", "cuccaro_10", "qaoa_0.1_10", "qaoa_0.33_10"]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmarks", nargs="*", default=None)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool size for the batch compilation; omitted or <= 1 "
        "means serial",
    )
    parser.add_argument(
        "--executor",
        choices=("thread", "process"),
        default="thread",
        help="fan-out flavour when --workers > 1 (process = true parallelism)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persist per-strategy Target snapshots here (the target store); "
        "repeat runs skip calibration",
    )
    args = parser.parse_args(argv)

    names = args.benchmarks or DEFAULT_SUBSET
    unknown = [n for n in names if n not in TABLE2_BENCHMARKS]
    if unknown:
        raise SystemExit(
            f"unknown benchmarks {unknown}; available: {sorted(TABLE2_BENCHMARKS)}"
        )
    config = CaseStudyConfig()
    device = case_study_device(config)
    print(
        f"Compiling {len(names)} benchmarks onto a {config.rows}x{config.cols} grid "
        f"(T = {config.coherence_time_us} us, 1Q = {config.single_qubit_gate_ns} ns)...\n"
    )
    rows = table2_rows(
        benchmarks=names,
        device=device,
        config=config,
        max_workers=args.workers,
        executor=args.executor,
        cache_dir=args.cache_dir,
    )
    print(format_table2(rows))
    print(
        "\nColumns are coherence-limited circuit fidelities; 'paper' columns show the "
        "values reported in Table II of the paper for the same benchmark."
    )


if __name__ == "__main__":
    main()
