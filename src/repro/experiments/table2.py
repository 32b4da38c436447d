"""Table II: coherence-limited circuit fidelities of the benchmark suite.

Each benchmark circuit is laid out and routed once (SABRE-style) and then
translated to each of the three basis-gate sets; the reported number is the
paper's circuit fidelity model ``prod_q exp(-t_q / T)``.

Paper reference values are kept alongside so that reports (and
``EXPERIMENTS.md``) can show paper-vs-measured for every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import (
    bernstein_vazirani,
    cuccaro_adder,
    qaoa_circuit,
    qft_circuit,
)
from repro.compiler.pipeline.batch import transpile_batch
from repro.device.device import Device
from repro.experiments.config import CaseStudyConfig, case_study_device

#: Paper's Table II (fractions, not percent), keyed by benchmark name.
PAPER_TABLE2 = {
    "qft_10": (0.582, 0.656, 0.708),
    "qft_20": (0.0133, 0.0603, 0.0994),
    "bv_9": (0.887, 0.944, 0.953),
    "bv_19": (0.793, 0.899, 0.910),
    "bv_29": (0.445, 0.725, 0.743),
    "bv_39": (0.268, 0.563, 0.597),
    "bv_49": (0.277, 0.584, 0.624),
    "bv_59": (0.125, 0.438, 0.474),
    "bv_69": (0.0915, 0.394, 0.432),
    "bv_79": (0.00428, 0.113, 0.142),
    "bv_89": (0.0244, 0.231, 0.263),
    "bv_99": (0.0006, 0.0626, 0.0797),
    "cuccaro_10": (0.215, 0.463, 0.526),
    "cuccaro_20": (0.008, 0.0768, 0.118),
    "qaoa_0.1_10": (0.972, 0.985, 0.988),
    "qaoa_0.1_20": (0.844, 0.920, 0.936),
    "qaoa_0.1_30": (0.144, 0.433, 0.490),
    "qaoa_0.1_40": (0.0000585, 0.0559, 0.0856),
    "qaoa_0.33_10": (0.661, 0.810, 0.843),
    "qaoa_0.33_20": (0.150, 0.422, 0.482),
}

#: Benchmark name -> circuit factory, in the order the paper lists them.
TABLE2_BENCHMARKS: dict[str, Callable[[], QuantumCircuit]] = {
    "qft_10": lambda: qft_circuit(10),
    "qft_20": lambda: qft_circuit(20),
    "bv_9": lambda: bernstein_vazirani(9),
    "bv_19": lambda: bernstein_vazirani(19),
    "bv_29": lambda: bernstein_vazirani(29),
    "bv_39": lambda: bernstein_vazirani(39),
    "bv_49": lambda: bernstein_vazirani(49),
    "bv_59": lambda: bernstein_vazirani(59),
    "bv_69": lambda: bernstein_vazirani(69),
    "bv_79": lambda: bernstein_vazirani(79),
    "bv_89": lambda: bernstein_vazirani(89),
    "bv_99": lambda: bernstein_vazirani(99),
    "cuccaro_10": lambda: cuccaro_adder(10),
    "cuccaro_20": lambda: cuccaro_adder(20),
    "qaoa_0.1_10": lambda: qaoa_circuit(10, 0.1, seed=7),
    "qaoa_0.1_20": lambda: qaoa_circuit(20, 0.1, seed=7),
    "qaoa_0.1_30": lambda: qaoa_circuit(30, 0.1, seed=7),
    "qaoa_0.1_40": lambda: qaoa_circuit(40, 0.1, seed=7),
    "qaoa_0.33_10": lambda: qaoa_circuit(10, 0.33, seed=7),
    "qaoa_0.33_20": lambda: qaoa_circuit(20, 0.33, seed=7),
}

#: A small subset used when REPRO_FAST is set (keeps CI-style runs short).
FAST_SUBSET = ("bv_9", "bv_19", "qft_10", "cuccaro_10", "qaoa_0.1_10", "qaoa_0.33_10")


@dataclass(frozen=True)
class Table2Row:
    """One row of Table II."""

    benchmark: str
    baseline: float
    criterion1: float
    criterion2: float
    swap_count: int
    paper_baseline: float | None = None
    paper_criterion1: float | None = None
    paper_criterion2: float | None = None

    def as_dict(self) -> dict[str, float]:
        """Row as a plain dictionary."""
        return {
            "benchmark": self.benchmark,  # type: ignore[dict-item]
            "baseline": self.baseline,
            "criterion1": self.criterion1,
            "criterion2": self.criterion2,
            "swap_count": float(self.swap_count),
        }


def table2_rows(
    benchmarks: list[str] | None = None,
    device: Device | None = None,
    config: CaseStudyConfig | None = None,
    seed: int = 17,
    max_workers: int | None = None,
    executor: str = "thread",
    cache_dir: str | None = None,
    mapping: str = "hop_count",
) -> list[Table2Row]:
    """Compute Table II rows for the requested benchmarks (default: all).

    The whole workload goes through :func:`transpile_batch`: each
    (device, strategy) target is built once, every circuit is laid out and
    routed once, and independent circuits compile concurrently when
    ``max_workers`` allows -- over threads or, with ``executor="process"``,
    a process pool.  ``cache_dir`` routes the targets through the persistent
    target store (:func:`~repro.fleet.cache.get_target`), so repeat runs
    against the same device skip calibration entirely.

    ``mapping`` selects the layout/routing metric (``"hop_count"``
    reproduces the paper's setup; ``"basis_aware"`` routes each strategy
    onto its own cheap edges, in which case SWAP counts become
    strategy-dependent -- the reported ``swap_count`` stays the baseline
    row's for comparability).
    """
    config = config if config is not None else CaseStudyConfig()
    device = device if device is not None else case_study_device(config)
    names = list(TABLE2_BENCHMARKS) if benchmarks is None else list(benchmarks)
    for name in names:
        if name not in TABLE2_BENCHMARKS:
            raise KeyError(f"unknown benchmark {name!r}")

    targets = None
    if cache_dir is not None:
        from repro.fleet.cache import TARGET_CODEC, get_target
        from repro.store import ContentStore

        store = ContentStore(TARGET_CODEC, len(config.strategies), cache_dir)
        targets = {
            strategy: get_target(store, device, strategy)[0]
            for strategy in config.strategies
        }

    circuits = [TABLE2_BENCHMARKS[name]() for name in names]
    batch = transpile_batch(
        circuits,
        device,
        strategies=config.strategies,
        seed=seed,
        max_workers=max_workers,
        executor=executor,
        targets=targets,
        mapping=mapping,
    )

    rows: list[Table2Row] = []
    for name, compiled in zip(names, batch):
        paper = PAPER_TABLE2.get(name, (None, None, None))
        rows.append(
            Table2Row(
                benchmark=name,
                baseline=compiled["baseline"].fidelity,
                criterion1=compiled["criterion1"].fidelity,
                criterion2=compiled["criterion2"].fidelity,
                swap_count=compiled["baseline"].swap_count,
                paper_baseline=paper[0],
                paper_criterion1=paper[1],
                paper_criterion2=paper[2],
            )
        )
    return rows


def format_table2(rows: list[Table2Row]) -> str:
    """Format Table II with measured and paper values side by side."""
    header = (
        f"{'Benchmark':<14} {'Baseline':>10} {'Crit. 1':>10} {'Crit. 2':>10}"
        f"   {'paper B':>9} {'paper C1':>9} {'paper C2':>9}  {'#SWAP':>6}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        paper = (
            f"{_pct(row.paper_baseline):>9} {_pct(row.paper_criterion1):>9} "
            f"{_pct(row.paper_criterion2):>9}"
        )
        lines.append(
            f"{row.benchmark:<14} {row.baseline * 100:>9.2f}% {row.criterion1 * 100:>9.2f}% "
            f"{row.criterion2 * 100:>9.2f}%   {paper}  {row.swap_count:>6d}"
        )
    return "\n".join(lines)


def _pct(value: float | None) -> str:
    return "-" if value is None else f"{value * 100:.2f}%"


def ordering_violations(rows: list[Table2Row]) -> list[str]:
    """Benchmarks where the paper's ordering (C2 >= C1 >= baseline) fails."""
    violations = []
    for row in rows:
        if not (row.criterion2 >= row.criterion1 >= row.baseline):
            violations.append(row.benchmark)
    return violations
