"""CI perf gate: compare a fresh benchmark run against a committed baseline.

Given a baseline JSON (committed under ``benchmarks/BENCH_*.json``) and a
freshly produced run of the same benchmark, this script checks a fixed set
of metrics and **fails (exit 1) on any regression beyond tolerance** --
by default 15% (``--tolerance`` / ``PERF_GATE_TOLERANCE`` override it, e.g.
on noisy shared runners).

Three benchmark kinds are understood, keyed by the files' ``benchmark`` field:

* ``service`` (``bench_service.py``) -- cold/warm throughput, latency
  percentiles, the cold target-build time (``build.batched_s``) and the
  warm-over-cold speedup (which must also clear the
  :data:`SPEEDUP_FLOOR` of 5x regardless of the baseline).  Tail latency
  (p95) gets a wider default tolerance than the medians because it is the
  noisiest statistic of a short run.  A same-machine ratio gate rides
  along: the **program cache** must beat the no-cache control by
  :data:`PROGRAM_SPEEDUP_FLOOR` (``REPRO_PROGRAM_SPEEDUP_FLOOR``
  overrides) with a >= 0.9 hit rate on the repeat-traffic phase and
  byte-identical results cache-on vs cache-off.
* ``routing`` (``bench_routing.py``) -- per-(circuit, mapping) swap count,
  SWAP-synthesis duration and fidelity.  These are *deterministic* given
  the seeds, so any drift beyond tolerance is a real behaviour change, not
  noise.  Per-cell wall-times are reported but not gated; the suite-total
  routing-pass time (``routing.vectorized_s``) is, against the committed
  baseline like every other wall-clock row.  The router and the target
  build each have one implementation, so their speed is held to committed
  numbers rather than to a slower in-tree twin.  The 2Q-block
  consolidation optimizer rides on the same document: its suite-mean 2Q
  depth reduction must clear :data:`OPTIMIZER_DEPTH_FLOOR`
  (``REPRO_OPTIMIZER_DEPTH_FLOOR`` overrides), every optimized cell must
  have passed the equivalence harness during the bench run, and no cell may
  lose depth or fidelity to the optimizer -- all read from the current run
  alone, since optimized and unoptimized compiles share one process.  The
  same holds for the cold optimizer gate: summed over the suite, a cell's
  first ``optimize=True`` compile in a fresh process may take at most
  :data:`OPTIMIZER_FRESH_RATIO` times its first ``optimize=False`` one.
* ``cluster`` (``bench_cluster.py``) -- warm cluster vs single-process
  throughput plus the cluster's *functional* invariants: the overload phase
  must shed (with zero errors), the warm-store restart must serve from disk
  without rebuilding, and no post-calibrate response may carry a stale
  fingerprint.  The >= :data:`CLUSTER_SPEEDUP_FLOOR` cluster-over-single
  speedup applies only when the current run had at least 2 CPUs (the
  document records ``cpus``); on a single core the shards time-slice one
  core and only a :data:`CLUSTER_SINGLE_CPU_FLOOR` sanity floor applies.
  ``REPRO_CLUSTER_SPEEDUP_FLOOR`` overrides the active floor either way.

Refreshing baselines (after an intentional perf or behaviour change)::

    PYTHONPATH=src python benchmarks/bench_routing.py \
        --output benchmarks/BENCH_routing.json
    PYTHONPATH=src python benchmarks/bench_service.py \
        --output benchmarks/BENCH_service.json

then commit the updated ``BENCH_*.json`` files with a note on why the
numbers moved.  See docs/service.md ("Performance baselines").
"""

from __future__ import annotations

import argparse
import json
import os

from dataclasses import dataclass
from pathlib import Path

#: The service acceptance criterion: warm traffic must be at least this many
#: times faster than cold traffic, whatever the baseline file says.
SPEEDUP_FLOOR = 5.0

#: The program-cache criterion: warm repeat traffic with the cache on must
#: beat the identical workload with the cache off by this factor.  Both
#: phases run in the same process on the same machine, so the ratio is
#: machine-independent.
PROGRAM_SPEEDUP_FLOOR = 2.0

#: Floor on the warm-phase program-cache hit rate: repeat traffic re-requests
#: identical programs, so anything below this means keys are unstable or the
#: LRU is thrashing.
PROGRAM_HIT_RATE_FLOOR = 0.9

#: The committed warm throughput (req/s) of the last pre-program-cache
#: baseline.  The tentpole acceptance criterion -- warm repeat traffic must
#: at least double it -- stays a standing gate against this constant, since
#: the committed baseline file now records the (much higher) cached number
#: and comparing against *that* would demand a doubling on every refresh.
PRE_CACHE_WARM_RPS = 374.89

#: The cluster acceptance criterion on real multi-core hardware: a warm
#: 2-shard cluster must beat the single-process warm wire throughput by this
#: factor.  Only meaningful with >= 2 CPUs -- shard processes are the
#: parallelism -- so the gate checks the run's recorded ``cpus`` first.
CLUSTER_SPEEDUP_FLOOR = 1.6

#: Sanity floor on single-CPU runners: the front-end hop and process
#: time-slicing cost something, but a warm cluster collapsing below a third
#: of single-process throughput means routing or queueing is broken, not
#: that the machine is small.
CLUSTER_SINGLE_CPU_FLOOR = 0.3

#: The optimizer acceptance criterion: the 2Q-block consolidation pass must
#: cut mean 2Q basis-layer depth across the benchmark suite by at least this
#: fraction.  Deterministic given the seeds, like the other routing metrics.
OPTIMIZER_DEPTH_FLOOR = 0.05

#: The cold optimizer criterion: a fresh process's first optimized compile
#: may cost at most this many times its first unoptimized one (suite
#: totals, both timed on the same machine by the same bench run).
OPTIMIZER_FRESH_RATIO = 2.0

#: Default relative regression tolerance (15%).
DEFAULT_TOLERANCE = 0.15

#: Wider default for tail-latency metrics (short-run p95 is noisy).
TAIL_TOLERANCE = 0.50


@dataclass(frozen=True)
class Check:
    """One gated metric: where it lives and which direction is a regression."""

    label: str
    baseline: float
    current: float
    higher_is_better: bool
    tolerance: float

    @property
    def ratio(self) -> float:
        """current / baseline (inf when the baseline is zero)."""
        if self.baseline == 0:
            return float("inf") if self.current else 1.0
        return self.current / self.baseline

    @property
    def regression(self) -> float:
        """How far past the baseline in the *bad* direction (0 = at/better)."""
        if self.baseline == 0:
            return 0.0
        delta = (self.current - self.baseline) / abs(self.baseline)
        return max(0.0, -delta if self.higher_is_better else delta)

    @property
    def passed(self) -> bool:
        return self.regression <= self.tolerance

    def row(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        arrow = "higher-better" if self.higher_is_better else "lower-better"
        return (
            f"{verdict}  {self.label:<44} baseline {self.baseline:>12.4f} "
            f"current {self.current:>12.4f} ({arrow}, "
            f"regression {self.regression * 100:>5.1f}% / "
            f"tol {self.tolerance * 100:.0f}%)"
        )


def _dig(document: dict, path: str) -> float:
    value = document
    for part in path.split("."):
        value = value[part]
    return float(value)


def service_checks(baseline: dict, current: dict, tolerance: float) -> list[Check]:
    """The gated metrics of one ``bench_service.py`` document pair."""
    checks = []
    # Relative rows track the phases whose cost is real compilation work.
    # The cache-served warm phase is NOT gated against the baseline: its
    # per-request cost is microseconds of pure lookup, so run-to-run ratios
    # measure scheduler noise -- it is held to the absolute floors below
    # instead.
    for path, higher_is_better, tol in (
        ("cold.throughput_rps", True, tolerance),
        ("warm_nocache.throughput_rps", True, tolerance),
        ("cold.latency_ms.p50", False, tolerance),
        ("warm_nocache.latency_ms.p50", False, tolerance),
        ("warm_nocache.latency_ms.p95", False, max(tolerance, TAIL_TOLERANCE)),
        ("build.batched_s", False, tolerance),
    ):
        checks.append(
            Check(
                label=path,
                baseline=_dig(baseline, path),
                current=_dig(current, path),
                higher_is_better=higher_is_better,
                tolerance=tol,
            )
        )
    # The absolute floor is machine-independent: however fast the runner,
    # warm traffic must beat cold traffic by 5x or the caches are broken.
    checks.append(
        Check(
            label="speedup_warm_over_cold >= floor",
            baseline=SPEEDUP_FLOOR,
            current=_dig(current, "speedup_warm_over_cold"),
            higher_is_better=True,
            tolerance=0.0,
        )
    )
    # Program-cache gates read only the current run (the cache-on and
    # cache-off phases share one machine and process).  A current document
    # with no ``program_cache`` block came from a pre-cache bench script and
    # fails loudly rather than skipping the gates.
    program = current.get("program_cache", {})
    program_floor = float(
        os.environ.get("REPRO_PROGRAM_SPEEDUP_FLOOR", PROGRAM_SPEEDUP_FLOOR)
    )
    checks.append(
        Check(
            label="program_cache.speedup_vs_nocache >= floor",
            baseline=program_floor,
            current=float(program.get("speedup_vs_nocache", 0.0)),
            higher_is_better=True,
            tolerance=0.0,
        )
    )
    checks.append(
        Check(
            label=f"program_cache.warm_hit_rate >= {PROGRAM_HIT_RATE_FLOOR}",
            baseline=PROGRAM_HIT_RATE_FLOOR,
            current=float(program.get("warm_hit_rate", 0.0)),
            higher_is_better=True,
            tolerance=0.0,
        )
    )
    checks.append(
        Check(
            label="warm.throughput_rps >= 2x pre-cache committed warm",
            baseline=2.0 * PRE_CACHE_WARM_RPS,
            current=_dig(current, "warm.throughput_rps"),
            higher_is_better=True,
            tolerance=0.0,
        )
    )
    # A functional invariant phrased as a boolean (baseline 1.0, zero
    # tolerance), mirroring the cluster gate's idiom.
    checks.append(
        Check(
            label="program cache byte-identical to recompiling",
            baseline=1.0,
            current=1.0 if program.get("byte_identical", False) else 0.0,
            higher_is_better=True,
            tolerance=0.0,
        )
    )
    return checks


def routing_checks(baseline: dict, current: dict, tolerance: float) -> list[Check]:
    """The gated metrics of one ``bench_routing.py`` document pair.

    Rows pair up by (circuit, mapping); a circuit present in the baseline
    but missing from the current run fails loudly (coverage must not shrink
    silently).
    """
    current_rows = {row["circuit"]: row["mappings"] for row in current["rows"]}
    checks = []
    for row in baseline["rows"]:
        circuit = row["circuit"]
        if circuit not in current_rows:
            checks.append(
                Check(
                    label=f"{circuit}: present in current run",
                    baseline=1.0,
                    current=0.0,
                    higher_is_better=True,
                    tolerance=0.0,
                )
            )
            continue
        for mapping, cell in row["mappings"].items():
            fresh = current_rows[circuit].get(mapping)
            if fresh is None:
                checks.append(
                    Check(
                        label=f"{circuit}/{mapping}: present in current run",
                        baseline=1.0,
                        current=0.0,
                        higher_is_better=True,
                        tolerance=0.0,
                    )
                )
                continue
            for metric, higher_is_better in (
                ("swap_count", False),
                ("swap_duration_ns", False),
                ("duration_ns", False),
                ("fidelity", True),
            ):
                checks.append(
                    Check(
                        label=f"{circuit}/{mapping}/{metric}",
                        baseline=float(cell[metric]),
                        current=float(fresh[metric]),
                        higher_is_better=higher_is_better,
                        tolerance=tolerance,
                    )
                )
    # The suite-total routing-pass time, against the committed number.
    checks.append(
        Check(
            label="routing.vectorized_s",
            baseline=_dig(baseline, "routing.vectorized_s"),
            current=_dig(current, "routing.vectorized_s"),
            higher_is_better=False,
            tolerance=tolerance,
        )
    )
    # Optimizer gates read only the current run (the optimized and base
    # compiles of each cell share one process and one device); a current
    # document with no ``optimizer`` block came from a pre-optimizer bench
    # script and fails loudly rather than skipping the gates.
    optimizer = current.get("optimizer", {})
    depth_floor = float(
        os.environ.get("REPRO_OPTIMIZER_DEPTH_FLOOR", OPTIMIZER_DEPTH_FLOOR)
    )
    checks.append(
        Check(
            label="optimizer.mean_depth_reduction >= floor",
            baseline=depth_floor,
            current=float(optimizer.get("mean_depth_reduction", 0.0)),
            higher_is_better=True,
            tolerance=0.0,
        )
    )
    checks.append(
        Check(
            label="optimizer: every compile passed the equivalence harness",
            baseline=1.0,
            current=1.0 if optimizer.get("all_verified", False) else 0.0,
            higher_is_better=True,
            tolerance=0.0,
        )
    )
    fresh = optimizer.get("fresh_compile_s", {})
    checks.append(
        Check(
            label="optimizer: fresh optimized <= ratio x fresh base",
            baseline=OPTIMIZER_FRESH_RATIO,
            current=float(fresh.get("ratio", float("inf"))),
            higher_is_better=False,
            tolerance=0.0,
        )
    )
    # Per-cell never-worse invariants: consolidation must not deepen a
    # circuit or cost it fidelity, on any cell.
    deeper = []
    lower_fidelity = []
    for row in current["rows"]:
        for mapping, cell in row["mappings"].items():
            opt = cell.get("optimizer")
            if opt is None:
                deeper.append(f"{row['circuit']}/{mapping} (no optimizer data)")
                continue
            if int(opt["two_qubit_layers"]) > int(opt["two_qubit_layers_base"]):
                deeper.append(f"{row['circuit']}/{mapping}")
            if float(opt["fidelity"]) < float(cell["fidelity"]) - 1e-12:
                lower_fidelity.append(f"{row['circuit']}/{mapping}")
    for label, offenders in (
        ("optimizer never deepens a cell", deeper),
        ("optimizer never loses fidelity on a cell", lower_fidelity),
    ):
        if offenders:
            print(f"      offending cells: {', '.join(offenders)}")
        checks.append(
            Check(
                label=label,
                baseline=1.0,
                current=0.0 if offenders else 1.0,
                higher_is_better=True,
                tolerance=0.0,
            )
        )
    return checks


def cluster_checks(baseline: dict, current: dict, tolerance: float) -> list[Check]:
    """The gated metrics of one ``bench_cluster.py`` document pair."""
    checks = []
    for path, higher_is_better, tol in (
        ("single_warm.throughput_rps", True, tolerance),
        ("cluster_warm.throughput_rps", True, tolerance),
        ("cluster_warm.latency_ms.p50", False, tolerance),
        ("cluster_warm.latency_ms.p95", False, max(tolerance, TAIL_TOLERANCE)),
        ("cluster_warm_disk.throughput_rps", True, tolerance),
    ):
        checks.append(
            Check(
                label=path,
                baseline=_dig(baseline, path),
                current=_dig(current, path),
                higher_is_better=higher_is_better,
                tolerance=tol,
            )
        )
    # The speedup floor is CPU-aware: shard processes only parallelize on
    # real cores.  The env override exists for unusual runners.
    cpus = int(current.get("cpus", 1))
    default_floor = CLUSTER_SPEEDUP_FLOOR if cpus >= 2 else CLUSTER_SINGLE_CPU_FLOOR
    floor = float(os.environ.get("REPRO_CLUSTER_SPEEDUP_FLOOR", default_floor))
    checks.append(
        Check(
            label=f"speedup_cluster_over_single >= floor ({cpus} cpu(s))",
            baseline=floor,
            current=_dig(current, "speedup_cluster_over_single"),
            higher_is_better=True,
            tolerance=0.0,
        )
    )
    # Functional invariants of the *current* run, phrased as booleans with a
    # required baseline of 1.0 (a zero baseline would disable the regression
    # math), so they never drift with the committed file.
    for label, holds in (
        ("overload sheds observed", _dig(current, "overload.sheds") > 0),
        ("overload.errors == 0", _dig(current, "overload.errors") == 0),
        ("cluster_cold.errors == 0", _dig(current, "cluster_cold.errors") == 0),
        ("cluster_warm.errors == 0", _dig(current, "cluster_warm.errors") == 0),
        (
            "warm store reused (builds_after_restart == 0)",
            _dig(current, "cluster_warm_disk.builds_after_restart") == 0,
        ),
        (
            "calibrate changed the fingerprint",
            _dig(current, "coherence.fingerprint_changed") == 1,
        ),
        (
            "calibrate fan-out acked coherently",
            _dig(current, "coherence.coherent_ack") == 1,
        ),
        (
            "no stale fingerprint served after calibrate",
            _dig(current, "coherence.stale_served") == 0,
        ),
    ):
        checks.append(
            Check(
                label=label,
                baseline=1.0,
                current=1.0 if holds else 0.0,
                higher_is_better=True,
                tolerance=0.0,
            )
        )
    return checks


KINDS = {
    "service": service_checks,
    "routing": routing_checks,
    "cluster": cluster_checks,
}


def run_gate(baseline_path: Path, current_path: Path, tolerance: float) -> bool:
    """Print the check table for one baseline/current pair; True = all pass."""
    baseline = json.loads(baseline_path.read_text())
    current = json.loads(current_path.read_text())
    kind = baseline.get("benchmark")
    if kind != current.get("benchmark"):
        print(
            f"FAIL  benchmark kind mismatch: baseline {kind!r} vs "
            f"current {current.get('benchmark')!r}"
        )
        return False
    builder = KINDS.get(kind)
    if builder is None:
        print(f"FAIL  unknown benchmark kind {kind!r}; expected one of {sorted(KINDS)}")
        return False
    print(f"== {kind} gate: {current_path} vs baseline {baseline_path} ==")
    checks = builder(baseline, current, tolerance)
    failed = 0
    for check in checks:
        print(check.row())
        failed += 0 if check.passed else 1
    print(
        f"{len(checks) - failed}/{len(checks)} checks passed"
        + (f"; {failed} FAILED" if failed else "")
    )
    return failed == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        action="append",
        required=True,
        help="committed baseline JSON (repeatable, pairs with --current)",
    )
    parser.add_argument(
        "--current",
        action="append",
        required=True,
        help="freshly produced JSON of the same benchmark (repeatable)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("PERF_GATE_TOLERANCE", DEFAULT_TOLERANCE)),
        help="relative regression tolerance (default 0.15; "
        "PERF_GATE_TOLERANCE env overrides)",
    )
    args = parser.parse_args(argv)
    if len(args.baseline) != len(args.current):
        parser.error("--baseline and --current must pair up")
    ok = True
    for baseline, current in zip(args.baseline, args.current):
        ok = run_gate(Path(baseline), Path(current), args.tolerance) and ok
        print()
    if not ok:
        print("perf gate FAILED -- see rows above; refresh baselines only for")
        print("intentional changes (see the module docstring / docs/service.md).")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
