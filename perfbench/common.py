"""Shared pieces of the benchmark: statistics, the run record, the result line.

Everything here is stdlib plus what the program itself already depends on,
and nothing here imports ``repro``: the set-up clock must start before the
package is imported.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores and span files; listed in ``.gitignore``.
WORK = ROOT / "perfbench" / ".work"

FAILED = math.inf  # a failed or refused operation, slower than any sample


def ensure_program_importable() -> None:
    """Put the checkout's ``src`` on the path, or fail before any result.

    The benchmark builds nothing: the program is the checkout's own source.
    Without it there is nothing to measure, so the run must end with an
    error and no result line.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule) of ``values``.

    ``inf`` entries (failed operations) sort last, so a failure pushes every
    percentile at or above its rank to ``inf``.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    if ordered[high] == FAILED:
        return FAILED if rank > low or ordered[low] == FAILED else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


def reference_loop_ms() -> float:
    """Time a fixed pure-Python loop: a host-speed diagnostic.

    Reported at the start and end of every run so a slow host shows in the
    record.  It is never used to scale a metric.
    """
    started = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return (time.perf_counter() - started) * 1000.0


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process, in MB."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def host_record() -> dict:
    """What the run ran on: CPUs it may use and the numeric stack."""
    import numpy
    import scipy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(record: dict, result: dict) -> None:
    """Print the human row, the run record, and the result as the last line."""
    row = "  ".join(
        f"{name}={entry['value']:.6g} {entry['unit']}"
        for name, entry in result["metrics"].items()
    )
    print(f"{record['workload']}  {row}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result), flush=True)
