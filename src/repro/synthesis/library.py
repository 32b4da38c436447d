"""Per-calibration-cycle decomposition library (Section VII).

The paper avoids per-program synthesis overhead by pre-computing, once per
calibration cycle, the decompositions of a small set of common target gates
(SWAP and CNOT in the case study) into each pair's basis gate.  This module
implements that cache: for a basis gate (its Cartan coordinates, unitary and
duration) it records, per target, the layer count, the total duration
including interleaved single-qubit layers, and -- lazily -- the fully
synthesized local gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gates.constants import CNOT, SWAP
from repro.synthesis.depth import minimum_layers
from repro.synthesis.numerical import SynthesisResult, synthesize_gate
from repro.weyl.cartan import cartan_coordinates

#: Default target gates pre-computed per calibration cycle, as in the paper.
DEFAULT_TARGETS: dict[str, np.ndarray] = {
    "swap": SWAP,
    "cnot": CNOT,
}


@dataclass
class GateDecomposition:
    """Decomposition of one target gate into a given basis gate.

    Attributes:
        target_name: name of the target ("swap", "cnot", ...).
        n_layers: number of 2Q basis-gate layers.
        duration: total duration in ns, ``n_layers * t_2q + (n_layers + 1) *
            t_1q`` -- alternating 1Q and 2Q layers as in Fig. 3.
        synthesis: full numerical synthesis result (``None`` until the local
            gates are actually requested).
    """

    target_name: str
    n_layers: int
    duration: float
    synthesis: SynthesisResult | None = None


def layered_duration(n_layers: int, basis_duration: float, one_qubit_duration: float) -> float:
    """Duration of an ``n``-layer decomposition with interleaved 1Q layers.

    Matches the paper's accounting: an ``n``-layer circuit has ``n + 1``
    single-qubit layers (Fig. 3(a)), so e.g. the baseline 83.04 ns basis gate
    gives a 3-layer SWAP of ``3 * 83.04 + 4 * 20 = 329.1`` ns.
    """
    if n_layers < 0:
        raise ValueError("layer count must be non-negative")
    if n_layers == 0:
        return one_qubit_duration
    return n_layers * basis_duration + (n_layers + 1) * one_qubit_duration


@dataclass
class DecompositionLibrary:
    """Cache of target-gate decompositions for one basis gate.

    Args:
        basis_unitary: 4x4 unitary of the pair's basis gate.
        basis_duration: duration of one application of the basis gate (ns).
        one_qubit_duration: duration of a single-qubit layer (ns), 20 ns in
            the paper's case study.
        targets: mapping from target name to 4x4 unitary; defaults to SWAP
            and CNOT as in the paper.
    """

    basis_unitary: np.ndarray
    basis_duration: float
    one_qubit_duration: float = 20.0
    targets: dict[str, np.ndarray] = field(default_factory=lambda: dict(DEFAULT_TARGETS))
    max_layers: int = 4
    _entries: dict[str, GateDecomposition] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.basis_unitary = np.asarray(self.basis_unitary, dtype=complex)
        self.basis_coordinates = cartan_coordinates(self.basis_unitary)

    # -- queries ----------------------------------------------------------

    def layers_for(self, target_name: str) -> int:
        """Number of basis-gate layers needed for a named target."""
        return self.entry(target_name).n_layers

    def duration_for(self, target_name: str) -> float:
        """Total duration (ns) of the decomposition of a named target."""
        return self.entry(target_name).duration

    def entry(self, target_name: str) -> GateDecomposition:
        """Return (computing if needed) the cached entry for a target."""
        key = target_name.lower()
        if key not in self._entries:
            if key not in self.targets:
                raise KeyError(
                    f"unknown target {target_name!r}; known: {sorted(self.targets)}"
                )
            self._entries[key] = self._compute_entry(key)
        return self._entries[key]

    def synthesis_for(self, target_name: str) -> SynthesisResult:
        """Full numerical synthesis (local gates included) for a target."""
        entry = self.entry(target_name)
        if entry.synthesis is None:
            entry.synthesis = synthesize_gate(
                self.targets[target_name.lower()],
                self.basis_unitary,
                predicted_layers=entry.n_layers,
                max_layers=self.max_layers,
            )
            # If the numerical search needed more layers than predicted, keep
            # the verified answer (and its duration) rather than the estimate.
            if entry.synthesis.n_layers != entry.n_layers:
                entry.n_layers = entry.synthesis.n_layers
                entry.duration = layered_duration(
                    entry.n_layers, self.basis_duration, self.one_qubit_duration
                )
        return entry.synthesis

    def add_target(self, name: str, unitary: np.ndarray) -> None:
        """Register an additional target gate (e.g. CZ, iSWAP, B)."""
        self.targets[name.lower()] = np.asarray(unitary, dtype=complex)
        self._entries.pop(name.lower(), None)

    def summary(self) -> dict[str, dict[str, float]]:
        """Layer counts and durations for all registered targets."""
        return {
            name: {
                "layers": float(self.entry(name).n_layers),
                "duration": self.entry(name).duration,
            }
            for name in self.targets
        }

    # -- internals --------------------------------------------------------

    def _compute_entry(self, key: str) -> GateDecomposition:
        target = self.targets[key]
        layers = minimum_layers(
            cartan_coordinates(target),
            self.basis_coordinates,
            max_layers=self.max_layers,
        )
        duration = layered_duration(layers, self.basis_duration, self.one_qubit_duration)
        return GateDecomposition(target_name=key, n_layers=layers, duration=duration)
