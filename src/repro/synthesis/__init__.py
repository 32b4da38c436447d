"""Gate synthesis: circuit-depth theory and decomposition into basis gates.

Implements Sections V and VII of the paper:

* :mod:`repro.synthesis.depth` -- analytic / geometric reasoning about how
  many layers of a 2Q basis gate are needed to synthesize a target gate
  (mirror-gate relation for SWAP-in-2, tetrahedral regions for SWAP-in-3 and
  CNOT-in-2, and an exact two- and three-layer test for any target from the
  monodromy-polytope inequalities of Peterson et al.).
* :mod:`repro.synthesis.numerical` -- NuOp-style numerical search for the 1Q
  local gates of an ``n``-layer decomposition, accelerated by the analytic
  depth prediction.
* :mod:`repro.synthesis.analytic` -- textbook closed-form decompositions
  (SWAP = 3 CNOT, CRZ/RZZ lowering, CNOT <-> CZ, ...).
* :mod:`repro.synthesis.library` -- the per-calibration-cycle decomposition
  library that caches SWAP/CNOT decompositions for every edge of a device.
"""

from repro.synthesis.depth import (
    DEPTH_ORACLE_VERSION,
    CoverageSetOracle,
    TwoLayerOracle,
    can_synthesize_cnot_in_2_layers,
    can_synthesize_swap_in_1_layer,
    can_synthesize_swap_in_2_layers,
    can_synthesize_swap_in_3_layers,
    minimum_layers,
    mirror_coordinates,
    swap2_partner,
)
from repro.synthesis.numerical import (
    SynthesisResult,
    decompose_into_layers,
    synthesize_gate,
)
from repro.synthesis.analytic import (
    cnot_circuit_from_cz,
    controlled_phase_to_cnot,
    cz_circuit_from_cnot,
    rzz_to_cnot,
    swap_to_cnot,
)
from repro.synthesis.library import DecompositionLibrary, GateDecomposition

__all__ = [
    "DEPTH_ORACLE_VERSION",
    "CoverageSetOracle",
    "TwoLayerOracle",
    "can_synthesize_cnot_in_2_layers",
    "can_synthesize_swap_in_1_layer",
    "can_synthesize_swap_in_2_layers",
    "can_synthesize_swap_in_3_layers",
    "minimum_layers",
    "mirror_coordinates",
    "swap2_partner",
    "SynthesisResult",
    "decompose_into_layers",
    "synthesize_gate",
    "cnot_circuit_from_cz",
    "controlled_phase_to_cnot",
    "cz_circuit_from_cnot",
    "rzz_to_cnot",
    "swap_to_cnot",
    "DecompositionLibrary",
    "GateDecomposition",
]
