"""Quantum lattice Boltzmann toolkit for advection-diffusion transport."""

from .analysis import (
    GateInventory,
    circuit_inventory,
    prior_method_toffoli_count,
    probability_bounds,
    toffoli_count,
)
from .ancilla_based import legacy_circuit, run_legacy_step
from .ancilla_free import (
    LoopState,
    build_collision,
    build_streaming,
    build_summation,
    encode_initial,
    layout_for,
    run_exact,
    run_loop_exact,
    sample_readout,
)
from .lattice import (
    D1Q2,
    D1Q3,
    D2Q5,
    MacroField,
    ModelSpec,
    classical_run,
    classical_step,
    diffusion_coefficient,
    drift,
    effective_weights,
    uniform_field,
    weighted_stream_sum,
)
from .readout import (
    ReadoutReport,
    difference_reconstruct,
    error_metrics,
    macroscopic_exact,
    macroscopic_from_counts,
)
from .statevector import (
    Circuit,
    GateOp,
    PostSelectionError,
    QState,
    QubitLayout,
    ShotHistogram,
    apply,
    apply_circuit,
    encode_amplitudes,
    project,
)

__version__ = "0.1.0"
