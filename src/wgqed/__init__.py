"""Waveguide QED toolkit: collective emitter arrays on a 1D channel.

Builds cooperative Hamiltonians and Lindblad models for up to five
two-level emitters coupled to a common waveguide, computes transmission
spectra through input-output theory, simulates pulse-sequence protocols
(vacuum Rabi, iSWAP, dark-state lifetimes, shelving, compound mirrors)
and provides transmon calibration utilities.
"""

__version__ = "0.1.0"

from .core import (
    AsymmetricPair,
    CollectiveMode,
    Placement,
    QubitParams,
    SystemSpec,
    build_effective_hamiltonian,
    cavity_spec,
    collective_modes,
    compound_mirror_spec,
    cooperativity,
    coupling_rate_2j,
    dark_bright_asymmetric,
    mirror_pair_spec,
    phase_mismatch_decay,
    probe_dark_coupling,
    purcell_factor,
    second_excitation_cooperativity,
)
from .lindblad import (
    LindbladModel,
    ProductBasis,
    assemble_liouvillian,
    build_model,
    dark_state_rates,
    dominant_oscillation,
    evolve,
    steady_states,
    thermal_qubit_steady,
)
from .records import FitResult, SpectrumScan, TimeTrace
