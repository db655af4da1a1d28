"""Waveguide QED toolkit: collective emitter arrays on a 1D channel.

Builds cooperative Hamiltonians and Lindblad models for up to five
two-level emitters coupled to a common waveguide, computes transmission
spectra through input-output theory, simulates pulse-sequence protocols
(vacuum Rabi, iSWAP, dark-state lifetimes, shelving, compound mirrors)
and provides transmon calibration utilities.

``import wgqed`` loads numpy, ``core`` and ``records`` only; the closed
forms ``dark_state_rates`` and ``thermal_qubit_steady`` are ``core``'s.
The other submodules, and the master-equation names exported from
``lindblad`` (``build_model``, ``steady_states``, ``evolve`` and the
rest), load at first access: ``wgqed.protocols`` or ``from wgqed import
steady_states`` imports ``lindblad``, and with it ``scipy.linalg`` and
``scipy.sparse``.
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
    dark_state_rates,
    mirror_pair_spec,
    phase_mismatch_decay,
    probe_dark_coupling,
    purcell_factor,
    second_excitation_cooperativity,
    thermal_qubit_steady,
)
from .records import FitResult, SpectrumScan, TimeTrace

# loaded at first access; core and records are bound by the imports above
_SUBMODULES = ("calibration", "cli", "lindblad", "protocols", "spectroscopy")
_LINDBLAD = (
    "LindbladModel",
    "ProductBasis",
    "assemble_liouvillian",
    "build_model",
    "dominant_oscillation",
    "evolve",
    "steady_states",
)


def __getattr__(name):
    import importlib

    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _LINDBLAD:
        return getattr(importlib.import_module(".lindblad", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_LINDBLAD})
