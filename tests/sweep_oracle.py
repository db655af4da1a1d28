"""Point-by-point spectrum reference the one-assembly sweep is checked against.

Each drive detuning gets its own model, built with every qubit detuning
lowered by that offset, its own Liouvillian assembly and its own steady
state; the emitted field is summed as traces sigma-_j rho.
"""

import math

import numpy as np

from wgqed import lindblad
from wgqed.spectroscopy import _drive_amplitudes

TWO_PI = 2 * math.pi


def shifted_model(spec, drives, offset):
    """Driven model of spec in the drive frame moved by offset (MHz)."""
    return lindblad.build_model(
        spec, detunings=[d - offset for d in spec.detunings], drives=drives
    )


def pointwise_transmission(spec, drive, detunings) -> np.ndarray:
    """Complex transmission (waveguide port) or normalized emission (xy port)."""
    amplitudes, a_in = _drive_amplitudes(spec, drive)
    drives = tuple((j, amplitudes[j] / TWO_PI) for j in range(spec.n_qubits))
    basis = lindblad.ProductBasis(spec.n_qubits)
    lower = [basis.lowering(j) for j in range(spec.n_qubits)]
    g1d_ang = TWO_PI * np.array([q.gamma_1d for q in spec.params])
    out = []
    for offset in detunings:
        rho = lindblad.steady_state(shifted_model(spec, drives, offset)).elements
        emitted = sum(
            math.sqrt(g1d_ang[j] / 2.0) * np.exp(-1j * spec.phases[j]) * np.trace(lower[j] @ rho)
            for j in range(spec.n_qubits)
        )
        if drive.port == "waveguide":
            out.append(1.0 + emitted / a_in)
        else:
            out.append(emitted / (amplitudes[drive.xy_qubit] / 2.0))
    return np.array(out)
