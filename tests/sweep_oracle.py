"""Point-by-point spectrum reference that shares no solver code with the package.

Each drive detuning gets its own model, built with every qubit detuning
lowered by that offset, its own dense Kronecker Liouvillian
(dense_oracle.dense_liouvillian) and its own steady state, from the
trace-bordered complex system solved by np.linalg.solve.  The drive
amplitudes are written out from the input-output formulas, and the
emitted field is summed as traces sigma-_j rho.
"""

import math

import numpy as np
from dense_oracle import dense_liouvillian

from wgqed import lindblad

TWO_PI = 2 * math.pi
# the default waveguide drive's largest saturation parameter
DEFAULT_SATURATION = 0.01


def shifted_model(spec, drives, offset):
    """Driven model of spec in the drive frame moved by offset (MHz)."""
    return lindblad.build_model(
        spec, detunings=[d - offset for d in spec.detunings], drives=drives
    )


def dense_steady_state(model) -> np.ndarray:
    """rho with L vec(rho) = 0 and tr rho = 1: row 0 of the dense L replaced by the trace row."""
    d = model.dimension
    bordered = dense_liouvillian(model)
    bordered[0] = 0.0
    bordered[0, :: d + 1] = 1.0
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    return np.linalg.solve(bordered, rhs).reshape(d, d)


def drive_amplitudes(spec, drive):
    """Per-qubit Rabi amplitudes Omega_j (MHz) and the input field a_in (sqrt(photons/us)).

    A waveguide tone of amplitude a_in drives qubit j at Omega_j = 2
    sqrt(Gamma_1d,j / 2) a_in (-i) e^{i phi_j} (input-output theory, Gamma =
    2 pi gamma in rad/us, Omega in rad/us).  omega_rabi sets |Omega| of the
    most strongly coupled qubit; without it, a_in sets the largest
    saturation parameter Omega_j^2 / (Gamma_1,j Gamma_2,j) of the coupled
    qubits to 0.01.  An xy drive is omega_rabi on its qubit alone, with no
    a_in.
    """
    rates = [
        (TWO_PI * q.gamma_1d, TWO_PI * q.gamma_1, TWO_PI * (q.gamma_1 / 2 + q.gamma_phi))
        for q in spec.params
    ]
    if drive.port == "xy":
        amplitudes = np.zeros(spec.n_qubits, dtype=complex)
        amplitudes[drive.xy_qubit] = drive.omega_rabi
        return amplitudes, None
    if drive.power_dbm is not None:
        raise ValueError("the reference takes omega_rabi or the default drive")
    if drive.omega_rabi is not None:
        a_in = TWO_PI * drive.omega_rabi / (2 * math.sqrt(max(g1d for g1d, _, _ in rates) / 2))
    else:
        a_in = math.sqrt(DEFAULT_SATURATION / max(
            2 * g1d / (g1 * g2) for g1d, g1, g2 in rates if g1d > 0 and g1 > 0 and g2 > 0
        ))
    amplitudes = [
        2 * math.sqrt(g1d / 2) * a_in * -1j * np.exp(1j * phase) / TWO_PI
        for (g1d, _, _), phase in zip(rates, spec.phases)
    ]
    return np.array(amplitudes), a_in


def pointwise_transmission(spec, drive, detunings) -> np.ndarray:
    """Complex transmission (waveguide port) or normalized emission (xy port)."""
    amplitudes, a_in = drive_amplitudes(spec, drive)
    drives = tuple(enumerate(amplitudes))
    basis = lindblad.ProductBasis(spec.n_qubits)
    lower = [basis.lowering(j) for j in range(spec.n_qubits)]
    g1d_ang = TWO_PI * np.array([q.gamma_1d for q in spec.params])
    out = []
    for offset in detunings:
        rho = dense_steady_state(shifted_model(spec, drives, offset))
        emitted = sum(
            math.sqrt(g1d_ang[j] / 2.0) * np.exp(-1j * spec.phases[j]) * np.trace(lower[j] @ rho)
            for j in range(spec.n_qubits)
        )
        if drive.port == "waveguide":
            out.append(1.0 + emitted / a_in)
        else:
            out.append(emitted / (TWO_PI * amplitudes[drive.xy_qubit] / 2.0))
    return np.array(out)
