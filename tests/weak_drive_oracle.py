"""Weak-drive transmission in closed form, from the first moments of the master equation.

At n_th = 0 and a vanishing drive, the coherences beta_j = <sigma-_j>
close on themselves (input-output theory; Lalumiere et al., Phys. Rev. A
88, 043806 (2013)).  With the qubits detuned by Delta_j - delta from the
drive, exchange J and correlated waveguide decay Gamma,

    J_jk = sqrt(g_j g_k) sin|phi_j - phi_k| / 2 + g_direct,jk,
    Gamma_jk = sqrt(g_j g_k) cos(phi_j - phi_k)            (g = gamma_1d),

the Heisenberg equation of sigma-_j has sigma^z_j sigma-_k = -sigma-_k +
2 n_j sigma-_k, whose second part moves <sigma-_j> only at O(Omega^3).
Pure dephasing (jumps of the rate matrix D over sigma^z at half rate,
D_jj = gamma_phi,j) contributes -D_jj <sigma-_j> exactly: the two cross
terms D_jk and D_kj of a correlated pair cancel in the adjoint
dissipator, so correlated dephasing does not enter the first moments.
Loss gamma_loss,j adds to the diagonal of Gamma.  In MHz, with Omega_j the
Rabi amplitude of qubit j, the steady state is

    M beta = -Omega / 2,  M = diag(Delta - delta) + J - i (Gamma + diag(gamma_loss)) / 2 - i diag(gamma_phi),

with a relative error O(Omega^2) (the first saturation correction).  A
waveguide tone gives Omega_j = 2 a_in sqrt(2 pi g_j / 2) (-i) e^{i phi_j} /
2 pi, and t = 1 + sum_j sqrt(2 pi g_j / 2) e^{-i phi_j} beta_j / a_in, so
t = 1 + (i/2) sum_jk sqrt(g_j g_k) e^{-i phi_j} (M^-1)_jk e^{i phi_k}, free
of a_in.  An xy tone Omega = omega e_q is read as the emitted field over
the local drive 2 pi omega / 2.
"""

import math

import numpy as np


def weak_drive_transmission(spec, detunings, xy_qubit=None) -> np.ndarray:
    """Complex t at each drive detuning (MHz): the waveguide port, or the xy port of xy_qubit."""
    g1d = np.array([q.gamma_1d for q, _ in spec.qubits])
    phases = np.array([p.phase for _, p in spec.qubits])
    root = np.sqrt(np.outer(g1d, g1d))
    exchange = root * np.sin(np.abs(phases[:, None] - phases[None, :])) / 2.0
    for i, j, g in spec.direct_couplings:
        exchange[i, j] += g
        exchange[j, i] += g
    decay = root * np.cos(phases[:, None] - phases[None, :])
    decay += np.diag([q.gamma_loss for q, _ in spec.qubits])
    base = exchange - 0.5j * decay - 1j * np.diag([q.gamma_phi for q, _ in spec.qubits])
    out_field = np.sqrt(2 * math.pi * g1d / 2.0) * np.exp(-1j * phases)
    values = []
    for delta in detunings:
        inverse = np.linalg.inv(base + np.diag(np.subtract(spec.detunings, delta)))
        if xy_qubit is None:
            values.append(1.0 + 0.5j * (root * np.outer(np.exp(-1j * phases), np.exp(1j * phases)) * inverse).sum())
        else:  # beta = -inverse[:, q] omega / 2, over 2 pi omega / 2
            values.append(-(out_field @ inverse[:, xy_qubit]) / (2 * math.pi))
    return np.array(values)
