"""The shelved mirror pair's transmission from a full four-level evolution, the reference for spectroscopy.shelved_transmission.

A pair of mirrors (core.mirror_pair_spec) holding dark population rho_dd
is driven through the waveguide at Omega_B = x_ratio Gamma_B and evolved
to its quasi-steady state: with gamma_loss = gamma_phi = 0 the dark state
is a conserved sector, so the dark population stays shelved while the
bright transition settles within 30 / Gamma_B.  The output field is read
exactly from the state (the emitted-field functional of spectroscopy),
and the reduced three-level formula is recovered up to O(x_ratio^2).
"""

import math

import numpy as np

from wgqed import core, lindblad, spectroscopy
from wgqed.core import TWO_PI


def shelved_pair_quasi_steady(
    mirror: core.QubitParams, rho_dd: float, x_ratio: float, delta: float = 0.0
) -> complex:
    """Transmission of the driven pair of two such mirrors at drive detuning delta (MHz)."""
    if not 0.0 <= rho_dd <= 1.0:
        raise ValueError("rho_dd must lie in [0, 1]")
    spec = core.mirror_pair_spec(mirror, detunings=(-delta, -delta))
    gamma_b_ang = TWO_PI * (2.0 * mirror.gamma_1d + mirror.gamma_prime)
    omega_1 = x_ratio * gamma_b_ang / math.sqrt(2.0)
    amplitudes, a_in = spectroscopy.drive_amplitudes(spec, spectroscopy.DriveSpec(omega_rabi=omega_1 / TWO_PI))
    model = spectroscopy._driven_model(spec, amplitudes)
    basis = model.basis
    dark = (basis.basis_vector(0b01) + basis.basis_vector(0b10)) / math.sqrt(2.0)
    ground = basis.ground_vector()
    rho0 = rho_dd * np.outer(dark, dark.conj()) + (1.0 - rho_dd) * np.outer(ground, ground.conj())
    settle = 30.0 / gamma_b_ang
    rho = lindblad.evolve(model, rho0, np.array([0.0, settle]))[-1]
    emitted = spectroscopy._emission_functional(spec, basis) @ rho.reshape(-1)
    return complex(1.0 + emitted / a_in)
