"""Dense reference implementations the sparse master-equation engine is checked against."""

import math

import numpy as np

TWO_PI = 2 * math.pi


def dense_liouvillian(model) -> np.ndarray:
    """Superoperator L with vec(drho/dt) = L vec(rho), row-major vec.

    Term-by-term sum of dense Kronecker products: the commutator with H
    and, per jump operator, L (x) L^* - (1/2) L^dag L (x) 1 - (1/2)
    1 (x) (L^dag L)^T, rates multiplied by 2*pi.
    """
    d = model.dimension
    eye = np.eye(d)
    ham = model.hamiltonian
    liouville = -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
    for op, rate in model.dissipators:
        op = np.asarray(op, dtype=complex)
        opdop = op.conj().T @ op
        liouville += TWO_PI * rate * (
            np.kron(op, op.conj())
            - 0.5 * np.kron(opdop, eye)
            - 0.5 * np.kron(eye, opdop.T)
        )
    return liouville


def svd_steady_state(model) -> np.ndarray:
    """Unit-trace Hermitian part of the dense Liouvillian's SVD null vector."""
    _, _, vh = np.linalg.svd(dense_liouvillian(model))
    rho = vh[-1].conj().reshape(model.dimension, model.dimension)
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real
