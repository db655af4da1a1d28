"""Dense reference implementations the sparse master-equation engine is checked against."""

import math

import numpy as np
from scipy.linalg import expm

TWO_PI = 2 * math.pi


def dense_liouvillian(model) -> np.ndarray:
    """Superoperator L with vec(drho/dt) = L vec(rho), row-major vec.

    Term-by-term sum of dense Kronecker products A (x) B, from the
    commutator with H and, per jump operator, L (x) L^* - (1/2) L^dag L (x) 1
    - (1/2) 1 (x) (L^dag L)^T, rates multiplied by 2*pi.  Entry (ik, jl) of
    A (x) B is A[i, j] B[k, l], so all terms are summed at once as one
    product over the term axis, and then moved to (ik, jl).
    """
    d = model.dimension
    eye = np.eye(d)
    ham = model.hamiltonian
    terms = [(-1j * ham, eye), (eye, 1j * ham.T)]
    for op, rate in model.dissipators:
        op = np.asarray(op, dtype=complex)
        opdop = op.conj().T @ op
        terms += [
            (TWO_PI * rate * op, op.conj()),
            (-0.5 * TWO_PI * rate * opdop, eye),
            (eye, -0.5 * TWO_PI * rate * opdop.T),
        ]
    left = np.array([a for a, _ in terms], dtype=complex).reshape(len(terms), d * d)
    right = np.array([b for _, b in terms], dtype=complex).reshape(len(terms), d * d)
    return (left.T @ right).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def svd_steady_state(model) -> np.ndarray:
    """Unit-trace Hermitian part of the dense Liouvillian's SVD null vector."""
    _, _, vh = np.linalg.svd(dense_liouvillian(model))
    rho = vh[-1].conj().reshape(model.dimension, model.dimension)
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def propagator(model, duration: float) -> np.ndarray:
    """Dense exp(L duration) on the full row-major vec, duration in us (scipy's Pade expm)."""
    return expm(dense_liouvillian(model) * duration)


def propagated_states(model, rho0, times) -> np.ndarray:
    """States at each grid time from full-space propagators.

    rho0 is one d x d state or an m x d x d stack, taken at times[0];
    the result has shape (len(times),) + rho0.shape.  Steps that agree to
    12 significant digits share one propagator.  No coordinate is left
    out and nothing is hermitized.
    """
    rho = np.asarray(rho0, dtype=complex)
    d = model.dimension
    propagators = {}
    vecs = [rho.reshape(-1, d * d).T]
    for step in np.diff(times):
        key = float(f"{step:.12g}")
        if key not in propagators:
            propagators[key] = propagator(model, step)
        vecs.append(propagators[key] @ vecs[-1])
    return np.array([v.T.reshape(rho.shape) for v in vecs])
