"""Reach and real generator of evolve, from the dense np.kron Liouvillian.

Independent of the package's construction: U is built here from the
definition of the Hermitian coordinates, and L comes from dense_oracle.
"""

import math

import numpy as np
from dense_oracle import dense_liouvillian
from scipy import sparse
from scipy.sparse import csgraph


def hermitian_unitary(d: int) -> sparse.csr_matrix:
    """U with x = U vec(rho) on the row-major vec of a d x d matrix.

    x[a*d + a] = rho_aa and, for a < b, x[a*d + b] = sqrt(2) Re rho_ab =
    (rho_ab + rho_ba) / sqrt(2) and x[b*d + a] = sqrt(2) Im rho_ab =
    -i (rho_ab - rho_ba) / sqrt(2) for a Hermitian rho.
    """
    s = 1.0 / math.sqrt(2.0)
    rows, cols, vals = [], [], []
    for a in range(d):
        rows.append(a * d + a)
        cols.append(a * d + a)
        vals.append(1.0)
        for b in range(a + 1, d):
            ab, ba = a * d + b, b * d + a
            rows += [ab, ab, ba, ba]
            cols += [ab, ba, ab, ba]
            vals += [s, s, -1j * s, 1j * s]
    return sparse.csr_matrix((vals, (rows, cols)), shape=(d * d, d * d))


def real_generator(model) -> sparse.csr_matrix:
    """A = U L U^dagger on all d^2 Hermitian coordinates, as a real CSR matrix."""
    unitary = hermitian_unitary(model.dimension)
    generator = unitary @ sparse.csr_matrix(dense_liouvillian(model)) @ unitary.conj().T
    scale = np.abs(generator.data).max(initial=1.0)
    assert np.abs(generator.data.imag).max(initial=0.0) <= 1e-12 * scale
    generator = generator.real
    generator.eliminate_zeros()
    return generator


def reachable(generator, support) -> np.ndarray:
    """Sorted coordinates that dx/dt = generator @ x can fill from the support of x.

    Coordinate j feeds coordinate i when generator[i, j] != 0, so this is a
    breadth-first search over the graph of generator^T; every coordinate
    it does not reach stays exactly zero.
    """
    graph = generator.T.tocsr()
    reached = np.zeros(generator.shape[0], dtype=bool)
    for start in support:
        if not reached[start]:
            reached[csgraph.breadth_first_order(graph, start, return_predecessors=False)] = True
    return np.flatnonzero(reached)


def reached_coordinates(model, rho, generator=None) -> np.ndarray:
    """Coordinates the nonzero entries of A reach from the states rho (d x d or a stack).

    generator is real_generator(model), built here when not given.
    """
    d = model.dimension
    if generator is None:
        generator = real_generator(model)
    x0 = (hermitian_unitary(d) @ np.asarray(rho, dtype=complex).reshape(-1, d * d).T).real
    return reachable(generator, np.flatnonzero(np.any(x0, axis=1)))
