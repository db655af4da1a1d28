"""Reach and generator block of evolve, found from the assembled sparse Liouvillian."""

import numpy as np
from scipy.sparse import csgraph

from wgqed.lindblad import _hermitian_coordinates, _real_similarity, assemble_liouvillian


def real_generator(model):
    """A = U L U^dagger on all d^2 Hermitian coordinates, as a real CSR matrix."""
    unitary, _ = _hermitian_coordinates(model.dimension)
    return _real_similarity(unitary, assemble_liouvillian(model))


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


def reached_coordinates(model, rho) -> np.ndarray:
    """Coordinates the nonzero entries of A reach from the states rho (d x d or a stack)."""
    d = model.dimension
    unitary, _ = _hermitian_coordinates(d)
    x0 = (unitary @ np.asarray(rho, dtype=complex).reshape(-1, d * d).T).real
    return reachable(real_generator(model), np.flatnonzero(np.any(x0, axis=1)))
