"""Master-equation assembly, time evolution and steady states.

Hamiltonians inside :class:`LindbladModel` are angular (rad/us, i.e. 2*pi
times a value in MHz); dissipator rates stay in MHz and pick up their
2*pi factor exactly once, during Liouvillian assembly.  Times are in us.
A model is a Hamiltonian and a list of independent jumps: :func:`build_model`
turns each correlated rate matrix into collective jumps once.

The Liouvillian is a scipy CSR matrix acting on the row-major vec of the
density matrix, built by one scatter of the operator factors' nonzeros.
Both solvers work in Hermitian coordinates, the d^2 real parameters of
rho: L maps Hermitian matrices to Hermitian matrices, so it is real
there.  Every Liouvillian here is time-independent over a segment, so
:func:`evolve` propagates exactly: it exponentiates, by scaling and
squaring a Taylor polynomial, the real block of the coordinates that the
initial state can reach, once per distinct grid step.  A symmetry such as
the excitation-number conservation of an undriven hold shows up as a
small reached block, without any rule that names it.  Steady states come
from one real dense LU solve of the trace-bordered Liouvillian, whose
LAPACK condition estimate flags a degenerate null space.  A sweep over
the drive detuning delta assembles the Liouvillian once: moving the drive
frame only shifts the diagonal, L(delta) = L0 + delta K with
K[a*d + b] = i 2 pi (N_a - N_b) and N the total excitation number of
each basis state.  The LU is all the per-point work of a sweep.  Both
solvers return one complex stack of states and check it once, with one
validator (_check_states: unit trace, no eigenvalue below -1e-8) whose
error names the failing time or drive detuning.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eig, get_lapack_funcs
from scipy.sparse import csgraph

from . import core
from .core import TWO_PI

__all__ = [
    "ProductBasis",
    "LindbladModel",
    "DegenerateSteadyStateError",
    "build_model",
    "assemble_liouvillian",
    "evolve",
    "steady_states",
    "dominant_oscillation",
    "thermal_qubit_steady",
    "dark_state_rates",
]

# A trace-bordered Liouvillian with LAPACK reciprocal condition number
# below this has a degenerate null space (more than one steady state).
STEADY_RCOND_MIN = 1e-13


class DegenerateSteadyStateError(RuntimeError):
    """The Liouvillian null space is not one-dimensional.

    Detected by :func:`steady_states` as a trace-bordered Liouvillian, real
    in Hermitian coordinates, whose reciprocal condition number (LAPACK
    dgecon on its LU factors) is below STEADY_RCOND_MIN, or as a solution
    with a large residual.  The message names the drive detuning (MHz) of
    the sweep point that failed.
    """


class ProductBasis:
    """Qubit product space of n_qubits two-level emitters.

    Basis state k is the bitmask of excited qubits (bit j set = qubit j
    excited), so the dimension is 2^n_qubits and states are in ascending
    integer order.
    """

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n_qubits = n_qubits

    @property
    def dimension(self) -> int:
        return 2**self.n_qubits

    def basis_vector(self, bitmask: int) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=complex)
        vec[bitmask] = 1.0
        return vec

    def ground_vector(self) -> np.ndarray:
        return self.basis_vector(0)

    def _excited(self, j: int) -> np.ndarray:
        return (np.arange(self.dimension) >> j) & 1

    def lowering(self, j: int) -> np.ndarray:
        excited = np.flatnonzero(self._excited(j))
        op = np.zeros((self.dimension, self.dimension))
        op[excited ^ (1 << j), excited] = 1.0
        return op

    def raising(self, j: int) -> np.ndarray:
        return self.lowering(j).T

    def number(self, j: int) -> np.ndarray:
        return np.diag(self._excited(j).astype(float))

    def sigma_z(self, j: int) -> np.ndarray:
        return np.diag(2.0 * self._excited(j) - 1.0)


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian (angular, rad/us) plus jump operators (rates in MHz).

    Every dissipator is an independent (operator, rate) jump: correlated
    channels arrive already diagonalized into collective jumps (see
    build_model).  ``basis``, when present, is the qubit product space the
    matrices act on; the dimension is read from the Hamiltonian.
    """

    hamiltonian: np.ndarray
    dissipators: tuple[tuple[np.ndarray, float], ...] = ()
    basis: ProductBasis | None = None

    def __post_init__(self):
        ham = np.asarray(self.hamiltonian, dtype=complex)
        if ham.ndim != 2 or ham.shape[0] != ham.shape[1]:
            raise ValueError("hamiltonian must be square")
        scale = max(1.0, float(np.max(np.abs(ham)))) if ham.size else 1.0
        if np.max(np.abs(ham - ham.conj().T)) > 1e-12 * scale:
            raise ValueError("hamiltonian is not Hermitian within 1e-12")
        object.__setattr__(self, "hamiltonian", ham)
        checked = []
        for op, rate in self.dissipators:
            op = np.asarray(op, dtype=complex)
            if op.shape != ham.shape:
                raise ValueError("jump operator shape does not match the hamiltonian")
            if rate < 0:
                raise ValueError(f"negative dissipator rate {rate}")
            checked.append((op, float(rate)))
        object.__setattr__(self, "dissipators", tuple(checked))

    @property
    def dimension(self) -> int:
        return self.hamiltonian.shape[0]


def _collective_jumps(rate_matrix, site_operators) -> list[tuple[np.ndarray, float]]:
    """Independent jumps (sum_j v_jk op_j, lambda_k) of a correlated rate matrix.

    Each eigenvector v_k of the symmetric PSD matrix becomes one collective
    jump at its eigenvalue rate lambda_k, which keeps the generator in
    manifestly completely positive form; eigenvalues at or below 1e-12 of
    the largest carry none.  An eigenvalue below -1e-9 raises ValueError.
    """
    mat = np.asarray(rate_matrix, dtype=float)
    if mat.ndim != 2 or mat.shape != (len(site_operators),) * 2:
        raise ValueError("rate matrix must be square with one row per site operator")
    if np.max(np.abs(mat - mat.T)) > 1e-12 * max(1.0, np.max(np.abs(mat))):
        raise ValueError("rate matrix must be symmetric")
    rates, vectors = np.linalg.eigh(mat)
    if rates.min() < -1e-9:
        raise ValueError(f"rate matrix is not positive semidefinite; eigenvalues {rates}")
    scale = max(1.0, float(np.max(np.abs(rates))))
    return [
        (sum(vectors[j, k] * op for j, op in enumerate(site_operators)), float(rates[k]))
        for k in range(rates.size)
        if rates[k] > 1e-12 * scale
    ]


def build_model(
    spec: core.SystemSpec,
    detunings=None,
    drives: tuple[tuple[int, complex], ...] = (),
) -> LindbladModel:
    """Full master-equation model of a SystemSpec.

    drives lists (qubit index, complex Rabi amplitude in MHz) entries that
    enter the Hamiltonian as (omega/2) sigma+ + h.c. in the drive rotating
    frame.  The jumps are, in order: the collective jumps (_collective_jumps)
    of the waveguide decay matrix over the lowering operators, per-qubit
    loss and thermal jumps, and those of the dephasing matrix (gamma_phi
    plus the spec's correlations) over sigma_z at half rate.
    """
    if detunings is not None:
        spec = spec.with_detunings(detunings)
    n = spec.n_qubits
    basis = ProductBasis(n)
    lower = [basis.lowering(j) for j in range(n)]

    exchange = core.exchange_matrix(spec)
    ham = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for j in range(n):
        ham += exchange[j, j] * basis.number(j)
    for i in range(n):
        for j in range(i + 1, n):
            if exchange[i, j] != 0.0:
                ham += exchange[i, j] * (lower[i].T @ lower[j] + lower[j].T @ lower[i])
    for q, amplitude in drives:
        ham += 0.5 * amplitude * lower[q].T + 0.5 * np.conj(amplitude) * lower[q]
    ham *= TWO_PI

    dissipators = _collective_jumps(core.waveguide_decay_matrix(spec), lower)
    for j, q in enumerate(spec.params):
        if q.gamma_loss > 0:
            dissipators.append((lower[j], q.gamma_loss))
        if spec.n_th > 0 and q.gamma_1 > 0:
            dissipators.append((lower[j], spec.n_th * q.gamma_1))
            dissipators.append((lower[j].T, spec.n_th * q.gamma_1))

    dephasing = np.diag([q.gamma_phi for q in spec.params]).astype(float)
    for i, j, rate in spec.dephasing_correlations:
        dephasing[i, j] += rate
        dephasing[j, i] += rate
    sigma_z = [basis.sigma_z(j) for j in range(n)]
    dissipators += [(op, rate / 2.0) for op, rate in _collective_jumps(dephasing, sigma_z)]

    return LindbladModel(ham, tuple(dissipators), basis)


def _scatter_kron(terms, d: int):
    """Row, column and value arrays of sum_k c_k A_k (x) B_k, d x d factors.

    Only the nonzeros of each factor enter: entry (i, j) of A and (k, l)
    of B land at (i*d + k, j*d + l) with value c * A[i, j] * B[k, l].
    """
    rows, cols, vals = [], [], []
    for coeff, left, right in terms:
        li, lj = np.nonzero(left)
        ri, rj = np.nonzero(right)
        rows.append((li[:, None] * d + ri[None, :]).ravel())
        cols.append((lj[:, None] * d + rj[None, :]).ravel())
        vals.append((coeff * left[li, lj][:, None] * right[ri, rj][None, :]).ravel())
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def assemble_liouvillian(model: LindbladModel) -> sparse.csr_matrix:
    """Superoperator L with vec(drho/dt) = L vec(rho), as a CSR matrix.

    vec is row-major (vec(rho)[i*d + j] = rho[i, j]), so vec(A rho B) =
    (A (x) B^T) vec(rho).  Writing the coherent part and the anticommutator
    halves of the dissipators as rho -> K rho + rho K^dagger with
    K = -iH - (1/2) sum_k gamma_k L_k^dagger L_k gives

        L = K (x) 1 + 1 (x) K^* + sum_k gamma_k L_k (x) L_k^*,

    which is built in one scatter of the factors' nonzeros (duplicates are
    summed by the CSR conversion).  Output is angular (rad/us): dissipator
    rates are multiplied by 2*pi here, the single place linear-frequency
    rates become angular.
    """
    d = model.dimension
    eye = np.eye(d)
    effective = -1j * model.hamiltonian
    jumps = []
    for op, rate in model.dissipators:
        effective = effective - 0.5 * TWO_PI * rate * (op.conj().T @ op)
        jumps.append((TWO_PI * rate, op, op.conj()))
    rows, cols, vals = _scatter_kron(
        [(1.0, effective, eye), (1.0, eye, effective.conj())] + jumps, d
    )
    return sparse.csr_matrix((vals, (rows, cols)), shape=(d * d, d * d))


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a): a degree-18 Taylor polynomial of a / 2^s (1-norm <= 1, error
    1/19! ~ 8e-18), squared s times.  numpy products only: scipy.linalg.expm
    runs on scipy's own BLAS thread pool, which contends with numpy's and
    stalled a 64 x 64 exponential from 0.3 ms to 0.3 s on a 2-core host.
    """
    squarings = int(np.ceil(np.log2(max(float(np.abs(a).sum(axis=0).max()), 1.0))))
    x = a / 2.0**squarings
    term = result = np.eye(len(a), dtype=a.dtype)
    for k in range(1, 19):
        term = term @ x / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


@functools.lru_cache(maxsize=None)
def _hermitian_coordinates(d: int):
    """Unitary U from the row-major vec of a d x d matrix to Hermitian coordinates.

    x = U vec(rho) has x[a*d + a] = rho_aa and, for a < b, x[a*d + b] =
    sqrt(2) Re rho_ab and x[b*d + a] = sqrt(2) Im rho_ab, so x is real
    exactly when rho is Hermitian.  Each row of U^dagger holds at most two
    entries: vec(rho)[i] = real_scale[i] x[real_at[i]] + i imag_scale[i]
    x[imag_at[i]].  Returns U (CSR) and that gather, (real_at, real_scale,
    imag_at, imag_scale), for _hermitian_matrix.  Cached per dimension, so
    every returned array is read-only.
    """
    index = np.arange(d * d)
    a, b = np.divmod(index, d)
    low, high = np.minimum(a, b), np.maximum(a, b)
    real_at, imag_at = low * d + high, high * d + low
    real_scale = np.where(a == b, 1.0, np.sqrt(0.5))
    imag_scale = np.sign(b - a) * np.sqrt(0.5)
    inverse = sparse.csr_matrix(
        (np.concatenate([real_scale, 1j * imag_scale]),
         (np.concatenate([index, index]), np.concatenate([real_at, imag_at]))),
        shape=(d * d, d * d),
    )
    inverse.eliminate_zeros()
    unitary = inverse.conj().T.tocsr()
    gather = (real_at, real_scale, imag_at, imag_scale)
    for array in (unitary.data, unitary.indices, unitary.indptr, *gather):
        array.flags.writeable = False
    return unitary, gather


def _hermitian_matrix(x: np.ndarray, gather) -> np.ndarray:
    """Row-major vec of the Hermitian matrix with real Hermitian coordinates x.

    x holds the coordinates on its last axis (leading axes are a stack),
    in the order the gather's indices read them.  Entries ab and ba read
    the same two coordinates with the imaginary part negated, so the
    result is exactly Hermitian.
    """
    real_at, real_scale, imag_at, imag_scale = gather
    vec = np.empty(x.shape[:-1] + real_at.shape, dtype=complex)
    np.multiply(x[..., real_at], real_scale, out=vec.real)
    np.multiply(x[..., imag_at], imag_scale, out=vec.imag)
    return vec


def _real_similarity(unitary, op) -> sparse.csr_matrix:
    """U op U^dagger as a real CSR matrix, for an op that maps Hermitian to Hermitian.

    ValueError if an imaginary part exceeds 1e-10 of the largest entry.
    """
    out = unitary @ op @ unitary.conj().T
    scale = max(1.0, float(np.abs(out.data).max(initial=0.0)))
    if np.abs(out.data.imag).max(initial=0.0) > 1e-10 * scale:
        raise ValueError("superoperator does not map Hermitian matrices to Hermitian matrices")
    out = out.real
    out.eliminate_zeros()
    return out


def _reachable(generator: sparse.csr_matrix, support) -> np.ndarray:
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


def _check_states(states: np.ndarray, points, where: str, reached=None) -> None:
    """ValueError unless each state has unit trace and no eigenvalue below -1e-8.

    states is a (len(points), ..., d, d) stack with one leading entry per
    point; the message names the first failing point as where.format(point),
    e.g. "t = {:g} us" or "drive detuning {:g} MHz".  Without reached,
    eigvalsh runs once on the whole stack.  With reached, the states are
    zero outside those coordinates.  A reached coordinate ab links basis
    states a and b, so every state is block diagonal over the connected
    components of those links: its eigenvalues are those of its blocks, and
    a block that holds no reached coordinate is zero.  So eigvalsh runs
    once per nonzero block on the whole stack.
    """
    traces = np.trace(states, axis1=-2, axis2=-1).real
    bad = np.argwhere(np.abs(traces - 1.0) > 1e-9)
    if bad.size:
        k = tuple(bad[0])
        raise ValueError(
            f"trace {traces[k]} differs from 1 beyond 1e-9 at {where.format(points[k[0]])}"
        )
    axes = tuple(range(1, states.ndim - 1))  # all but the point axis of the eigenvalues
    if reached is None:
        lowest = np.linalg.eigvalsh(states).min(axis=axes)
    else:
        d = states.shape[-1]
        a, b = np.divmod(reached, d)
        links = sparse.coo_matrix((np.ones(reached.size), (a, b)), shape=(d, d))
        _, labels = csgraph.connected_components(links, directed=False)
        lowest = np.full(len(points), np.inf)
        for label in np.unique(labels[a]):
            members = np.flatnonzero(labels == label)
            block = states[..., members[:, None], members]
            lowest = np.minimum(lowest, np.linalg.eigvalsh(block).min(axis=axes))
    bad = np.flatnonzero(lowest < -1e-8)
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"state has an eigenvalue {lowest[k]:.3e} below -1e-8 at {where.format(points[k])}"
        )


def evolve(model: LindbladModel, rho0, times) -> np.ndarray:
    """Exact master-equation evolution of one state or a stack of states.

    rho0 is a d x d state or an m x d x d stack of states, taken
    at times[0] (us); returns the state at every grid time as one complex
    array of shape (len(times), d, d), or (len(times), m, d, d) for a stack.
    The evolution runs in the real Hermitian coordinates x = U vec(rho)
    (_hermitian_coordinates), where A = U L U^dagger is real, and only over
    the coordinates that A can fill from the support of x at times[0]
    (_reachable; for a stack, the union of the supports).  Every other
    coordinate stays exactly zero: an undriven hold conserves N_a - N_b on
    rho_ab, so from one excitation among five qubits it reaches 26 of the
    1024 coordinates at n_th = 0 and 252 with thermal excitation, while a
    drive reaches all d^2.  Each step multiplies by the exponential of that
    real block; steps equal within 1e-12 relative share one exponential, so
    a uniform grid costs one.  ValueError is raised unless rho0 (every state
    of a stack) is Hermitian within 1e-10.  States are gathered from real x,
    so they are exactly Hermitian, and each one, rho0 included, must have
    unit trace within 1e-9 and no eigenvalue below -1e-8 (_check_states).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1D grid")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    rho = np.asarray(rho0, dtype=complex)
    d = model.dimension
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (d, d):
        raise ValueError("initial state dimension mismatch")
    if np.max(np.abs(rho - np.swapaxes(rho, -1, -2).conj())) > 1e-10:
        raise ValueError("initial state is not Hermitian within 1e-10")
    unitary, gather = _hermitian_coordinates(d)
    x0 = (unitary @ rho.reshape(-1, d * d).T).real  # one column per state
    generator = _real_similarity(unitary, assemble_liouvillian(model))
    reached = _reachable(generator, np.flatnonzero(np.any(x0, axis=1)))
    block = generator[reached][:, reached].toarray()
    exponentials: list[tuple[float, np.ndarray]] = []
    path = [x0[reached]]
    for step in np.diff(times):
        for known, exponential in exponentials:
            if abs(step - known) <= 1e-12 * known:
                break
        else:
            exponential = _expm(block * step)
            exponentials.append((step, exponential))
        path.append(exponential @ path[-1])
    # gather rho from the reached coordinates alone: every other coordinate
    # reads the zero column appended after them
    position = np.full(d * d, reached.size)
    position[reached] = np.arange(reached.size)
    x = np.zeros((times.size, x0.shape[1], reached.size + 1))
    x[..., :-1] = np.swapaxes(path, 1, 2)
    real_at, real_scale, imag_at, imag_scale = gather
    local = (position[real_at], real_scale, position[imag_at], imag_scale)
    states = _hermitian_matrix(x, local).reshape(times.size, -1, d, d)
    _check_states(states, times, "t = {:g} us", reached)
    return states.reshape((times.size,) + rho.shape)


def _detuning_generator(basis: ProductBasis) -> np.ndarray:
    """Diagonal of K = dL/d(delta) in the row-major vec basis (rad/us per MHz).

    Moving the drive frame by delta (MHz) lowers every qubit detuning by
    delta, i.e. H -> H - 2 pi delta N with N the total excitation number,
    so L(delta) = L0 + delta K with K[a*d + b] = i 2 pi (N_a - N_b).
    """
    counts = np.array([bin(s).count("1") for s in range(basis.dimension)], dtype=float)
    return 1j * TWO_PI * (counts[:, None] - counts[None, :]).reshape(-1)


def _detuning_rotation(generator: np.ndarray, gather) -> sparse.coo_matrix:
    """K_r = U diag(generator) U^dagger in Hermitian coordinates (real COO).

    The generator entries i w at ab and -i w at ba (a < b) turn rho_ab at
    rate w, i.e. dx_ab/dt = -w x_ba and dx_ba/dt = w x_ab: K_r has entries
    at (ab, ba) and (ba, ab) only, never on the diagonal or in row 0.
    """
    real_at, _, imag_at, imag_scale = gather
    upper = np.flatnonzero((imag_scale > 0) & (generator != 0))
    rate = generator[upper].imag
    ab, ba = real_at[upper], imag_at[upper]
    return sparse.coo_matrix(
        (np.concatenate([-rate, rate]), (np.concatenate([ab, ba]), np.concatenate([ba, ab]))),
        shape=(generator.size, generator.size),
    )


def _trace_bordered(matrix: sparse.csr_matrix, d: int) -> sparse.csc_matrix:
    """CSC copy of a CSR matrix with row 0 replaced by the trace row sum_a x_aa."""
    start = matrix.indptr[1]
    return sparse.csr_matrix(
        (
            np.concatenate([np.ones(d), matrix.data[start:]]),
            np.concatenate([np.arange(d) * (d + 1), matrix.indices[start:]]),
            np.concatenate([[0], matrix.indptr[1:] - start + d]),
        ),
        shape=matrix.shape,
    ).tocsc()


def steady_states(model: LindbladModel, detunings) -> np.ndarray:
    """Unique unit-trace null vectors of L0 + delta K, one per drive detuning.

    delta (MHz) moves the drive frame: every qubit detuning of ``model``
    is lowered by delta, which changes only the diagonal of the Liouvillian
    (see _detuning_generator).  So L0 is assembled once per sweep.  The
    solve runs over the d^2 real Hermitian coordinates x = U vec(rho) of
    the state (_hermitian_coordinates): A = U L0 U^dagger and K_r =
    U K U^dagger are real, and K_r only couples the real and imaginary
    parts of each coherence.  Row 0 of A (the d rho_00/dt equation,
    linearly dependent on the other population rows because L preserves
    trace) is replaced by the trace functional sum_a x_aa, once per sweep.
    Each point refills one reused dense work array with A + delta K_r and
    solves (A + delta K_r) x = e_0 with one real LAPACK LU
    factorization; that is all the per-point work.  The real bordered
    matrix is a unitary similarity of the complex one, so it has the same
    singular values.  Raises DegenerateSteadyStateError when its reciprocal
    1-norm condition number, estimated from the LU factors, is below
    STEADY_RCOND_MIN (e.g. a disconnected dark subspace with no decay
    path).

    The rest runs once on the whole sweep.  The states are gathered from
    the real solutions, so each is exactly Hermitian.  One sparse product
    gives every residual |(L0 + delta K) vec(rho)|, and one above 1e-10 of
    the 1-norm of that point's bordered matrix raises
    DegenerateSteadyStateError.  _check_states, the validator evolve uses,
    raises ValueError unless every state has unit trace within 1e-9 and no
    eigenvalue below -1e-8.  Each message names the drive detuning (MHz)
    of the first point that failed.  Returns one complex array of shape
    (len(detunings), d, d).  A nonzero detuning needs the model's qubit
    basis (ValueError without one).
    """
    detunings = np.asarray(detunings, dtype=float).reshape(-1)
    d = model.dimension
    if model.basis is None:
        if np.any(detunings != 0.0):
            raise ValueError("a nonzero drive detuning needs a model with a qubit basis")
        generator = np.zeros(d * d)
    else:
        generator = _detuning_generator(model.basis)
    liouville = assemble_liouvillian(model)
    unitary, gather = _hermitian_coordinates(d)
    bordered = _trace_bordered(_real_similarity(unitary, liouville), d)
    rotation = _detuning_rotation(generator, gather)
    getrf, gecon, getrs, lange = get_lapack_funcs(
        ("getrf", "gecon", "getrs", "lange"), dtype=np.float64
    )
    # the only dense d^2 x d^2 array, refilled per point; Fortran order, so
    # getrf factors it in place.  flat is its column-major ravel, a view.
    work = np.empty((d * d, d * d), order="F")
    flat = work.ravel(order="F")
    rotation_at = rotation.col * (d * d) + rotation.row
    rhs = np.zeros(d * d)
    rhs[0] = 1.0
    x = np.empty((detunings.size, d * d))
    anorms = np.empty(detunings.size)
    for k, delta in enumerate(detunings):
        bordered.toarray(out=work)
        if delta:
            flat[rotation_at] += delta * rotation.data
        anorms[k] = lange("1", work)
        lu, piv, info = getrf(work, overwrite_a=True)
        rcond = gecon(lu, anorms[k])[0] if info == 0 else 0.0
        if rcond < STEADY_RCOND_MIN:
            raise DegenerateSteadyStateError(
                f"Liouvillian null space is degenerate (rcond {rcond:.3e} of the trace-bordered "
                f"matrix, below {STEADY_RCOND_MIN:.0e}) at drive detuning {delta:g} MHz"
            )
        x[k], _ = getrs(lu, piv, rhs)
    vecs = _hermitian_matrix(x, gather)
    del x
    # in place, so no more than two (d^2, points) arrays live beside vecs
    residuals = liouville @ vecs.T
    shift = vecs.T * generator[:, None]
    shift *= detunings
    residuals += shift
    del shift
    residuals = np.abs(residuals).max(axis=0, initial=0.0)
    bad = np.flatnonzero(residuals > 1e-10 * np.maximum(1.0, anorms))
    if bad.size:
        k = bad[0]
        raise DegenerateSteadyStateError(
            f"steady-state residual {residuals[k]:.3e} too large at drive detuning "
            f"{detunings[k]:g} MHz"
        )
    states = vecs.reshape(detunings.size, d, d)
    _check_states(states, detunings, "drive detuning {:g} MHz")
    return states


def dominant_oscillation(model: LindbladModel, rho0, observable, min_freq: float = 0.05):
    """Frequency and damping (MHz) of the strongest fringe in a signal.

    Decomposes tr(O rho(t)) into Liouvillian eigenmodes and returns the
    oscillating mode (|Im lambda|/2pi > min_freq) with the largest
    amplitude for the given initial state; exact where a least-squares
    fit of a multi-component damped signal would be biased.
    """
    liouville = assemble_liouvillian(model).toarray()
    values, left, right = eig(liouville, left=True)
    rho = np.asarray(rho0, dtype=complex).reshape(-1)
    obs_vec = np.asarray(observable, dtype=complex).T.reshape(-1)
    best = None
    for k in range(values.size):
        freq = abs(values[k].imag) / TWO_PI
        if freq <= min_freq:
            continue
        norm = left[:, k].conj() @ right[:, k]
        if abs(norm) < 1e-12:
            continue
        amplitude = (obs_vec @ right[:, k]) * (left[:, k].conj() @ rho) / norm
        if best is None or abs(amplitude) > best[0]:
            best = (abs(amplitude), freq, -values[k].real / TWO_PI)
    if best is None:
        raise ValueError("no oscillating mode found above the frequency floor")
    return best[1], best[2]


def thermal_qubit_steady(
    g1d: float,
    gloss: float,
    gphi: float,
    n_th: float,
    omega_rabi: float,
    delta: float,
) -> tuple[float, complex]:
    """Closed-form driven steady state of a single qubit in a thermal bath.

    Returns (rho_ee, rho_eg) for drive detuning delta, using the thermally
    enhanced rates gamma1_th = (2 n_th + 1)(g1d + gloss) and gamma2_th =
    gamma1_th/2 + gphi.  All rates in MHz (ratios only).
    """
    if min(g1d, gloss, gphi, n_th) < 0:
        raise ValueError("rates and occupancy must be >= 0")
    gamma1_th = (2.0 * n_th + 1.0) * (g1d + gloss)
    gamma2_th = gamma1_th / 2.0 + gphi
    if gamma2_th <= 0:
        raise ValueError("qubit without decoherence has no unique steady state")
    x = delta / gamma2_th
    saturation = omega_rabi**2 / (gamma1_th * gamma2_th) if omega_rabi else 0.0
    denom = 1.0 + x**2 + saturation
    rho_ee = (n_th / (2.0 * n_th + 1.0)) * (1.0 + x**2) / denom + 0.5 * saturation / denom
    rho_eg = -1j * omega_rabi / (2.0 * gamma2_th * (2.0 * n_th + 1.0)) * (1.0 + 1j * x) / denom
    return float(rho_ee), complex(rho_eg)


def dark_state_rates(gloss: float, gphi: float, gphi_c: float) -> tuple[float, float]:
    """Decay and decoherence rates of a half-wavelength pair's dark state.

    gamma1_dark = gloss + gphi - gphi_c (differential dephasing leaks the
    dark state into the fast-decaying bright state) and gamma2_dark =
    gloss/2 + gphi, independent of the correlation.
    """
    if gloss < 0 or gphi < 0:
        raise ValueError("gloss and gphi must be >= 0")
    return gloss + gphi - gphi_c, gloss / 2.0 + gphi
