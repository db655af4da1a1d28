"""Master-equation assembly, time evolution and steady states.

Hamiltonians inside :class:`LindbladModel` are angular (rad/us, i.e. 2*pi
times a value in MHz); dissipator rates stay in MHz and pick up their
2*pi factor exactly once, in _kron_terms, which writes the Liouvillian as
stacked Kronecker factors.  Times are in us.  A model is a Hamiltonian and
a list of independent jumps: :func:`build_model` turns each correlated
rate matrix into collective jumps once.

Every solver works in Hermitian coordinates, the d^2 real parameters of
rho, where the generator A = U L U^dagger is real, and gets A from one
construction, _real_generator, which reads it from the factors' nonzeros
on a set of coordinates; U is written once, as its rows on such a set
(_coordinate_weights), which also give vec(rho) = U^dagger x.
:func:`evolve` and :func:`dominant_oscillation` share one preamble,
_reached_block, over the coordinates their states can reach, so a
symmetry such as the excitation-number conservation of an undriven hold
shows up as a small block without any rule that names it; evolve
exponentiates the block once per distinct grid step.
:func:`steady_states` uses all d^2 coordinates, once per sweep over the
drive detuning delta, which only shifts the diagonal: L(delta) = L0 +
delta K with K[a*d + b] = i 2 pi (N_a - N_b), N the total excitation
number.  Each point is one real dense LU solve of the trace-bordered
generator, whose LAPACK condition estimate flags a degenerate null space.
Both solvers check their stack of states once (_check_states: unit
trace, no eigenvalue below -1e-8, NaN failing) and name the failing time
or drive detuning.  :func:`assemble_liouvillian` gives the complex CSR
Liouvillian for outside checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eig, get_lapack_funcs

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
    ValueError names a non-finite Hamiltonian entry or rate, a
    non-Hermitian Hamiltonian and a negative rate.
    """

    hamiltonian: np.ndarray
    dissipators: tuple[tuple[np.ndarray, float], ...] = ()
    basis: ProductBasis | None = None

    def __post_init__(self):
        ham = np.asarray(self.hamiltonian, dtype=complex)
        if ham.ndim != 2 or ham.shape[0] != ham.shape[1]:
            raise ValueError("hamiltonian must be square")
        finite = np.isfinite(ham)
        if not finite.all():
            a, b = np.argwhere(~finite)[0]
            raise ValueError(f"hamiltonian entry ({a}, {b}) is not finite: {ham[a, b]}")
        scale = max(1.0, float(np.max(np.abs(ham)))) if ham.size else 1.0
        if not np.max(np.abs(ham - ham.conj().T)) <= 1e-12 * scale:
            raise ValueError("hamiltonian is not Hermitian within 1e-12")
        object.__setattr__(self, "hamiltonian", ham)
        checked = []
        for k, (op, rate) in enumerate(self.dissipators):
            op = np.asarray(op, dtype=complex)
            if op.shape != ham.shape:
                raise ValueError("jump operator shape does not match the hamiltonian")
            if not math.isfinite(rate):
                raise ValueError(f"dissipator {k} rate {rate} is not finite")
            if not rate >= 0:
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
    the largest carry none.  A non-finite entry, an asymmetric matrix or an
    eigenvalue below -1e-9 raises ValueError.
    """
    mat = np.asarray(rate_matrix, dtype=float)
    if mat.ndim != 2 or mat.shape != (len(site_operators),) * 2:
        raise ValueError("rate matrix must be square with one row per site operator")
    finite = np.isfinite(mat)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"rate matrix entry ({i}, {j}) is not finite: {mat[i, j]}")
    if not np.max(np.abs(mat - mat.T)) <= 1e-12 * max(1.0, np.max(np.abs(mat))):
        raise ValueError("rate matrix must be symmetric")
    rates, vectors = np.linalg.eigh(mat)
    if not rates.min() >= -1e-9:
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


def _kron_terms(model: LindbladModel) -> tuple[np.ndarray, np.ndarray]:
    """The Liouvillian as stacked factors, L = sum_t A[t] (x) B[t] on the row-major vec.

    With K = -iH - (1/2) sum_k 2 pi gamma_k L_k^dagger L_k, rho -> K rho +
    rho K^dagger gives the terms (K, 1) and (1, K^*), and each jump rho ->
    2 pi gamma_k L_k rho L_k^dagger the term (2 pi gamma_k L_k, L_k^*); a
    jump at rate 0 feeds nothing and gets none.  Rates are multiplied by
    2*pi here, the single place they become angular (rad/us).  Returns the
    complex (terms, d, d) stacks A and B.
    """
    d = model.dimension
    jumps = [(op, rate) for op, rate in model.dissipators if rate != 0]
    ops = np.array([op for op, _ in jumps], dtype=complex).reshape(-1, d, d)
    rates = TWO_PI * np.array([rate for _, rate in jumps])
    left = np.empty((len(jumps) + 2, d, d), dtype=complex)
    right = np.empty_like(left)
    left[2:] = rates[:, None, None] * ops
    np.conjugate(ops, out=right[2:])
    effective = -1j * model.hamiltonian
    for rate, product in zip(rates, np.swapaxes(right[2:], 1, 2) @ ops):
        effective = effective - 0.5 * rate * product
    left[0], right[0] = effective, np.eye(d)
    left[1], right[1] = np.eye(d), effective.conj()
    return left, right


def _kron_entries(left: np.ndarray, right: np.ndarray, reached: np.ndarray):
    """Entries of L = sum_t A[t] (x) B[t] between the coordinates of a set.

    reached holds sorted indices a*d + b, closed under a <-> b.  Nonzeros
    (a, a') of A[t] and (b, b') of B[t] between basis states of reached
    pairs give A[t, a, a'] B[t, b, b'] at (ab, a'b'), all terms at once;
    pairs outside the set are dropped.  Returns rows and columns as
    positions in reached, and complex values in term order, unsummed.
    """
    d = left.shape[-1]
    states = np.flatnonzero(np.bincount(reached // d, minlength=d))
    position = np.full((d, d), -1)
    position.flat[reached] = np.arange(reached.size)
    lt, li, lj = (left[:, states[:, None], states] != 0).nonzero()
    rt, ri, rj = (right[:, states[:, None], states] != 0).nonzero()
    li, lj, ri, rj = states[li], states[lj], states[ri], states[rj]
    count = np.bincount(rt, minlength=len(right))
    reps = count[lt]  # each nonzero of A[t] meets every nonzero of B[t]
    pair_l = np.repeat(np.arange(lt.size), reps)
    # the k-th pair in the run of a left entry takes the k-th right entry of its term
    first = (count.cumsum() - count)[lt] - reps.cumsum() + reps
    pair_r = np.arange(reps.sum()) + np.repeat(first, reps)
    rows = position[li[pair_l], ri[pair_r]]
    cols = position[lj[pair_l], rj[pair_r]]
    values = left[lt, li, lj][pair_l]
    values *= right[rt, ri, rj][pair_r]
    del pair_l, pair_r
    keep = (rows >= 0) & (cols >= 0)
    return rows[keep], cols[keep], values[keep]


def assemble_liouvillian(model: LindbladModel) -> sparse.csr_matrix:
    """Superoperator L with vec(drho/dt) = L vec(rho), as a CSR matrix.

    vec is row-major (vec(rho)[i*d + j] = rho[i, j]), so vec(A rho B) =
    (A (x) B^T) vec(rho), and with the terms of _kron_terms

        L = K (x) 1 + 1 (x) K^* + sum_k 2 pi gamma_k L_k (x) L_k^*,

    summed from _kron_entries by the CSR conversion.  Output is angular
    (rad/us).  No solver uses it; it serves checks from outside.
    """
    d = model.dimension
    rows, cols, values = _kron_entries(*_kron_terms(model), np.arange(d * d))
    return sparse.csr_matrix((values, (rows, cols)), shape=(d * d, d * d))


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a): a degree-18 Taylor polynomial of a / 2^s (1-norm <= 1, error
    1/19! ~ 8e-18), squared s times.  numpy products only: scipy.linalg.expm
    runs on scipy's own BLAS thread pool, which contends with numpy's and
    stalled a 64 x 64 exponential from 0.3 ms to 0.3 s on a 2-core host.
    """
    squarings = int(np.ceil(np.log2(max(float(np.abs(a).sum(axis=0).max(initial=0.0)), 1.0))))
    x = a / 2.0**squarings
    term = result = np.eye(len(a), dtype=a.dtype)
    for k in range(1, 19):
        term = term @ x / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def _coordinate_weights(reached: np.ndarray, d: int):
    """The rows of U, x = U vec(rho), on coordinates closed under a <-> b.

    The Hermitian coordinates have x[a*d + a] = rho_aa and, for a < b,
    x[a*d + b] = sqrt(2) Re rho_ab and x[b*d + a] = sqrt(2) Im rho_ab, so x
    is real exactly when rho is Hermitian, and U is unitary.  U has at most
    two entries per row, so on that set x = alpha v + beta v[partner], with
    v the row-major vec restricted to the set and partner the position of
    entry ba for entry ab.  Returns (alpha, beta, partner); this is the one
    place U is written.
    """
    a, b = np.divmod(reached, d)
    scale = np.sqrt(0.5)
    alpha = np.where(a < b, scale, np.where(a > b, 1j * scale, 1.0))
    beta = np.where(a < b, scale, np.where(a > b, -1j * scale, 0.0))
    return alpha, beta, np.searchsorted(reached, b * d + a)


def _hermitian_vec(x: np.ndarray, weights) -> np.ndarray:
    """vec(rho) = U^dagger x on a coordinate set, from its rows of U (_coordinate_weights).

    x holds real coordinates on its last axis (leading axes are a stack).
    Through the adjoint of each orbit's 2 x 2 block, v_i = conj(alpha_i) x_i
    + conj(beta[partner_i]) x[partner_i]: exactly Hermitian, and C-ordered
    whatever the layout of x, so each state's vec is one contiguous row.
    """
    alpha, beta, partner = weights
    vec = np.multiply(alpha.conj(), x, order="C")
    vec += beta.conj()[partner] * x[..., partner]
    return vec


def _real_generator(left: np.ndarray, right: np.ndarray, reached: np.ndarray, weights):
    """The real generator A = U L U^dagger on a coordinate set closed under a <-> b.

    The set splits into orbits {ab, ba} led by the entry with a <= b (aa
    alone), and U maps an orbit's vec entries to its coordinates by a 2 x 2
    block W, read from weights, the rows of U on the set
    (_coordinate_weights); so A between orbits I and K is W_I L_IK
    W_K^dagger.  np.bincount sums the entries of L (_kron_entries) into the
    blocks present in term order; then all blocks are transformed at once,
    with no n x n array.  Returns the ascending flat indices i*n + k into
    the n x n block (n = reached.size) and the real values.  ValueError if
    an imaginary part exceeds 1e-10 of the largest entry.
    """
    n = reached.size
    rows, cols, values = _kron_entries(left, right, reached)
    alpha, beta, partner = weights
    index = np.arange(n)
    lead, second = np.minimum(index, partner), partner < index
    pairs, slot = lead[rows] * n + lead[cols], second[rows] * 2 + second[cols]
    del rows, cols
    pairs, block_of = np.unique(pairs, return_inverse=True)
    slot = slot * pairs.size + block_of
    block = np.empty((2, 2, pairs.size), dtype=complex)
    block.real.flat = np.bincount(slot, values.real, block.size)
    block.imag.flat = np.bincount(slot, values.imag, block.size)
    del slot, block_of, values
    i, k = np.divmod(pairs, n)
    # rows i and partner_i of U, read at columns i and partner_i, for every lead i
    weights = np.array([[alpha, beta], [beta[partner], alpha[partner]]])
    generator = np.einsum("rsg,stg->rtg", weights.take(i, axis=2), block)
    del block
    generator = np.einsum("rtg,ctg->rcg", generator, weights.conj().take(k, axis=2))
    at = np.array([i, partner[i]])[:, None] * n + np.array([k, partner[k]])
    # a diagonal orbit has no second coordinate
    real = np.ones(at.shape, dtype=bool)
    real[1] = partner[i] != i
    real[:, 1] &= partner[k] != k
    at, generator = at[real], generator[real]
    largest = max(1.0, float(np.abs(generator).max(initial=0.0)))
    if np.abs(generator.imag).max(initial=0.0) > 1e-10 * largest:
        raise ValueError("superoperator does not map Hermitian matrices to Hermitian matrices")
    order = np.argsort(at)
    return at[order], generator.real[order]


def _reached_block(model: LindbladModel, rho: np.ndarray):
    """The coordinates evolution can fill from a state or stack, A on them, and the start.

    rho is a complex d x d state or m x d x d stack: ValueError unless d is
    the model's dimension and each state is Hermitian within 1e-10 (NaN
    fails).  L feeds rho_ab from rho_a'b' with sum_t A[t, a, a'] B[t, b, b']
    (_kron_terms).  The reached pairs (a, b) are a boolean fixed point on a
    d x d matrix R, from every entry rho_ab or rho_ba nonzero in some
    state, each step adding P(A[t]) R P(B[t])^T for every term (P: nonzero
    pattern).  Entries never reached stay exactly zero.  The terms mirror
    each other under a <-> b, so the set is closed under a <-> b, the same
    in the vec and in Hermitian coordinates.  Returns the sorted reached
    indices a*d + b, the dense block of A on them, the rows of U on them
    (_coordinate_weights) and the (m, n) start coordinates x0 = U vec(rho).
    """
    d = model.dimension
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (d, d):
        raise ValueError("initial state dimension mismatch")
    states = rho.reshape(-1, d, d)
    deviation = np.abs(states - np.swapaxes(states, 1, 2).conj()).max(axis=(1, 2))
    bad = np.flatnonzero(~(deviation <= 1e-10))
    if bad.size:
        k = bad[0]
        which = "initial state" if rho.ndim == 2 else f"initial state {k} of the stack"
        raise ValueError(f"{which} is not Hermitian within 1e-10 (deviation {deviation[k]:.3e})")
    left, right = _kron_terms(model)
    support = (states != 0).any(axis=0)
    reached = support | support.T
    # 0/1 patterns in float32: exact for these counts (at most d^2), half the memory
    left_p = (left != 0).astype(np.float32)
    right_t = np.swapaxes(right != 0, 1, 2).astype(np.float32)
    while True:
        fed = reached | (left_p @ reached @ right_t).any(axis=0)
        if np.array_equal(fed, reached):
            break
        reached = fed
    index = np.flatnonzero(reached)
    alpha, beta, partner = weights = _coordinate_weights(index, d)
    flat, values = _real_generator(left, right, index, weights)
    block = np.zeros((index.size, index.size))
    block.flat[flat] = values
    vecs = states.reshape(-1, d * d)[:, index]
    return index, block, weights, (alpha * vecs + beta * vecs[:, partner]).real


def _lowest_eigenvalues(stack: np.ndarray, axes: tuple) -> np.ndarray:
    """Lowest eigenvalue over axes per point of a (points, ..., k, k) stack; NaN if not finite."""
    try:
        return np.linalg.eigvalsh(stack).min(axis=axes)
    except np.linalg.LinAlgError:  # on NaN: finite points then read inf, unchecked
        finite = np.isfinite(stack).reshape(len(stack), -1).all(axis=1)
        if finite.all():
            raise
        return np.where(finite, np.inf, np.nan)


def _check_states(states: np.ndarray, points, where: str, reached=None) -> None:
    """ValueError unless each state has unit trace and no eigenvalue below -1e-8 (NaN fails both).

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
    bad = np.argwhere(~(np.abs(traces - 1.0) <= 1e-9))  # NaN fails too
    if bad.size:
        k = tuple(bad[0])
        raise ValueError(
            f"trace {traces[k]} differs from 1 beyond 1e-9 at {where.format(points[k[0]])}"
        )
    axes = tuple(range(1, states.ndim - 1))  # all but the point axis of the eigenvalues
    if reached is None:
        lowest = _lowest_eigenvalues(states, axes)
    else:
        d = states.shape[-1]
        a, b = np.divmod(reached, d)
        linked = np.eye(d, dtype=bool)
        linked[a, b] = linked[b, a] = True
        while True:  # boolean closure: linked[i, j] once i and j share a block
            closed = linked @ linked
            if np.array_equal(closed, linked):
                break
            linked = closed
        lowest = np.full(len(points), np.inf)
        pending = np.zeros(d, dtype=bool)
        pending[a] = True  # basis states of the nonzero blocks
        while pending.any():
            members = np.flatnonzero(linked[np.argmax(pending)])
            pending[members] = False
            block = states[..., members[:, None], members]
            lowest = np.minimum(lowest, _lowest_eigenvalues(block, axes))
    bad = np.flatnonzero(~(lowest >= -1e-8))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"state has an eigenvalue {lowest[k]:.3e} below -1e-8 at {where.format(points[k])}"
        )


def evolve(model: LindbladModel, rho0, times) -> np.ndarray:
    """Exact master-equation evolution of one state or a stack of states.

    rho0 is a d x d state or an m x d x d stack of states, taken at
    times[0] (us); returns the state at every grid time as one complex
    array of shape (len(times), d, d), or (len(times), m, d, d) for a stack.
    It runs in the real Hermitian coordinates x = U vec(rho), only over
    those the state can fill (_reached_block); every other one stays
    exactly zero.  An undriven hold conserves N_a - N_b on rho_ab, so from
    one excitation among five qubits it reaches 26 of the 1024 coordinates
    at n_th = 0 and 252 with thermal excitation, while a drive reaches all.
    Each step multiplies by the exponential of the block; steps equal
    within 1e-12 relative share one exponential.  ValueError unless the
    times are finite and rho0 (each state of a stack) is Hermitian within
    1e-10.  States are read back as U^dagger x from real x (_hermitian_vec),
    so they are exactly Hermitian, and each one, rho0 included, must have
    unit trace within 1e-9 and no eigenvalue below -1e-8 (_check_states).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1D grid")
    finite = np.isfinite(times)
    if not finite.all():
        raise ValueError(f"times must be finite: t = {times[~finite][0]:g} us")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    rho = np.asarray(rho0, dtype=complex)
    d = model.dimension
    reached, block, weights, x0 = _reached_block(model, rho)
    exponentials: list[tuple[float, np.ndarray]] = []
    path = [x0.T]  # one column per state
    for step in np.diff(times):
        for known, exponential in exponentials:
            if abs(step - known) <= 1e-12 * known:
                break
        else:
            exponential = _expm(block * step)
            exponentials.append((step, exponential))
        path.append(exponential @ path[-1])
    # U^dagger x on the reached coordinates; every other entry stays zero
    states = np.zeros((times.size, len(x0), d * d), dtype=complex)
    states[..., reached] = _hermitian_vec(np.swapaxes(path, 1, 2), weights)
    _check_states(states.reshape(times.size, -1, d, d), times, "t = {:g} us", reached)
    return states.reshape((times.size,) + rho.shape)


def _detuning_generator(basis: ProductBasis) -> np.ndarray:
    """Diagonal of K = dL/d(delta) in the row-major vec basis (rad/us per MHz).

    Moving the drive frame by delta (MHz) lowers every qubit detuning by
    delta, i.e. H -> H - 2 pi delta N with N the total excitation number,
    so L(delta) = L0 + delta K with K[a*d + b] = i 2 pi (N_a - N_b).
    """
    counts = np.array([bin(s).count("1") for s in range(basis.dimension)], dtype=float)
    return 1j * TWO_PI * (counts[:, None] - counts[None, :]).reshape(-1)


def _detuning_rotation(generator: np.ndarray, d: int):
    """K_r = U diag(generator) U^dagger in Hermitian coordinates, as (row, column, value) arrays.

    The generator entries i w at ab and -i w at ba (a < b) turn rho_ab at
    rate w, i.e. dx_ab/dt = -w x_ba and dx_ba/dt = w x_ab: K_r has entries
    at (ab, ba) and (ba, ab) only, never on the diagonal or in row 0.
    """
    a, b = np.divmod(np.arange(d * d), d)
    upper = np.flatnonzero((a < b) & (generator != 0))
    lower = (b * d + a)[upper]
    rate = generator[upper].imag
    return np.concatenate([upper, lower]), np.concatenate([lower, upper]), np.concatenate([-rate, rate])


def steady_states(model: LindbladModel, detunings) -> np.ndarray:
    """Unique unit-trace null vectors of L0 + delta K, one per drive detuning.

    delta (MHz) lowers every qubit detuning of ``model``, which changes
    only the diagonal of the Liouvillian (_detuning_generator).  The solve
    runs over the real Hermitian coordinates x = U vec(rho), with A = U L0
    U^dagger (_real_generator on all d^2, once per sweep) and K_r = U K
    U^dagger, which only couples the two coordinates of each coherence.
    Row 0 of A (d rho_00/dt, dependent on the other population rows as L
    preserves trace) becomes the trace row sum_a x_aa in the entries.  Each
    point refills one dense work array from them and the pairs of K_r and
    solves (A + delta K_r) x = e_0 by one real LAPACK LU, a unitary
    similarity of the complex bordered matrix: DegenerateSteadyStateError
    when its reciprocal 1-norm condition number, estimated from the LU, is
    below STEADY_RCOND_MIN (e.g. a dark subspace with no decay path).

    Then, once per sweep, y = (A + delta K_r) x = U L vec(rho) from one
    sparse product; max |U^dagger y| = max |L vec(rho)| above 1e-10 of the
    1-norm of that point's bordered matrix raises DegenerateSteadyStateError.
    The states, U^dagger x from the real x (_hermitian_vec) and so exactly
    Hermitian, must have unit trace within 1e-9 and no eigenvalue below
    -1e-8 (_check_states, ValueError).  Messages name the drive detuning
    (MHz) of the first failing point.  Returns a complex (len(detunings),
    d, d) array.  A nonzero detuning needs the model's qubit basis
    (ValueError without one).
    """
    detunings = np.asarray(detunings, dtype=float).reshape(-1)
    d = model.dimension
    n = d * d
    if model.basis is None:
        if np.any(detunings != 0.0):
            raise ValueError("a nonzero drive detuning needs a model with a qubit basis")
        generator = np.zeros(n)
    else:
        generator = _detuning_generator(model.basis)
    weights = _coordinate_weights(np.arange(n), d)
    flat, values = _real_generator(*_kron_terms(model), np.arange(n), weights)
    indptr = np.searchsorted(flat, np.arange(n + 1) * n)  # the entries are in CSR order
    real_generator = sparse.csr_matrix((values, flat % n, indptr), shape=(n, n))
    body = real_generator.indptr[1]
    # the bordered matrix at column-major positions column * n + row: the
    # trace row (0, aa), then rows 1.. of A
    fill_at = np.concatenate([np.arange(d) * (d + 1) * n, flat[body:] % n * n + flat[body:] // n])
    fill = np.concatenate([np.ones(d), values[body:]])
    del flat
    rotation_rows, rotation_cols, rotation = _detuning_rotation(generator, d)
    rotation_at = rotation_cols * n + rotation_rows
    getrf, gecon, getrs, lange = get_lapack_funcs(
        ("getrf", "gecon", "getrs", "lange"), dtype=np.float64
    )
    # the only dense d^2 x d^2 array, refilled per point; Fortran order, so
    # getrf factors it in place.  work_flat is its column-major ravel, a view.
    work = np.empty((n, n), order="F")
    work_flat = work.ravel(order="F")
    rhs = np.zeros(n)
    rhs[0] = 1.0
    x = np.empty((n, detunings.size))  # one column per point
    anorms = np.empty(detunings.size)
    for k, delta in enumerate(detunings):
        work_flat.fill(0.0)
        work_flat[fill_at] = fill
        if delta:
            work_flat[rotation_at] += delta * rotation
        anorms[k] = lange("1", work)
        lu, piv, info = getrf(work, overwrite_a=True)
        rcond = gecon(lu, anorms[k])[0] if info == 0 else 0.0
        if rcond < STEADY_RCOND_MIN:
            raise DegenerateSteadyStateError(
                f"Liouvillian null space is degenerate (rcond {rcond:.3e} of the trace-bordered "
                f"matrix, below {STEADY_RCOND_MIN:.0e}) at drive detuning {delta:g} MHz"
            )
        x[:, k], _ = getrs(lu, piv, rhs)
    del work, work_flat, lu
    y = real_generator @ x
    shift = x[rotation_cols] * rotation[:, None]
    shift *= detunings
    y[rotation_rows] += shift
    del shift
    # |L vec(rho)| entry by entry: the moduli of U^dagger y
    residuals = np.abs(_hermitian_vec(y.T, weights)).max(axis=1)
    del y
    bad = np.flatnonzero(residuals > 1e-10 * np.maximum(1.0, anorms))
    if bad.size:
        k = bad[0]
        raise DegenerateSteadyStateError(
            f"steady-state residual {residuals[k]:.3e} too large at drive detuning "
            f"{detunings[k]:g} MHz"
        )
    states = _hermitian_vec(x.T, weights).reshape(detunings.size, d, d)
    _check_states(states, detunings, "drive detuning {:g} MHz")
    return states


def dominant_oscillation(model: LindbladModel, rho0, observable, min_freq: float = 0.05):
    """Frequency and damping (MHz) of the strongest fringe in a signal.

    Decomposes tr(O rho(t)) into Liouvillian eigenmodes and returns the
    oscillating mode (|Im lambda|/2pi > min_freq) with the largest
    amplitude for the given initial state; exact where a least-squares
    fit of a multi-component damped signal would be biased.  rho0 is one
    d x d state, which gives one (frequency, damping) pair, or an m x d x d
    stack, which gives a list of m pairs from one eigendecomposition.  The
    modes are those of the real generator block on the coordinates the
    stack reaches (_reached_block, which checks the states as evolve does):
    no other mode carries amplitude.
    """
    rho = np.asarray(rho0, dtype=complex)
    reached, block, (alpha, beta, partner), starts = _reached_block(model, rho)
    values, left, right = eig(block, left=True)
    # tr(O rho) = o . vec(rho) with o = vec(O^T), and vec(rho) = U^dagger x
    obs_vec = np.asarray(observable, dtype=complex).T.reshape(-1)[reached]
    obs_vec = obs_vec * alpha.conj() + obs_vec[partner] * beta.conj()
    best = [None] * len(starts)
    for k in range(values.size):
        freq = abs(values[k].imag) / TWO_PI
        if freq <= min_freq:
            continue
        norm = left[:, k].conj() @ right[:, k]
        if abs(norm) < 1e-12:
            continue
        for m, start in enumerate(starts):
            amplitude = (obs_vec @ right[:, k]) * (left[:, k].conj() @ start) / norm
            if best[m] is None or abs(amplitude) > best[m][0]:
                best[m] = (abs(amplitude), freq, -values[k].real / TWO_PI)
    if None in best:
        raise ValueError("no oscillating mode found above the frequency floor")
    pairs = [(freq, damping) for _, freq, damping in best]
    return pairs if rho.ndim == 3 else pairs[0]


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
