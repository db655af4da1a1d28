"""Master-equation assembly, time evolution and steady states.

Hamiltonians inside :class:`LindbladModel` are angular (rad/us, i.e. 2*pi
times a value in MHz); dissipator rates stay in MHz and pick up their
2*pi factor exactly once, in _kron_terms, which writes the Liouvillian as
stacked Kronecker factors.  Times are in us.  A model is a Hamiltonian and
a list of independent jumps: :func:`build_model` turns each correlated
rate matrix into collective jumps once.

Both solvers take L from one builder, _sector_generator, in sector
coordinates (_Sectors), on any set of coordinates a*d + b closed under
a <-> b.  Only the coherent drive moves N_a - N_b on rho_ab (N the total
excitation number), by one, so the sectors s = |N_a - N_b| order the
unknowns: sector 0 in real Hermitian coordinates x0 = U0 vec(rho), and
above it the complex entries z = rho_ab with N_a > N_b, where L is
complex-linear; rho_ba = conj(z) is no unknown and its row is never
formed.  The builder sums L's entries on the rows N_a >= N_b from the
stacked factors (_kron_entries) and moves them into these coordinates,
once per build: it returns the plan of their places (_Plan) with their
values, and each solver reads the places off that plan.  A state is the
real u = (x0, Re z, Im z, ...), and _Sectors.vec alone maps u back to
vec(rho) = U0^dagger x0, z and conj(z) for both solvers.  A
detuning change only moves the diagonal of L, by one per-qubit generator
K(w)[a*d + b] = i 2 pi sum_j w_j (n_j(a) - n_j(b)) (_detuning_generator),
which in sector coordinates turns pairs (x_ab, x_ba) and (Re z, Im z)
(_Sectors.rotation).
:func:`evolve` and :func:`dominant_oscillation` share one preamble,
_reached_block, over the coordinates their states can reach, so a
symmetry such as the excitation-number conservation of an undriven hold
shows up as a small block without any rule that names it: the real form
(_real_places) of the builder's entries there.  dominant_oscillation
decomposes that block by one numpy eig and one solve for all its starts,
and reads no fringe at or below core.OSCILLATION_MIN_FREQ, the floor the
swap's coupling rule shares.  evolve exponentiates the block once per
distinct grid step of the call, and its states stay vec entries on those
coordinates (_propagate) until they are returned or read as populations
(_held_populations).  The model caches its factors
and its last block at zero offset with its sector coordinates and state
layout, which _reached_block alone reads and writes; no exponential
outlives the call that formed it.  A hold at per-qubit detuning offsets
adds the rotation of K(-offsets) to the cached block, so one model serves
holds at several detunings.
:func:`steady_states` takes the builder's entries on all d^2
coordinates, at drive detunings delta: L(delta) = L0 + delta K with K
the same generator at unit weights, K[a*d + b] = i 2 pi (N_a - N_b).  Its
trace-bordered system M(delta) (_BorderedGenerator, prepared once per
call) is block tridiagonal over the sectors, real in sector 0 and
complex above, and is factored by one block LU over runs of adjacent
sectors; a few detunings are solved by one block LU each, many from the
one block LU of a shift-invert pencil in closed form, and the LAPACK
condition estimate of every pivot block flags a degenerate null space at
once; then the residual, from L's own complex entries, and the state
checks run at every detuning.
Both solvers check their stack of states once, on its vec entries
(_check_states: unit trace, no eigenvalue below -1e-8 by a Cholesky
certificate per block, NaN failing) and name the failing time or drive
detuning.
The builder's indices depend only on the structure of a model: its
qubit count, the nonzeros of its stacked factors (their number and
masks) and the coordinate set.  The builder keeps them per structure,
with what the steady-state system and the holds derive from them
(_Plan), looking the structure up once per build, and every call puts
the model's values on them by one gather, sum and scatter, in the order
of the index code, so the bits do not depend on whether the plan was
stored.  The store keeps the PLAN_MAX = 16 newest plans (oldest out);
one on the 1024 coordinates of five qubits, with the steady-state
system's places, holds about 1.5 MB of int32 places.  A
process gains when it builds a structure twice, e.g. repeated spectra of
one array at other rates, or a spectrum and a steady state of one
array; a single-config `wgqed run`, which builds each structure once,
only pays the key (tens of us).
:func:`assemble_liouvillian` gives the complex CSR Liouvillian for
outside checks; no solver calls it.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eig, get_blas_funcs, get_lapack_funcs, solve

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
]

# A trace-bordered Liouvillian with LAPACK reciprocal condition number
# below this has a degenerate null space (more than one steady state).
STEADY_RCOND_MIN = 1e-13

# steady_states solves at most this many distinct drive detunings by one
# block LU each, and more from the one block LU of a shift-invert pencil,
# whose setup costs about as many per-point solves: on 2 cores the pencil
# took 1.0-1.8 ms against 0.07-0.13 ms per point at N = 3 (crossover 14-16
# points), and 0.49-0.55 s against 8.4-10.4 ms per point at N = 5
# (crossover 50-58; 38-41 with every sector in real form, and 23-28 with
# the dense LU)
POINTWISE_MAX = 24

# steady_states factors its bordered generator by pivot blocks: sector 0,
# and runs of adjacent sectors |N_a - N_b| above it, each closed, from the
# top sector down, once it holds this many real coordinates (a complex
# unknown counts two).  On 2 cores one block per sector took 0.08-0.12 ms
# per point at N = 2 and 3 against 0.02-0.07 ms as one block, where a
# LAPACK call costs more than its flops; at N = 4 and 5 merging the small
# top sectors cost nothing.  Only the run that reaches sector 1 can stay
# below it (at N <= 3), and such a block is applied through its inverse
# (getri): OpenBLAS threads every getrs on several columns, and there its
# 22 x 20 coupling solve sat 6-8 ms per call on 2 cores in some processes,
# where getri and one gemm take 0.02 ms on one core.
PIVOT_MIN = 64

# A Hermitian block B whose B + CERTIFICATE_SHIFT I has a finite Cholesky
# factor has no eigenvalue below -1e-8: the factorization's rounding, about
# k eps |B| for a k x k block, is far inside the remaining 0.5e-8.
CERTIFICATE_SHIFT = 0.5e-8


class DegenerateSteadyStateError(RuntimeError):
    """The Liouvillian null space is not one-dimensional.

    Detected by :func:`steady_states` as a pivot block of the block LU of
    the trace-bordered Liouvillian (real in sector 0, complex above) that
    LAPACK finds singular or whose reciprocal condition number (gecon on
    its LU factors) is below STEADY_RCOND_MIN; as a shift-invert pencil
    singular at a detuning; or as a solution with a large residual.  The
    message names the drive detuning (MHz) of the sweep point that failed,
    and for a pivot block its sectors |N_a - N_b|.
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


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Hamiltonian (angular, rad/us) plus jump operators (rates in MHz).

    Every dissipator is an independent (operator, rate) jump: correlated
    channels arrive already diagonalized into collective jumps (see
    build_model).  ``basis``, when present, is the qubit product space the
    matrices act on; the dimension is read from the Hamiltonian.
    ValueError names a non-finite Hamiltonian entry or rate, a
    non-Hermitian Hamiltonian, a basis of another dimension and a negative
    rate.  The matrices are read-only copies, so what _cache derives from
    them cannot go stale.
    A model equals only itself and hashes by identity.
    """

    hamiltonian: np.ndarray
    dissipators: tuple[tuple[np.ndarray, float], ...] = ()
    basis: ProductBasis | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        ham = np.array(self.hamiltonian, dtype=complex)
        if ham.ndim != 2 or ham.shape[0] != ham.shape[1]:
            raise ValueError("hamiltonian must be square")
        finite = np.isfinite(ham)
        if not finite.all():
            a, b = np.argwhere(~finite)[0]
            raise ValueError(f"hamiltonian entry ({a}, {b}) is not finite: {ham[a, b]}")
        scale = max(1.0, float(np.max(np.abs(ham)))) if ham.size else 1.0
        if not np.max(np.abs(ham - ham.conj().T)) <= 1e-12 * scale:
            raise ValueError("hamiltonian is not Hermitian within 1e-12")
        if self.basis is not None and self.basis.dimension != len(ham):
            raise ValueError(f"basis dimension {self.basis.dimension} does not match hamiltonian dimension {len(ham)}")
        ham.setflags(write=False)
        object.__setattr__(self, "hamiltonian", ham)
        checked = []
        for k, (op, rate) in enumerate(self.dissipators):
            op = np.array(op, dtype=complex)
            if op.shape != ham.shape:
                raise ValueError("jump operator shape does not match the hamiltonian")
            if not math.isfinite(rate):
                raise ValueError(f"dissipator {k} rate {rate} is not finite")
            if not rate >= 0:
                raise ValueError(f"negative dissipator rate {rate}")
            op.setflags(write=False)
            checked.append((op, float(rate)))
        object.__setattr__(self, "dissipators", tuple(checked))

    @property
    def dimension(self) -> int:
        return self.hamiltonian.shape[0]


def _collective_jumps(rate_matrix, site_operators) -> list[tuple[np.ndarray, float]]:
    """Independent jumps (sum_j v_jk op_j, lambda_k) of a correlated rate matrix.

    Each eigenpair (lambda_k, v_k) that core.collective_rates keeps becomes
    one collective jump at its eigenvalue rate, which keeps the generator
    in manifestly completely positive form.  A matrix of another shape than
    one row per site operator, or one that core.collective_rates rejects,
    raises ValueError.
    """
    mat = np.asarray(rate_matrix, dtype=float)
    if mat.ndim != 2 or mat.shape != (len(site_operators),) * 2:
        raise ValueError("rate matrix must be square with one row per site operator")
    rates, vectors = core.collective_rates(mat)
    return [
        (sum(vectors[j, k] * op for j, op in enumerate(site_operators)), float(rates[k]))
        for k in range(rates.size)
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
    loss and thermal jumps, and those of the dephasing matrix
    (core.dephasing_matrix) over sigma_z at half rate.  Both matrices are
    judged by core.collective_rates: SystemSpec applies it to its dephasing
    matrix, and the decay matrix is a Gram matrix, PSD by construction.
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

    sigma_z = [basis.sigma_z(j) for j in range(n)]
    dephasing = _collective_jumps(core.dephasing_matrix(spec), sigma_z)
    dissipators += [(op, rate / 2.0) for op, rate in dephasing]

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


def _kron_entries(left: np.ndarray, right: np.ndarray, reached: np.ndarray, excitations: np.ndarray):
    """Entries of L = sum_t A[t] (x) B[t] between the coordinates of a set, on its rows N_a >= N_b, as factor places.

    reached holds sorted indices a*d + b, closed under a <-> b, and
    excitations the excitation number N of each basis state.  Nonzeros
    (a, a') of A[t] and (b, b') of B[t] between basis states of reached
    pairs give A[t, a, a'] B[t, b, b'] at (ab, a'b'), all terms at once.
    Each term's nonzeros of B are grouped by N_b, so a nonzero of A at row
    a meets only those with N_b <= N_a; pairs outside the set are dropped.
    It reads only where A and B are nonzero.  Returns rows and columns as
    positions in reached, and the flat places in A and in B of each
    entry's two factors (its value is A.flat[p] * B.flat[q]), unsummed;
    the nonzeros of A keep their order, so the entries at one place come
    in term order.
    """
    d = left.shape[-1]
    states = np.flatnonzero(np.bincount(reached // d, minlength=d))
    position = np.full(d * d, -1)
    position[reached] = np.arange(reached.size)
    lt, li, lj = (left[:, states[:, None], states] != 0).nonzero()
    rt, ri, rj = (right[:, states[:, None], states] != 0).nonzero()
    li, lj, ri, rj = states[li], states[lj], states[ri], states[rj]
    levels = int(excitations.max(initial=0)) + 1
    group = rt * levels + excitations[ri]
    order = np.argsort(group, kind="stable")
    rt, ri, rj = rt[order], ri[order], rj[order]
    # below[t, N]: the nonzeros of B[t] with N_b <= N, which lead its run
    below = np.bincount(group, minlength=len(right) * levels).reshape(len(right), levels).cumsum(axis=1)
    start = below[:, -1].cumsum() - below[:, -1]
    reps = below[lt, excitations[li]]
    pair_l = np.repeat(np.arange(lt.size), reps)
    # the k-th pair in the run of a left entry takes the k-th right entry of its term
    pair_r = np.arange(reps.sum()) + np.repeat(start[lt] - reps.cumsum() + reps, reps)
    rows = position[li[pair_l] * d + ri[pair_r]]  # flat indexing: 2-D fancy is slower
    kept = rows >= 0
    pair_l, pair_r, rows = pair_l[kept], pair_r[kept], rows[kept]
    cols = position[lj[pair_l] * d + rj[pair_r]]
    keep = cols >= 0
    left_at, right_at = ((lt * d + li) * d + lj)[pair_l[keep]], ((rt * d + ri) * d + rj)[pair_r[keep]]
    return rows[keep], cols[keep], left_at, right_at


def assemble_liouvillian(model: LindbladModel) -> sparse.csr_matrix:
    """Superoperator L with vec(drho/dt) = L vec(rho), as a CSR matrix.

    vec is row-major (vec(rho)[i*d + j] = rho[i, j]), so vec(A rho B) =
    (A (x) B^T) vec(rho), and with the terms of _kron_terms

        L = K (x) 1 + 1 (x) K^* + sum_k 2 pi gamma_k L_k (x) L_k^*,

    summed from _kron_entries, on every row, by the CSR conversion.
    Output is angular (rad/us).  It is for outside checks; no solver calls
    it (they take L from _sector_generator).
    """
    d = model.dimension
    left, right = _kron_terms(model)
    rows, cols, left_at, right_at = _kron_entries(left, right, np.arange(d * d), np.zeros(d, dtype=int))
    values = left.reshape(-1)[left_at] * right.reshape(-1)[right_at]
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


class _Sectors:
    """Sector coordinates of a model's states on sorted coordinates a*d + b closed under a <-> b.

    A state rho is the real vector u = (x0, Re z_1, Im z_1, Re z_2, ...):
    - x0, on the set's coordinates of sector 0 (N_a = N_b; all of them for
      a model with no qubit basis) in ascending order, is Hermitian: x_aa =
      rho_aa and, for a < b, x_ab = sqrt(2) Re rho_ab and x_ba = sqrt(2) Im
      rho_ab, so x0 = U0 vec(rho) with U0 unitary, at most two entries per
      row: x_i = alpha_i v_i + beta_i v_partner(i), with v the vec on these
      coordinates and partner(i) the place of ba for ab;
    - z holds the entries rho_ab with N_a > N_b, ordered by N_a - N_b and
      then by index; rho_ba = conj(z) is no coordinate.
    Attributes: N of each basis state (excitations), the set (reached),
    N_a - N_b on it (signed), the places in the set of x0 (zero) and of z
    (upper) and conj(z) (lower), the rows of U0 (alpha, beta, partner, the
    latter among x0) and each place's unknown among x0 then z (slot; -1 for
    a conjugate).  This is the one place U0 is written.
    """

    def __init__(self, reached: np.ndarray, model: LindbladModel):
        d = model.dimension
        a, b = np.divmod(reached, d)
        excitations = np.zeros(d, dtype=int)  # N; without a qubit basis every coordinate is in sector 0
        for j in range(model.basis.n_qubits if model.basis is not None else 0):
            excitations += model.basis._excited(j)
        self.excitations, self.reached, self.signed = excitations, reached, excitations[a] - excitations[b]
        self.zero, upper = np.flatnonzero(self.signed == 0), np.flatnonzero(self.signed > 0)
        self.upper = upper[np.argsort(self.signed[upper], kind="stable")]
        self.lower = np.searchsorted(reached, (b * d + a)[self.upper])
        self.slot = np.full(reached.size, -1)
        self.slot[np.append(self.zero, self.upper)] = np.arange(self.zero.size + self.upper.size)
        a, b = a[self.zero], b[self.zero]
        self.alpha = np.where(a < b, np.sqrt(0.5), np.where(a > b, 1j * np.sqrt(0.5), 1.0))
        self.beta = np.where(a == b, 0.0, self.alpha.conj())
        self.partner = np.searchsorted(reached[self.zero], b * d + a)

    def coordinates(self, vecs: np.ndarray) -> np.ndarray:
        """The real u of the Hermitian parts of states given as (m, n) vec entries on the set."""
        x0 = (self.alpha * vecs[:, self.zero] + self.beta * vecs[:, self.zero[self.partner]]).real
        z = 0.5 * (vecs[:, self.upper] + vecs[:, self.lower].conj())
        return np.concatenate([x0, np.stack([z.real, z.imag], axis=-1).reshape(len(z), -1)], axis=1)

    def vec(self, u: np.ndarray) -> np.ndarray:
        """The vec entries on the set, U0^dagger x0 then z and conj(z), of real u on the last axis.

        Leading axes of u are a stack.  The entries are exactly Hermitian,
        and C-ordered whatever the layout of u, so each state's vec is one
        contiguous row.  Linear in u, so u = e_k gives the weight of u_k in
        a linear readout.
        """
        n0 = self.zero.size
        vec = np.empty(u.shape, dtype=complex)
        x = u[..., :n0]
        vec[..., self.zero] = self.alpha.conj() * x + self.beta.conj()[self.partner] * x[..., self.partner]
        z = np.ascontiguousarray(u[..., n0:]).view(complex)
        vec[..., self.upper] = z
        vec[..., self.lower] = z.conj()
        return vec

    def rotation(self, rates: np.ndarray):
        """A diagonal generator K, i rates on the set's coordinates, on u as (row, column, value).

        K turns rho_ab at its rate w: each pair (x_ab, x_ba), a < b, in
        sector 0 and each (Re z, Im z) above moves as d(first, second)/dt =
        w (-second, first).  Pairs at rate 0 are left out; the rest come in
        order, x0 first.
        """
        n0 = self.zero.size
        lead = np.flatnonzero(self.partner > np.arange(n0))
        first = np.append(lead, n0 + 2 * np.arange(self.upper.size))
        second = np.append(self.partner[lead], first[lead.size :] + 1)
        rate = rates[np.append(self.zero[lead], self.upper)]
        first, second, rate = first[rate != 0], second[rate != 0], rate[rate != 0]
        return (np.column_stack([first, second]).ravel(), np.column_stack([second, first]).ravel(),
                np.column_stack([-rate, rate]).ravel())


# The plans of _sector_generator, by structure, oldest evicted
# first.  One benchmark pass builds 4 structures for spectra, 9-10 for
# protocols (by seed) and 3 for driven_n5, and the 17 bundled configs 11
# in all; below the number of structures a process cycles through, each
# plan would be evicted before its structure came back, and 16 keeps all
# of these.  A plan on the 1024 coordinates of five qubits, with what
# _BorderedGenerator derives from it, holds about 1.5 MB of int32 places.
PLAN_MAX = 16
_PLANS: dict = {}
_PLANS_LOCK = threading.Lock()


def _places(*arrays):
    """Each array as read-only int32 places: a plan's arrays are shared by every model of its structure."""
    out = []
    for array in arrays:
        array = np.asarray(array, dtype=np.int32)
        array.setflags(write=False)
        out.append(array)
    return out


class _Plan:
    """Every index of _sector_generator on one structure, and the pass that puts a model's values on them.

    Two models on one structure (the qubit count, the nonzeros of the
    stacked factors of _kron_terms and the set of coordinates) differ only
    in their values.  Built from the pairing of the factors' nonzeros
    (_kron_entries), the plan holds each entry's factor places in the sum
    order (stable by place, so a place sums in term order) and the start of
    each place's run; L's summed places (rows, cols) and those inside the
    sector coordinates; the entries moved through the orbits of U0
    (_Sectors) at their places in sector coordinates (i, j), whose weights
    entries gathers from the sectors; the entries of the sector-0 block
    with the rank of each one's place among the block's places, by which
    the realness check sums them; and the _Sectors and _state_layout of
    the set.  The values entries returns belong at (rows, cols) and (i,
    j).  An entry that couples sectors |N_a - N_b| more than one apart, or
    feeds a z from a conj(z), raises ValueError here, so no plan of such a
    structure exists.  _sector_generator alone builds and stores plans.
    bands and block are what _BorderedGenerator and _reached_block derive
    from a plan alone, set on their first use.
    """

    bands = block = None

    def __init__(self, left: np.ndarray, right: np.ndarray, sectors: _Sectors):
        reached, signed, n = sectors.reached, sectors.signed, sectors.reached.size
        rows, cols, left_at, right_at = _kron_entries(left, right, reached, sectors.excitations)
        key = rows * n + cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        start = np.flatnonzero(key != np.append(-1, key[:-1]))
        rows, cols = np.divmod(key[start], n)
        # an entry two apart in N_a - N_b couples sectors two apart, or feeds a z from a conj(z)
        bad = np.flatnonzero(np.abs(signed[rows] - signed[cols]) > 1)
        if bad.size:
            r, c = rows[bad[0]], cols[bad[0]]
            s, t = abs(signed[r]), abs(signed[c])
            why = f"couples sectors {s} and {t} of |N_a - N_b|, more than one apart" if abs(s - t) > 1 else (
                "feeds rho_ab with N_a > N_b from a conjugate: L is not complex-linear in z")
            raise ValueError(f"bordered generator entry ({reached[r]}, {reached[c]}) {why}")
        inside = np.flatnonzero(sectors.slot[cols] >= 0)
        i, j = sectors.slot[rows[inside]], sectors.slot[cols[inside]]
        # the columns of sector 0 through U0^dagger, then its rows through U0:
        # an entry in an orbit keeps its place and adds one at its partner's
        n0, partner = sectors.zero.size, sectors.partner
        by_column = np.flatnonzero(j < n0)
        j, i = np.append(j, partner[j[by_column]]), np.append(i, i[by_column])
        by_row = np.flatnonzero(i < n0)
        i, j = np.append(i, partner[i[by_row]]), np.append(j, j[by_row])
        # the entries of the sector-0 block, and the rank of each one's place among the block's places
        square = np.flatnonzero((i < n0) & (j < n0))
        square_bin = np.unique(i[square] * n0 + j[square], return_inverse=True)[1]
        (self.left_at, self.right_at, self.start, self.rows, self.cols, self.inside, self.i, self.j,
         self.by_column, self.by_row, self.square, self.square_bin) = _places(
            left_at[order], right_at[order], start, rows, cols, inside, i, j,
            by_column, by_row, square, square_bin)
        self.sectors, self.layout = sectors, _state_layout(reached, left.shape[-1])

    def entries(self, left: np.ndarray, right: np.ndarray):
        """_sector_generator's values for the factors of a model of this structure: L's at (rows, cols), then at (i, j).

        Gathers and multiplies the factors, sums each place's run, weights
        the orbits, checks that the sector-0 block is real and scatters:
        the operations of the index code on the same values, so the same
        bits.
        """
        values = np.add.reduceat(left.reshape(-1)[self.left_at] * right.reshape(-1)[self.right_at], self.start)
        v = np.empty(self.i.size, dtype=complex)
        end = self.inside.size
        v[:end] = values[self.inside]
        alpha, beta = self.sectors.alpha, self.sectors.beta
        for index, orbit, here, there in ((self.j, self.by_column, alpha.conj(), beta.conj()),
                                          (self.i, self.by_row, alpha, beta)):
            # weight there at the partner's place, appended, then here at the entry's own
            moved = v[end : end + orbit.size]
            np.multiply(v[orbit], there[index[end : end + orbit.size]], out=moved)
            v[orbit] *= here[index[orbit]]
            end += orbit.size
        block = v[self.square]
        # the sector-0 block summed at each of its places, in entry order
        real = np.bincount(self.square_bin, np.ascontiguousarray(block.real))
        imag = np.bincount(self.square_bin, np.ascontiguousarray(block.imag))
        worst = max(imag.max(initial=0.0), -imag.min(initial=0.0))
        if worst > 1e-10 * max(1.0, float(np.hypot(real, imag).max(initial=0.0))):
            raise ValueError("superoperator does not map Hermitian matrices to Hermitian matrices")
        v[self.square] = block.real
        return values, v


def _sector_generator(left: np.ndarray, right: np.ndarray, reached: np.ndarray, model: LindbladModel):
    """L on a set of coordinates: its summed entries on the rows N_a >= N_b, and in sector coordinates.

    The entries come from the stacked factors (_kron_terms, _kron_entries)
    of model on the sorted coordinates reached, closed under a <-> b,
    formed only on the rows with N_a >= N_b (a row with N_a < N_b is the
    conjugate of one above sector 0) and summed.  Only the coherent drive
    moves N_a - N_b, by one: ValueError names an entry that couples sectors
    |N_a - N_b| more than one apart, or that feeds a z from a conj(z), where
    L would not be complex-linear in z.  In sector coordinates (_Sectors)
    the rows of sector 0 are those of U0 L and the columns of sector 0 those
    of L U0^dagger; columns with N_a < N_b are dropped, as a sector-0 row
    reads rho_c and its conjugate together, as 2 Re((U0 L)[:, c] z_c).  The
    sector-0 block U0 L U0^dagger, summed, must be real: ValueError if an
    imaginary part exceeds 1e-10 of its largest entry, on every call.  No
    n x n array is formed.
    The indices depend on the structure alone, keyed by the qubit count (0
    without a basis), the factors' shapes and nonzero masks and the set,
    packed to bits.  This is the one function that reads or writes _PLANS,
    once per call: on a miss it builds the plan (_Plan) and stores it, past
    PLAN_MAX plans the oldest out; a structure it rejects is never stored,
    so it raises on every call.  Two threads that miss one structure both
    build it, and both get the plan stored first.  Every call then puts the
    values of left and right on the plan (_Plan.entries).  Returns the
    plan; the values of L at its places plan.rows, plan.cols (positions in
    the set sorted by row, each once); and the values in sector coordinates
    at plan.i, plan.j (the unknowns' slots, where a place can repeat: users
    add them up), complex and real in the sector-0 block.
    """
    coordinates = np.zeros(left.shape[-1] ** 2, dtype=bool)
    coordinates[reached] = True
    # a complex array cast to bool is its nonzero mask, 3x faster than != 0
    key = (model.basis.n_qubits if model.basis is not None else 0, left.shape, right.shape) + tuple(
        np.packbits(mask.astype(bool)).tobytes() for mask in (left, right, coordinates))
    plan = _PLANS.get(key)
    if plan is None:
        plan = _Plan(left, right, _Sectors(reached, model))
        with _PLANS_LOCK:
            plan = _PLANS.setdefault(key, plan)
            while len(_PLANS) > PLAN_MAX:
                del _PLANS[next(iter(_PLANS))]
    return (plan, *plan.entries(left, right))


def _real_places(rows: np.ndarray, cols: np.ndarray, n0: int):
    """The places of the real form of sector-coordinate entries at (rows, cols), and its gather.

    The real form acts on the real u = (x0, Re z, Im z, ...): a sector-0
    row is real and reads z_c as 2 Re(v z_c); a z row reads x0 as v x and
    z as v z, complex-linear.  Places repeat where the entries do; users
    add the values (_real_values) up.
    Returns the real form's rows and columns on u, which entries a z
    column reads twice (doubled), and the place of each real value among
    the real parts, the negated imaginary parts and the imaginary parts of
    the entries, stacked (take; _real_values).
    """
    upper_row, upper_col = rows >= n0, cols >= n0
    row, col = np.where(upper_row, 2 * rows - n0, rows), np.where(upper_col, 2 * cols - n0, cols)
    both = upper_row & upper_col
    at = np.arange(rows.size)
    return (
        np.concatenate([row, row[upper_col], row[upper_row] + 1, row[both] + 1]),
        np.concatenate([col, col[upper_col] + 1, col[upper_row], col[both] + 1]),
        upper_col & ~upper_row,
        np.concatenate([at, rows.size + at[upper_col], 2 * rows.size + at[upper_row], at[both]]),
    )


def _real_values(values: np.ndarray, doubled: np.ndarray, take: np.ndarray) -> np.ndarray:
    """The real form's values at its places (_real_places), from the complex sector-coordinate entries."""
    values = np.where(doubled, 2.0, 1.0) * values
    return np.concatenate([values.real, -values.imag, values.imag])[take]


def _reached_block(model: LindbladModel, rho: np.ndarray):
    """The coordinates evolution can fill from a state or stack, the generator on them, and the start.

    rho is a complex d x d state or m x d x d stack: ValueError unless d is
    the model's dimension and each state is Hermitian within 1e-10 (NaN
    fails).  L feeds rho_ab from rho_a'b' with sum_t A[t, a, a'] B[t, b, b']
    (_kron_terms).  The reached pairs (a, b) are a boolean fixed point on a
    d x d matrix R, from every entry rho_ab or rho_ba nonzero in some
    state, each step adding P(A[t]) R P(B[t])^T for every term (P: nonzero
    pattern).  Entries never reached stay exactly zero.  The terms mirror
    each other under a <-> b, so the set is closed under a <-> b; a
    detuning offset only moves the diagonal of L, so it reaches the same
    set.  The block is the real form (_real_places) of the builder's sector
    entries there (_sector_generator): the rows of the bordered system of
    steady_states without its trace row, on u = (x0, Re z, Im z, ...)
    (_Sectors).  It is the Hermitian-coordinate block U L U^dagger up to a
    permutation and a diagonal rescaling (sqrt(2), and a sign where a > b).
    Its sectors, state layout and the block's places come from the plan
    the builder returns, shared by every model of the structure.
    This is the one function that reads or writes model._cache: it keeps
    the factors and patterns under "terms", and under "reach" the last
    tuple (reached, block, sectors, layout), read once and replaced whole,
    so a start that reaches exactly that set reuses it.  Returns that
    tuple, with the sorted reached indices a*d + b, the dense block at zero
    offset, the _Sectors of the set and its _state_layout, and the (m, n)
    start coordinates u of the states' Hermitian parts.
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
    terms = model._cache.get("terms")
    if terms is None:
        left, right = _kron_terms(model)
        # 0/1 patterns in float32: exact for these counts (at most d^2), half the memory
        patterns = (left != 0).astype(np.float32), np.swapaxes(right != 0, 1, 2).astype(np.float32)
        terms = model._cache["terms"] = left, right, patterns
    left, right, (left_p, right_t) = terms
    support = (states != 0).any(axis=0)
    reached = support | support.T
    while True:
        fed = reached | (left_p @ reached @ right_t).any(axis=0)
        if np.array_equal(fed, reached):
            break
        reached = fed
    index = np.flatnonzero(reached)
    known = model._cache.get("reach")
    if known is None or not np.array_equal(known[0], index):
        plan, _, v = _sector_generator(left, right, index, model)
        if plan.block is None:  # the real form's places in the dense block, and its gather
            rows, cols, doubled, take = _real_places(plan.i, plan.j, plan.sectors.zero.size)
            plan.block = (*_places(rows * index.size + cols, take), doubled)
        places, take, doubled = plan.block
        values = _real_values(v, doubled, take)
        block = np.bincount(places, values, index.size**2).reshape(index.size, index.size)
        known = model._cache["reach"] = index, block, plan.sectors, plan.layout
    return known, known[2].coordinates(states.reshape(-1, d * d)[:, index])


def _lowest_eigenvalues(stack: np.ndarray, axes: tuple) -> np.ndarray:
    """Lowest eigenvalue over axes per point of a (points, ..., k, k) Hermitian stack, or inf.

    One batched Cholesky certificate comes first: if stack +
    CERTIFICATE_SHIFT I factors with a finite factor (numpy returns NaN
    factors for NaN entries without raising), no eigenvalue is below -1e-8
    and every point reads inf.  Otherwise eigvalsh gives every point's
    lowest eigenvalue; NaN for a point that is not finite.  Both read the
    lower triangle alone.
    """
    try:
        factor = np.linalg.cholesky(stack + CERTIFICATE_SHIFT * np.eye(stack.shape[-1]))
    except np.linalg.LinAlgError:
        pass
    else:
        if np.isfinite(factor).all():
            return np.full(len(stack), np.inf)
    try:
        return np.linalg.eigvalsh(stack).min(axis=axes)
    except np.linalg.LinAlgError:  # on NaN: finite points then read inf, unchecked
        finite = np.isfinite(stack).reshape(len(stack), -1).all(axis=1)
        if finite.all():
            raise
        return np.where(finite, np.inf, np.nan)


def _state_layout(reached: np.ndarray, d: int):
    """Where the diagonal and the nonzero blocks of d x d states sit among their entries on reached.

    reached holds sorted coordinates a*d + b, closed under a <-> b, and the
    states are zero off them.  A reached coordinate ab links basis states a
    and b, so every state is block diagonal over the connected components
    of those links: its eigenvalues are those of its blocks, and a block
    that holds no reached coordinate is zero.  Returns the positions in
    reached of the d diagonal coordinates aa and one k x k array of
    positions per nonzero block, -1 marking a coordinate that is not
    reached (_gather reads it as zero).  It depends on the set alone, so a
    caller that checks many stacks on one set prepares it once.
    """
    position = np.full((d, d), -1)
    position.flat[reached] = np.arange(reached.size)
    linked = (position >= 0) | np.eye(d, dtype=bool)
    while True:  # boolean closure: linked[i, j] once i and j share a block
        closed = linked @ linked
        if np.array_equal(closed, linked):
            break
        linked = closed
    blocks = []
    pending = np.zeros(d, dtype=bool)
    pending[reached // d] = True  # basis states of the nonzero blocks
    while pending.any():
        members = np.flatnonzero(linked[np.argmax(pending)])
        pending[members] = False
        blocks.append(position[members[:, None], members])
    return position.diagonal(), blocks


def _gather(entries: np.ndarray, at: np.ndarray) -> np.ndarray:
    """entries[..., at] with a zero where at is -1 (a coordinate that is not reached)."""
    values = np.zeros(entries.shape[:-1] + at.shape, dtype=entries.dtype)
    inside = at >= 0
    values[..., inside] = entries[..., at[inside]]
    return values


def _check_states(entries: np.ndarray, layout, points, where: str) -> None:
    """ValueError unless each state has unit trace and no eigenvalue below -1e-8 (NaN fails both).

    entries is a (len(points), ..., n) stack of the vec entries of d x d
    states on n coordinates, one leading entry per point, and layout
    (_state_layout) places their diagonal and nonzero blocks; every other
    entry of the states is zero.  The message names the first failing
    point as where.format(point), e.g. "t = {:g} us" or "drive detuning
    {:g} MHz".  The traces sum each diagonal, zeros included, in the order
    of np.trace on the d x d states.  Each nonzero block is gathered and
    checked once on the whole stack (_lowest_eigenvalues: one Cholesky
    certificate, eigvalsh only where it fails).  The certificate's rounding
    is far inside its margin: with unit trace and no eigenvalue below
    -1e-8, no entry exceeds about 1.
    """
    diagonal, blocks = layout
    traces = _gather(entries, diagonal).sum(axis=-1).real
    bad = np.argwhere(~(np.abs(traces - 1.0) <= 1e-9))  # NaN fails too
    if bad.size:
        k = tuple(bad[0])
        raise ValueError(
            f"trace {traces[k]} differs from 1 beyond 1e-9 at {where.format(points[k[0]])}"
        )
    axes = tuple(range(1, entries.ndim))  # all but the point axis of the eigenvalues
    lowest = np.full(len(points), np.inf)
    for at in blocks:
        lowest = np.minimum(lowest, _lowest_eigenvalues(_gather(entries, at), axes))
    bad = np.flatnonzero(~(lowest >= -1e-8))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"state has an eigenvalue {lowest[k]:.3e} below -1e-8 at {where.format(points[k])}"
        )


def _hold_offsets(model: LindbladModel, offsets):
    """Per-qubit detuning offsets (MHz) of a hold as a float array, or None for none or all zero.

    ValueError names a non-finite offset, a count that is not one per
    qubit of the model's basis, and nonzero offsets on a model with no
    basis (it has no qubits to shift).
    """
    if offsets is None:
        return None
    offsets = np.asarray(offsets, dtype=float).reshape(-1)
    finite = np.isfinite(offsets)
    if not finite.all():
        raise ValueError(f"detuning offset {offsets[~finite][0]:g} MHz is not finite")
    if model.basis is None:
        if offsets.any():
            raise ValueError("nonzero detuning offsets need a model with a qubit basis")
        return None
    if offsets.size != model.basis.n_qubits:
        raise ValueError(
            f"{offsets.size} detuning offsets for {model.basis.n_qubits} qubits: need one per qubit"
        )
    return offsets if offsets.any() else None


def _propagate(model: LindbladModel, rho, times, offsets=None):
    """The evolution of evolve on the reached coordinates alone: (reached, entries).

    rho is a d x d state or an m x d x d stack at times[0] (us), held at
    the model's detunings plus offsets (evolve).  Returns the sorted
    reached coordinates a*d + b (_reached_block) and the complex
    (len(times), m, n) vec entries of every state on them (m = 1 for a
    single state), from the real sector coordinates u by _Sectors.vec;
    every other vec entry is exactly zero.  The block is the cached one at
    zero offset plus the rotation of the offsets (_Sectors.rotation) on its
    pairs (x_ab, x_ba) and (Re z, Im z).  The path u is one preallocated
    (len(times), n, m) array, each step one product with the exponential of
    the block into the next slot.  Each step takes the exponential of the
    first step in grid order that it equals within 1e-12 relative, so every
    class of equal steps is exponentiated once per call; none is kept after
    it returns.
    ValueError unless the times are finite and strictly increasing
    (core.time_grid_us, naming the first time that is not), and each
    state, rho included, must pass _check_states.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1-D grid")
    times = core.time_grid_us(times, "us")
    steps = np.diff(times)
    offsets = _hold_offsets(model, offsets)
    (reached, block, sectors, layout), x0 = _reached_block(model, np.asarray(rho, dtype=complex))
    if offsets is not None:
        rows, cols, values = sectors.rotation(_detuning_generator(model.basis, -offsets)[reached].imag)
        block = block.copy()
        block[rows, cols] += values
    exponentials = []  # one per class of equal steps, in grid order
    chosen = np.full(steps.size, -1)
    while (chosen < 0).any():
        step = steps[np.argmax(chosen < 0)]
        chosen[(chosen < 0) & (np.abs(steps - step) <= 1e-12 * step)] = len(exponentials)
        exponentials.append(_expm(block * step))
    path = np.empty((times.size,) + x0.T.shape)  # one column per state
    path[0] = x0.T
    for k, which in enumerate(chosen):
        np.matmul(exponentials[which], path[k], out=path[k + 1])
    entries = sectors.vec(np.swapaxes(path, 1, 2))
    _check_states(entries, layout, times, "t = {:g} us")
    return reached, entries


def _held_populations(
    model: LindbladModel, number_op: np.ndarray, rho0, times, offsets=None
) -> np.ndarray:
    """tr(N rho(t)) for one state rho0 and a diagonal N, summed off the entries rho_aa of _propagate.

    The terms are added from zero in ascending a, as an einsum over the
    diagonals of evolve's states adds them, so the sums are bitwise equal.
    """
    reached, entries = _propagate(model, rho0, times, offsets)
    a, b = np.divmod(reached, model.dimension)
    weights = np.diag(number_op)
    populations = np.zeros(len(entries))
    for k in np.flatnonzero((a == b) & (weights[a] != 0)):
        populations += entries[:, 0, k].real * weights[a[k]]
    return populations


def evolve(model: LindbladModel, rho0, times, offsets=None) -> np.ndarray:
    """Exact master-equation evolution of one state or a stack of states.

    rho0 is a d x d state or an m x d x d stack of states, taken at
    times[0] (us); returns the state at every grid time as one complex
    array of shape (len(times), d, d), or (len(times), m, d, d) for a stack.
    offsets (MHz, one per qubit of the model's basis) raise the qubit
    detunings of the hold above the model's, as a model built at the
    summed detunings would hold them: they only move the diagonal of L,
    by K(-offsets) (_detuning_generator), so one model serves holds at
    several detunings.  Zero offsets are no offsets.  It runs in the real
    sector coordinates u of the steady-state solver (x0 = U0 vec(rho) in
    sector 0, then Re and Im of each rho_ab with N_a > N_b; _Sectors), only
    over those the state can fill (_reached_block), on the generator of the
    one builder (_sector_generator); every other one stays exactly zero.  An
    undriven hold conserves N_a - N_b on rho_ab, so from one excitation
    among five qubits it reaches 26 of the 1024 coordinates at n_th = 0
    and 252 with thermal excitation, while a drive reaches all.  Each step
    multiplies by the exponential of the block; steps equal within 1e-12
    relative share one exponential, formed once per call.  The model keeps
    its factors and its block at zero offset for later calls on the same
    coordinates, at any offsets.  ValueError unless the times are finite
    and strictly increasing, the offsets are finite and one per qubit
    (_hold_offsets), and rho0 (each state of a stack) is Hermitian within
    1e-10, and unless each state, rho0 included, has unit trace within
    1e-9 and no eigenvalue below -1e-8 (_check_states).
    _propagate does all of that on the reached coordinates; evolve
    scatters its entries.
    """
    reached, entries = _propagate(model, rho0, times, offsets)
    states = np.zeros(entries.shape[:-1] + (model.dimension**2,), dtype=complex)
    states[..., reached] = entries
    return states.reshape((len(entries),) + np.shape(rho0))


def _detuning_generator(basis: ProductBasis, weights) -> np.ndarray:
    """Diagonal of K(w) = dL/ds in the row-major vec basis (rad/us per MHz), per-qubit weights w.

    Lowering qubit j's detuning by s w_j (MHz) changes H by -2 pi s
    sum_j w_j n_j, so L(s) = L0 + s K(w) with K[a*d + b] = i 2 pi
    sum_j w_j (n_j(a) - n_j(b)).  Unit weights move the drive frame by s =
    delta (every qubit, H -> H - 2 pi delta N); a hold raises qubit j by
    offsets_j through K(-offsets) at s = 1.  The level sums run in qubit
    order, so integer weights give exact integer levels.
    """
    levels = np.zeros(basis.dimension)
    for j, weight in enumerate(weights):
        levels += weight * basis._excited(j)
    return 1j * TWO_PI * (levels[:, None] - levels[None, :]).reshape(-1)


def _real_view(z: np.ndarray) -> np.ndarray:
    """A Fortran-ordered (n, m) complex array as (2n, m) reals, Re and Im of each row in turn; no copy."""
    return z.T.view(np.float64).T


def _complex_view(u: np.ndarray) -> np.ndarray:
    """The (n, m) complex array whose _real_view is the (2n, m) real u, Fortran-ordered."""
    return np.asfortranarray(u).T.view(np.complex128).T


class _BorderedGenerator:
    """The trace-bordered steady-state system M(delta) u = e_0 of one model, its block LU and checks.

    delta (MHz) lowers every qubit detuning of the model, which changes
    only the diagonal of the Liouvillian: L(delta) = L0 + delta K, K[a*d +
    b] = i 2 pi (N_a - N_b) (_detuning_generator).  Every term of L but
    the coherent drive conserves N_a - N_b on rho_ab, and the drive moves
    it by one, so L couples each sector s = |N_a - N_b| of its entries to
    its neighbours alone (a model with no basis is sector 0).  The entries
    come from the one builder (_sector_generator) on all d^2 coordinates,
    which names an entry that couples sectors more than one apart; the
    unknowns u are its sector coordinates (_Sectors):
    - in sector 0 (populations, and coherences of equal N), the real
      Hermitian coordinates x0 = U0 vec(rho), with the rows of U0 L in
      their real form (_real_places: a sector-1 entry rho_c enters with its
      conjugate, as 2 Re((U0 L)[:, c] rho_c)), row 0 (d rho_00/dt,
      dependent on the other population rows as L preserves trace)
      replaced by the trace row sum_a x_aa;
    - in each sector s >= 1, the complex entries z = rho_ab with N_a - N_b
      = s, with the rows of L, sector-0 columns taken through U0^dagger,
      and i 2 pi s delta on the diagonal: there M(delta) is
      complex-linear, so its blocks have half the order of a real form.
    The pivot blocks are sector 0 alone, then runs of adjacent sectors,
    each closed, from the top sector down, once it holds PIVOT_MIN real
    coordinates (a complex unknown counts two), so M(delta) is block
    tridiagonal over them; the builder orders z by sector, so each block's
    unknowns are contiguous.  Block k's rows over the columns of blocks k -
    1 to k + 1 are one dense Fortran band: real for sector 0, where block 1
    enters by its real view (_real_view), and complex above.  What depends
    on the structure alone (_structure: the blocks, the bands' geometry,
    the places of the sector entries and of delta K in them, the CSR
    structure of L's own complex entries on the rows N_a >= N_b, the index
    maps of the 1-norm terms, the rotation of delta K for the pencil and
    the state layout) is derived once per structure and kept by the plan
    the builder returns; each steady_states call puts its model's values
    on it: the CSR the residual check multiplies (a row N_a < N_b is the
    conjugate of one above sector 0), the 1-norm terms and the band
    entries, and looks up the LAPACK and BLAS handles.  A solution u is
    real: x0, then the real views of the blocks above in order
    (self._real_at).
    """

    def __init__(self, model: LindbladModel):
        d = model.dimension
        left, right = _kron_terms(model)
        plan, values, v = _sector_generator(left, right, np.arange(d * d), model)
        if plan.bands is None:  # the plan keeps the structure for every model on it
            self._structure(plan)
            plan.bands = dict(vars(self))
        else:
            vars(self).update(plan.bands)
        n, sectors = d * d, self._sectors
        # L's own entries on the rows N_a >= N_b, which the residual check multiplies
        self._liouvillian = sparse.csr_matrix((values, *self._csr), (n, n))
        cols, above, conjugate = self._norm_at
        magnitude = np.abs(values)
        column_sums = np.bincount(cols, magnitude, n) + np.bincount(conjugate, magnitude[above], n)
        entries, at = self._diagonal_at
        self._diagonal = np.zeros(sectors.upper.size, dtype=complex)
        self._diagonal[at] = values[entries]
        self._off_diagonal = column_sums[sectors.upper] - np.abs(self._diagonal)
        self._still = column_sums[sectors.zero].max()
        # each temporary goes once used: in a benchmark pass a higher memory
        # high-water per call had the allocator return its top and fault
        # 1,600-2,800 pages back in per N = 5 call (getrusage, 2-core host)
        del values, magnitude, column_sums
        at, entries = self._complex_at
        self._complex_entries = at, v[entries]
        at, (entries, doubled, take, traces), shape = self._x0_at
        self._real_entries = at, np.append(np.ones(traces), _real_values(v[entries], doubled, take)), shape
        names = ("getrf", "gecon", "getrs", "getri")
        self._lapack = [get_lapack_funcs(names, dtype=dtype) for dtype in (np.float64, np.complex128)]
        self._gemm = [get_blas_funcs("gemm", dtype=dtype) for dtype in (np.float64, np.complex128)]

    def _structure(self, plan: _Plan):
        """What M(delta) takes from the plan of all d^2 coordinates alone: blocks, bands and the places in them."""
        sectors = self._sectors = plan.sectors
        d = self._dimension = sectors.excitations.size
        n = d * d
        rows, cols, i, j = plan.rows, plan.cols, plan.i, plan.j

        # each sector's pivot block: sector 0 alone, then runs from the top sector down
        from_top, runs, filled = [], 0, 0
        for count in np.bincount(np.abs(sectors.signed))[:0:-1].tolist():
            from_top.append(runs)
            filled += count
            if filled >= PIVOT_MIN:
                runs, filled = runs + 1, 0
        top = runs if filled else runs - 1
        self._sector_block = np.array([0] + [top + 1 - run for run in reversed(from_top)])
        # the unknowns, x0 then z by sector, are contiguous by block
        n0 = sectors.zero.size
        sizes = [n0] + np.bincount(self._sector_block[sectors.signed[sectors.upper]]).tolist()[1:]
        start = [0, *itertools.accumulate(sizes)]
        # a complex block below PIVOT_MIN real coordinates is inverted (PIVOT_MIN)
        self._inverted = [k > 0 and 2 * size < PIVOT_MIN for k, size in enumerate(sizes)]
        order = np.append(sectors.zero, sectors.upper)
        self._members = [order[a:b] for a, b in zip(start, start[1:])]
        # where each block lies in a real solution: x0, then real views
        self._real_at = [slice(0, n0)]
        self._real_at += [slice(2 * start[k] - n0, 2 * start[k + 1] - n0) for k in range(1, len(sizes))]
        self._layout = plan.layout
        # the CSR structure of L's own entries on the rows N_a >= N_b
        self._csr = _places(cols, np.searchsorted(rows, np.arange(n + 1)))
        # the 1-norm of L(delta): the column sums of |L0| over every row, a
        # row r* with N_a < N_b read off the row r above sector 0 as |L[r*,
        # c]| = |L[r, c*]|, and delta K moving the diagonal entry of each
        # coherence column; as L maps Hermitian matrices to Hermitian ones,
        # the columns c and c* have equal sums
        above = np.flatnonzero(sectors.signed[rows] > 0)
        self._norm_at = _places(cols, above, ((cols % d) * d + cols // d)[above])
        diagonal = np.flatnonzero((rows == cols) & (sectors.signed[rows] > 0))
        self._diagonal_at = _places(diagonal, sectors.slot[rows[diagonal]] - n0)

        # one flat complex array holds every band: block 0's real band as
        # float64 pairs, then the band of each block k above over the
        # columns of blocks k - 1 to k + 1, in complex units
        last = len(sizes) - 1
        width = [2 * start[min(2, last + 1)] - n0]
        width += [start[min(k + 2, last + 1)] - start[k - 1] for k in range(1, last + 1)]
        lengths = [(n0 * width[0] + 1) // 2] + [sizes[k] * width[k] for k in range(1, last + 1)]
        ends = list(itertools.accumulate(lengths))
        self._size = ends[-1]
        self._band_of = [
            (slice(ends[k - 1], ends[k]), (sizes[k], width[k]), sizes[k - 1]) for k in range(1, last + 1)
        ]
        # entry (row, col) of block k >= 1 sits at base[k] + row + col * sizes[k]
        base = np.array([0] + [ends[k - 1] - start[k] - start[k - 1] * sizes[k] for k in range(1, last + 1)])
        size = np.array(sizes)

        # the rows of z, complex
        upper = np.flatnonzero(i >= n0)
        block_of = np.searchsorted(start, i[upper], side="right") - 1
        self._complex_at = _places(base[block_of] + i[upper] + j[upper] * size[block_of], upper)
        # the diagonal of delta K, i 2 pi s on each z, and its rotation of (Re z, Im z)
        self._shift = 1j * TWO_PI * sectors.signed[sectors.upper]
        block_of = np.repeat(np.arange(1, last + 1), sizes[1:])
        (self._shift_at,) = _places(base[block_of] + np.arange(n0, order.size) * (1 + size[block_of]))
        rows, cols, rates = sectors.rotation(TWO_PI * sectors.signed)
        self._rotation = (*_places(rows, cols), rates)

        # the rows of x0, real (_real_places); row 0 is the trace row, sum_a x_aa
        lower = np.flatnonzero(i < n0)
        rows, cols, doubled, take = _real_places(i[lower], j[lower], n0)
        body = rows > 0
        diagonal = np.flatnonzero(sectors.zero % (d + 1) == 0)
        at, lower, take = _places(np.append(diagonal * n0, rows[body] + cols[body] * n0), lower, take[body])
        self._x0_at = at, (lower, doubled, take, diagonal.size), (n0, width[0])

    def norms(self, nodes: np.ndarray) -> np.ndarray:
        """The 1-norm of L(delta) at each node, the scale of its residual check."""
        moved = self._diagonal.imag[:, None] + self._shift.imag[:, None] * nodes
        moved = np.hypot(self._diagonal.real[:, None], moved, out=moved)
        moved += self._off_diagonal[:, None]
        return np.maximum(moved.max(axis=0, initial=0.0), self._still)

    def blocks(self, delta: float):
        """The pivot-block partition of M(delta): lists of M[k, k], M[k, k - 1] and M[k, k + 1] by block k.

        Each block is a Fortran-order view into the band of its rows, filled
        afresh for each call, over the unknowns of its two pivot blocks
        (self._members); M[0, 0] and M[0, 1] are real, M[0, 1] on the real
        view of block 1, and the rest complex.  Past the first or the last
        block the list holds None.
        """
        # one allocation for all bands: at N = 5 one array per kind of band
        # cost about 2,000 page faults per steady_states call on a 2-core
        # host, as the freed bands went back to the system between calls
        bands = np.zeros(self._size, dtype=complex)
        at, weights, shape = self._real_entries
        count = shape[0] * shape[1]
        band0 = bands[: (count + 1) // 2].view(np.float64)[:count]
        np.add.at(band0, at, weights)
        band0 = band0.reshape(shape, order="F")
        np.add.at(bands, *self._complex_entries)
        if delta:
            bands[self._shift_at] += delta * self._shift
        n0 = shape[0]
        diagonal, lower, upper = [band0[:, :n0]], [None], [band0[:, n0:] if self._band_of else None]
        for k, (at, (size, width), below) in enumerate(self._band_of, start=1):
            band = bands[at].reshape((size, width), order="F")
            lower.append(band[:, :below])
            diagonal.append(band[:, below : below + size])
            upper.append(band[:, below + size :] if k < len(self._band_of) else None)
        return diagonal, lower, upper

    def _factor(self, delta: float):
        """The block LU of M(delta), eliminating its pivot blocks from the last, K, down to k = 0.

        With D_K = M[K, K] and, down to k = 1, G_k = D_k^-1 M[k, k - 1] and
        D_{k-1} = M[k-1, k-1] - M[k-1, k] G_k (block tridiagonal LU; Golub
        and Van Loan, Matrix Computations, sec. 4.5), det M(delta) is the
        product of the det D_k, so a singular M(delta) shows as a singular
        D_k.  The elimination does not pivot across blocks, so a D_k above
        sector 0 can also be singular with M(delta) regular: a coherence
        between two states that decay only through the drive would be
        reported as degenerate.  Each D_k is factored in place (zgetrf above
        sector 0, dgetrf there), G_k is one getrs, or one gemm by the
        inverse of a block below PIVOT_MIN, and the update one gemm:
        complex above, and for sector 0 one real product of M[0, 1] with
        the real view of G_1.  DegenerateSteadyStateError names the sectors
        of D_k and delta when getrf finds D_k singular or its reciprocal
        1-norm condition number (gecon) is below STEADY_RCOND_MIN (e.g. a
        dark subspace with no decay path).  Returns the (LU, pivots), or
        the inverse, of each D_k, the G_k and the M[k, k + 1], by block.
        """
        pivots, couplings, upper = self.blocks(delta)
        for k in reversed(range(len(pivots))):
            getrf, gecon, getrs, getri = self._lapack[k > 0]
            # the 1-norm, the largest column sum of |D_k|, which gecon takes
            anorm = np.abs(pivots[k]).sum(axis=0).max()
            lu, piv, info = getrf(pivots[k], overwrite_a=True)
            rcond = gecon(lu, anorm)[0] if info == 0 else 0.0
            if rcond < STEADY_RCOND_MIN:
                low, high = np.flatnonzero(self._sector_block == k)[[0, -1]]
                sectors = f"sector {low}" if low == high else f"sectors {low}-{high}"
                raise DegenerateSteadyStateError(
                    f"Liouvillian null space is degenerate (rcond {rcond:.3e} of the pivot block of "
                    f"{sectors} of the trace-bordered matrix, below {STEADY_RCOND_MIN:.0e}) "
                    f"at drive detuning {delta:g} MHz"
                )
            if self._inverted[k]:
                pivots[k] = getri(lu, piv, overwrite_lu=True)[0]
                couplings[k] = self._gemm[1](1.0, pivots[k], couplings[k])
            else:
                pivots[k] = lu, piv
                if k:
                    couplings[k], _ = getrs(lu, piv, couplings[k], overwrite_b=True)
            if k:
                below = couplings[k] if k > 1 else _real_view(couplings[k])
                pivots[k - 1] = self._gemm[k > 1](
                    -1.0, upper[k - 1], below, 1.0, pivots[k - 1], overwrite_c=True
                )
        return pivots, couplings, upper

    def solve(self, factors, rhs: np.ndarray) -> np.ndarray:
        """u with M(delta) u = rhs, from the block LU of M(delta) (_factor); rhs and u are real (d^2, m).

        z_K = D_K^-1 rhs_K and, down to k = 0, z_k = D_k^-1 (rhs_k - M[k, k
        + 1] z_{k+1}); then u_0 = z_0 and, up from k = 1, u_k = z_k - G_k
        u_{k-1}.  Each D_k^-1 is applied by getrs on its LU, or by gemm when
        the factors hold its inverse (pencil).  Above sector 0 each part is
        complex, and M[0, 1] and G_1 act through the real views of block 1.
        """
        pivots, couplings, upper = factors
        parts = [rhs[at] for at in self._real_at]
        parts[1:] = [_complex_view(part) for part in parts[1:]]
        for k in reversed(range(len(parts))):
            pivot = pivots[k]
            if isinstance(pivot, tuple):
                parts[k] = self._lapack[k > 0][2](*pivot, parts[k])[0]
            else:
                parts[k] = self._gemm[k > 0](1.0, pivot, parts[k])
            if k:
                above = parts[k] if k > 1 else _real_view(parts[k])
                parts[k - 1] = self._gemm[k > 1](-1.0, upper[k - 1], above, 1.0, parts[k - 1])
        for k in range(1, len(parts)):
            if k == 1:
                moved = self._gemm[0](
                    -1.0, _real_view(couplings[1]), parts[0], 1.0, _real_view(parts[1]), overwrite_c=True
                )
                parts[1] = _complex_view(moved)
            else:
                parts[k] = self._gemm[1](-1.0, couplings[k], parts[k - 1], 1.0, parts[k], overwrite_c=True)
        u = np.empty(rhs.shape)
        for at, part in zip(self._real_at, parts):
            u[at] = part if part.dtype == np.float64 else _real_view(part)
        return u

    def pointwise(self, nodes: np.ndarray) -> np.ndarray:
        """The real solutions u, one column per node, by one block LU of M(delta) each."""
        rhs = np.zeros((self._dimension**2, 1))
        rhs[0] = 1.0
        u = np.empty((rhs.size, nodes.size))
        for k, delta in enumerate(nodes):
            u[:, k] = self.solve(self._factor(delta), rhs)[:, 0]
        return u

    def pencil(self, nodes: np.ndarray) -> np.ndarray:
        """The real solutions u, one column per node, from the one block LU of M(delta_0).

        delta_0 is the node nearest the mean of the nodes.  With s = delta -
        delta_0, M(delta) = M(delta_0) + s R, and R is real on the real
        views P of the complex unknowns alone: it turns each (Re z, Im z) at
        rate 2 pi |N_a - N_b| (_Sectors.rotation, as a hold's offsets).  One
        solve on the columns [e_0, E_P] gives u_0 = M(delta_0)^-1 e_0 and W =
        M(delta_0)^-1 E_P; C = R_PP W_P = V
        Lambda V^-1 is decomposed once, and by Woodbury u = u_0 - s W V (1 +
        s Lambda)^-1 V^-1 R_PP u_0,P, real (W is): the pole-residue form of
        the transfer function (Antoulas, Approximation of Large-Scale
        Dynamical Systems, SIAM 2005).  DegenerateSteadyStateError names
        delta_0 by the rcond of a pivot block, and a node where some |1 + s
        lambda| is below STEADY_RCOND_MIN, where M(delta) is singular.
        Every product and factorization runs on scipy's LAPACK and BLAS, as
        numpy's own OpenBLAS between them waits on the other pool's spinning
        threads.  The solve multiplies by each pivot block's inverse
        (getri), not a getrs on the columns [e_0, E_P]: at d^2 = 4 and 16
        that getrs sat about 8 ms in OpenBLAS's threads, and at d^2 = 64 and
        256 5-8 ms, where getri takes 0.002-0.9 ms on 2 cores.
        """
        center = int(np.argmin(np.abs(nodes - nodes.mean())))
        rows, cols, rotation = self._rotation
        pivots, couplings, upper = self._factor(nodes[center])
        pivots = [
            self._lapack[k > 0][3](*pivot, overwrite_lu=True)[0] if isinstance(pivot, tuple) else pivot
            for k, pivot in enumerate(pivots)
        ]
        rhs = np.zeros((self._dimension**2, 1 + rows.size))
        rhs[0, 0] = 1.0
        rhs[rows, np.arange(1, rhs.shape[1])] = 1.0
        columns = self.solve((pivots, couplings, upper), rhs)
        u0, w = columns[:, 0], columns[:, 1:]
        values, vectors = eig(rotation[:, None] * w[cols], overwrite_a=True, check_finite=False)
        s = nodes - nodes[center]
        denominators = 1.0 + np.multiply.outer(values, s)
        floor = np.abs(denominators).min(axis=0, initial=np.inf)
        bad = np.flatnonzero(~(floor >= STEADY_RCOND_MIN))
        if bad.size:
            k = bad[0]
            raise DegenerateSteadyStateError(
                f"Liouvillian null space is degenerate (|1 + s lambda| {floor[k]:.3e} in the "
                f"shift-invert pencil, below {STEADY_RCOND_MIN:.0e}) at drive detuning {nodes[k]:g} MHz"
            )
        weights = solve(vectors, rotation * u0[cols], check_finite=False)  # V^-1 R_PP u_0,P
        residues = weights[:, None] * (s / denominators)
        # Re(V residues) and W times it in real products: a threaded zgemm
        # sat 4-16 ms at p = 44 where two dgemm take 0.04 ms
        gemm = self._gemm[0]
        coefficients = gemm(1.0, vectors.real, residues.real)
        coefficients = gemm(-1.0, vectors.imag, residues.imag, 1.0, coefficients, overwrite_c=True)
        return u0[:, None] - gemm(1.0, w, coefficients)

    def checked(self, nodes: np.ndarray, u: np.ndarray, anorms: np.ndarray) -> np.ndarray:
        """The states of the solutions u at the nodes, checked: their (nodes, d^2) vecs.

        Each vec is U0^dagger x0 on sector 0, z above it and conj(z) at the
        transposed entries (_Sectors.vec), so exactly Hermitian.  Its
        residual, max |L(delta) vec(rho)| over the rows N_a >= N_b, from one
        sparse product of L0's own complex entries and the diagonal delta K
        (not from the bands), above 1e-10 of the node's 1-norm (norms) raises
        DegenerateSteadyStateError.  Then the states must have unit trace
        within 1e-9 and no eigenvalue below -1e-8 (_check_states,
        ValueError).  Each check names the first node that fails it, and
        the residual check runs over all nodes first.
        """
        vecs = self._sectors.vec(u.T)
        z = vecs[:, self._sectors.upper].T
        y = self._liouvillian @ vecs.T
        y[self._sectors.upper] += z * (self._shift[:, None] * nodes)
        residuals = np.abs(y).max(axis=0)
        del y, z
        bad = np.flatnonzero(residuals > 1e-10 * np.maximum(1.0, anorms))
        if bad.size:
            k = bad[0]
            raise DegenerateSteadyStateError(
                f"steady-state residual {residuals[k]:.3e} too large at drive detuning {nodes[k]:g} MHz"
            )
        _check_states(vecs, self._layout, nodes, "drive detuning {:g} MHz")
        return vecs


def steady_states(model: LindbladModel, detunings) -> np.ndarray:
    """Unique unit-trace null vectors of L0 + delta K, one per drive detuning (MHz).

    delta lowers every qubit detuning of ``model`` (_BorderedGenerator).
    A non-finite detuning is rejected before any solve (ValueError naming
    it), and so is a nonzero one on a model with no qubit basis.  The
    bordered matrix takes its entries from the builder the holds share
    (_sector_generator), and is block tridiagonal over the sectors |N_a -
    N_b| of its entries: sector 0 in real Hermitian coordinates, and above
    it the complex rho_ab with N_a > N_b, whose conjugates rho_ba are no
    unknowns; each factorization is one block LU over runs of adjacent
    sectors on scipy's LAPACK, real for sector 0 and complex above
    (_BorderedGenerator), and an entry that couples sectors more than one
    apart raises ValueError naming it.  assemble_liouvillian is not
    called.
    The states are solved at the sorted distinct detunings, the nodes:
    - at most POINTWISE_MAX nodes: one block LU per node
      (_BorderedGenerator.pointwise), so a state does not depend on the
      other detunings;
    - more: one block LU at the node nearest their mean, and every node in
      closed form from its shift-invert pencil
      (_BorderedGenerator.pencil), so a state depends on the rest of the
      grid only to rounding.
    A degenerate null space raises DegenerateSteadyStateError naming the
    detuning whose matrix is singular and the sectors of the pivot block
    that shows it.  Then every node passes the residual, trace and
    eigenvalue checks (_BorderedGenerator.checked), each naming the first
    node that fails it.  Returns a complex (len(detunings), d, d) array in
    the order given.
    """
    detunings = np.asarray(detunings, dtype=float).reshape(-1)
    non_finite = ~np.isfinite(detunings)
    if non_finite.any():
        raise ValueError(f"drive detuning {detunings[non_finite][0]:g} MHz is not finite")
    if model.basis is None and np.any(detunings != 0.0):
        raise ValueError("a nonzero drive detuning needs a model with a qubit basis")
    system = _BorderedGenerator(model)
    nodes, inverse = np.unique(detunings, return_inverse=True)
    anorms = system.norms(nodes)
    solve_nodes = system.pointwise if nodes.size <= POINTWISE_MAX else system.pencil
    vecs = system.checked(nodes, solve_nodes(nodes), anorms)
    d = model.dimension
    return vecs[inverse].reshape(-1, d, d)


def dominant_oscillation(model: LindbladModel, rho0, observable):
    """Frequency and damping (MHz) of the strongest fringe in a signal.

    Decomposes tr(O rho(t)) into Liouvillian eigenmodes and returns the
    oscillating mode (|Im lambda|/2pi > core.OSCILLATION_MIN_FREQ, the floor
    the swap's coupling rule also applies) with the largest amplitude for
    the given initial state; exact where a least-squares fit of a
    multi-component damped signal would be biased.  rho0 is one d x d
    state, which gives one (frequency, damping) pair, or an m x d x d
    stack, which gives a list of m pairs from one eigendecomposition.  The
    modes are those of the real block evolve exponentiates, on the sector
    coordinates u the stack reaches (_reached_block, which checks the
    states as evolve does): no other mode carries amplitude.  With the
    block's eigenvectors as the columns of V, the starts' weights on the
    modes are V^-1 u, one numpy solve for the stack.  The readout is linear
    in u, its weight on u_k the readout of _Sectors.vec(e_k).  ValueError
    names an observable that is not d x d.
    """
    d = model.dimension
    observable = np.asarray(observable, dtype=complex)
    if observable.shape != (d, d):
        raise ValueError(f"observable of shape {observable.shape} is not {d} x {d}")
    rho = np.asarray(rho0, dtype=complex)
    (reached, block, sectors, _), starts = _reached_block(model, rho)
    values, right = np.linalg.eig(block)
    # tr(O rho) = o . vec(rho) with o = vec(O^T), linear in u: u_k weighs o . vec(e_k)
    obs_vec = sectors.vec(np.eye(reached.size)) @ observable.T.reshape(-1)[reached]
    freqs = np.abs(values.imag) / TWO_PI
    oscillating = np.flatnonzero(freqs > core.OSCILLATION_MIN_FREQ)
    if not oscillating.size:
        raise ValueError("no oscillating mode found above the frequency floor")
    # amplitude of mode k in start m: (o . v_k) (V^-1 u_m)_k
    amplitudes = np.abs((obs_vec @ right)[:, None] * np.linalg.solve(right, starts.T))[oscillating]
    best = oscillating[np.argmax(amplitudes, axis=0)]
    pairs = [(float(freqs[k]), float(-values[k].real / TWO_PI)) for k in best]
    return pairs if rho.ndim == 3 else pairs[0]
