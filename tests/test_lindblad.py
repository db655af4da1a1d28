import dataclasses
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import reach_oracle
from dense_oracle import dense_liouvillian, propagated_states, svd_steady_state
from evolve_oracle import listed_path_states
from ode_oracle import dop853_states
from sweep_oracle import dense_steady_state, shifted_model
from scipy import sparse
from scipy.linalg import expm

from wgqed import core, lindblad
from wgqed.core import Placement, QubitParams, SystemSpec, dark_state_rates, thermal_qubit_steady
from wgqed.lindblad import (
    DegenerateSteadyStateError,
    LindbladModel,
    ProductBasis,
    assemble_liouvillian,
    build_model,
    dominant_oscillation,
    evolve,
    steady_states,
)

TWO_PI = 2 * math.pi


def pair_spec(g1d, gloss=0.0, gphi=0.0, gphi_c=0.0, detunings=None):
    q = QubitParams("M", g1d, gloss, gphi)
    corr = ((0, 1, gphi_c),) if gphi_c else ()
    return SystemSpec(
        qubits=((q, Placement(0.0)), (q, Placement(math.pi))),
        detunings=detunings,
        dephasing_correlations=corr,
    )


def random_spec(rng, n, n_th=0.0):
    """Random array with a direct coupling and a correlated dephasing pair."""
    qubits = tuple(
        (
            QubitParams(f"Q{j}", rng.uniform(0.1, 50), rng.uniform(0, 1), rng.uniform(0, 1)),
            Placement(rng.uniform(0, 7)),
        )
        for j in range(n)
    )
    corr, couplings = (), ()
    if n > 1:
        # a correlation below both individual rates keeps the matrix PSD
        i, j = rng.choice(n, 2, replace=False)
        rate = 0.9 * min(qubits[i][0].gamma_phi, qubits[j][0].gamma_phi)
        corr = ((int(i), int(j), rate * rng.uniform(-1, 1)),)
        couplings = ((0, n - 1, rng.uniform(-5, 5)),)
    return SystemSpec(
        qubits=qubits,
        direct_couplings=couplings,
        detunings=tuple(rng.uniform(-5, 5, n)),
        n_th=n_th,
        dephasing_correlations=corr,
    )


def single_channel_spec(rng, n, channel):
    """Random array with only waveguide decay, or only (correlated) dephasing."""
    decay = channel == "decay"
    qubits = tuple(
        (
            QubitParams(f"Q{j}", rng.uniform(0.1, 50) if decay else 0.0, 0.0,
                        0.0 if decay else rng.uniform(0, 1)),
            Placement(rng.uniform(0, 7)),
        )
        for j in range(n)
    )
    corr = ()
    if not decay and n > 1:
        i, j = rng.choice(n, 2, replace=False)
        rate = 0.9 * min(qubits[i][0].gamma_phi, qubits[j][0].gamma_phi)
        corr = ((int(i), int(j), rate * rng.uniform(-1, 1)),)
    return SystemSpec(qubits=qubits, dephasing_correlations=corr)


def random_drives(rng, n):
    return tuple(
        (j, complex(rng.uniform(0, 8), rng.uniform(-2, 2))) for j in range(n) if rng.random() < 0.7
    ) or ((0, 3.0),)


def assert_matches_dense(model):
    liouville = assemble_liouvillian(model)
    assert isinstance(liouville, sparse.csr_matrix)
    reference = dense_liouvillian(model)
    assert np.max(np.abs(liouville.toarray() - reference)) <= 1e-12 * np.max(np.abs(reference))


def dark_vector(basis):
    return (basis.basis_vector(0b01) + basis.basis_vector(0b10)) / math.sqrt(2)


def pure_state(vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def log_slope_mhz(times_us, values):
    slope = np.polyfit(times_us, np.log(values), 1)[0]
    return -slope / TWO_PI


class TestProductBasis:
    def test_full_space_operators(self):
        basis = ProductBasis(1)
        assert np.array_equal(basis.lowering(0), [[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(basis.sigma_z(0), [[-1.0, 0.0], [0.0, 1.0]])

    def test_commutation(self):
        basis = ProductBasis(3)
        low, num = basis.lowering(1), basis.number(1)
        assert np.allclose(num @ low - low @ num, -low)


class TestLiouvillian:
    def test_single_qubit_spectrum(self):
        basis = ProductBasis(1)
        model = LindbladModel(np.zeros((2, 2)), ((basis.lowering(0), 2.0),))
        eigenvalues = np.sort(np.linalg.eigvals(dense_liouvillian(model)).real)
        expected = TWO_PI * np.array([-2.0, -1.0, -1.0, 0.0])
        assert np.allclose(eigenvalues, expected, atol=1e-9)

    def test_trace_preservation_functional(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = rng.integers(1, 4)
            qubits = tuple(
                (
                    QubitParams(f"Q{j}", rng.uniform(0.1, 50), rng.uniform(0, 1), rng.uniform(0, 1)),
                    Placement(rng.uniform(0, 7)),
                )
                for j in range(n)
            )
            spec = SystemSpec(qubits=qubits, n_th=rng.uniform(0, 0.2))
            liouville = assemble_liouvillian(build_model(spec))
            trace_row = np.eye(2**n).reshape(-1) @ liouville
            assert np.max(np.abs(trace_row)) < 1e-10

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LindbladModel(np.zeros((2, 2)), ((np.zeros((3, 3)), 1.0),))

    def test_basis_of_another_dimension_rejected(self):
        # unchecked, it was accepted: steady_states and evolve then failed
        # in numpy broadcasting, shapes (4,) against (8,)
        with pytest.raises(ValueError, match="basis dimension 8 does not match hamiltonian dimension 4"):
            LindbladModel(np.zeros((4, 4)), basis=ProductBasis(3))

    # unchecked, each was accepted: evolve then failed inside the exponential
    # and steady_states blamed the state's trace
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_hamiltonian_rejected_by_name(self, bad):
        lower = ProductBasis(1).lowering(0)
        with pytest.raises(ValueError, match=rf"hamiltonian entry \(1, 0\) is not finite: \({bad}"):
            LindbladModel([[0.0, 0.0], [bad, 0.0]], ((lower, 1.0),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected_by_name(self, bad):
        lower = ProductBasis(1).lowering(0)
        with pytest.raises(ValueError, match=rf"dissipator 1 rate {bad} is not finite"):
            LindbladModel(np.zeros((2, 2)), ((lower, 1.0), (lower, bad)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rate_matrix_rejected_by_name(self, bad):
        basis = ProductBasis(2)
        lower = [basis.lowering(0), basis.lowering(1)]
        with pytest.raises(ValueError, match=rf"rate matrix entry \(0, 1\) is not finite: {bad}"):
            lindblad._collective_jumps([[1.0, bad], [bad, 1.0]], lower)

    @pytest.mark.parametrize("seed", range(4))
    def test_huge_waveguide_rate_is_rejected_at_the_spec(self, seed):
        # a spec with one gamma_1d of 1e200 is past MAX_MHZ: it never reaches
        # build_model, whose decay matrix it would fill with 1e200 MHz rates
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, int(rng.integers(2, 6)))
        (q, placement), *rest = spec.qubits
        with pytest.raises(ValueError, match=r"^rates, detunings and couplings add up to 1e\+200 MHz"):
            dataclasses.replace(spec, qubits=((dataclasses.replace(q, gamma_1d=1e200), placement), *rest))

    def test_half_wavelength_pair_collective_jumps(self):
        model = build_model(pair_spec(13.4))
        # one bright collective jump at 2*g1d, no dark jump
        assert len(model.dissipators) == 1
        assert model.dissipators[0][1] == pytest.approx(26.8, rel=1e-12)

    @pytest.mark.parametrize("channel", ["decay", "dephasing"])
    def test_jumps_reproduce_rate_matrix(self, channel):
        # sum_k r_k op_k (x) op_k^* = sum_jl Gamma_jl s_j (x) s_l^*, checked
        # without diagonalizing Gamma: s = sigma- with the waveguide decay
        # matrix, or s = sigma_z with half the dephasing matrix
        rng = np.random.default_rng(41)
        for n in (1, 2, 3, 4, 5):
            for _ in range(2):
                spec = single_channel_spec(rng, n, channel)
                model = build_model(spec)
                basis = model.basis
                if channel == "decay":
                    gamma = core.waveguide_decay_matrix(spec)
                    sites = [basis.lowering(j) for j in range(n)]
                else:
                    gamma = np.diag([q.gamma_phi for q in spec.params])
                    for i, j, rate in spec.dephasing_correlations:
                        gamma[i, j] = gamma[j, i] = rate
                    gamma = gamma / 2.0
                    sites = [basis.sigma_z(j) for j in range(n)]
                expected = sum(
                    gamma[j, l] * np.kron(sites[j], sites[l].conj())
                    for j in range(n)
                    for l in range(n)
                )
                actual = sum(rate * np.kron(op, op.conj()) for op, rate in model.dissipators)
                assert np.max(np.abs(actual - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestSparseAgainstDenseOracle:
    def test_random_driven_thermal_specs(self):
        rng = np.random.default_rng(12)
        for n, count in ((1, 6), (2, 6), (3, 5), (4, 3), (5, 1)):
            for _ in range(count):
                spec = random_spec(rng, n, n_th=rng.uniform(0, 0.3))
                assert_matches_dense(build_model(spec, drives=random_drives(rng, n)))

    def test_hand_built_model_without_basis(self):
        basis = ProductBasis(2)
        ham = basis.number(0) - basis.number(1) + 0.3 * (basis.raising(0) @ basis.lowering(1))
        ham = ham + ham.conj().T
        ops = ((basis.lowering(0) + 0.5j * basis.lowering(1), 1.3), (basis.sigma_z(1), 0.2))
        assert_matches_dense(LindbladModel(ham, ops))


class TestEvolve:
    def test_amplitude_damping_exponential(self):
        basis = ProductBasis(1)
        model = LindbladModel(np.zeros((2, 2)), ((basis.lowering(0), 1.19),))
        times = np.linspace(0.0, 0.5, 11)
        states = evolve(model, pure_state([0.0, 1.0]), times)
        populations = states[:, 1, 1].real
        assert np.allclose(populations, np.exp(-TWO_PI * 1.19 * times), atol=1e-9)

    def test_dark_state_is_stationary(self):
        spec = pair_spec(13.4)
        model = build_model(spec)
        rho0 = pure_state(dark_vector(model.basis))
        states = evolve(model, rho0, np.linspace(0, 2.0, 9))
        dark_pop = [np.vdot(dark_vector(model.basis), s @ dark_vector(model.basis)).real for s in states]
        assert np.allclose(dark_pop, 1.0, atol=1e-8)

    def test_trace_positivity_hermiticity_random_models(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            qubits = tuple(
                (
                    QubitParams(
                        f"Q{j}", rng.uniform(0.1, 30), rng.uniform(0, 0.5), rng.uniform(0, 0.5)
                    ),
                    Placement(rng.uniform(0, 7)),
                )
                for j in range(n)
            )
            spec = SystemSpec(qubits=qubits, detunings=tuple(rng.uniform(-3, 3, n)))
            model = build_model(spec)
            dim = model.dimension
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            states = evolve(model, pure_state(vec), np.linspace(0, 0.4, 5))
            for mat in states:
                assert abs(np.trace(mat) - 1.0) < 1e-8
                assert np.max(np.abs(mat - mat.conj().T)) < 1e-10
                assert np.linalg.eigvalsh(mat).min() > -1e-8

def random_mixed_state(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestPropagatorAgainstODEOracle:
    """Exact propagation against adaptive DOP853 at tight tolerances."""

    @staticmethod
    def assert_matches_oracle(model, rho0, times):
        states = evolve(model, rho0, times)
        reference = dop853_states(model, rho0, times, rtol=1e-11, atol=1e-13)
        assert len(states) == len(reference)
        for state, ref in zip(states, reference):
            assert np.max(np.abs(state - ref)) < 1e-8

    def test_random_driven_thermal_dephased_specs(self):
        rng = np.random.default_rng(21)
        for n, count in ((1, 4), (2, 4), (3, 3), (4, 2), (5, 1)):
            for _ in range(count):
                spec = random_spec(rng, n, n_th=rng.uniform(0, 0.3))
                model = build_model(spec, drives=random_drives(rng, n))
                times = np.linspace(0.0, rng.uniform(0.02, 0.1), 6)
                self.assert_matches_oracle(model, random_mixed_state(rng, model.dimension), times)

    def test_non_uniform_grid(self):
        rng = np.random.default_rng(22)
        spec = random_spec(rng, 3, n_th=0.1)
        model = build_model(spec, drives=random_drives(rng, 3))
        times = np.concatenate(([0.0], np.cumsum(rng.uniform(0.001, 0.02, 9))))
        self.assert_matches_oracle(model, random_mixed_state(rng, model.dimension), times)

    def test_one_propagator_per_distinct_step(self, monkeypatch):
        # one exponential of the reached block per distinct step: from the
        # dark state the pair's hold reaches the one-excitation block (four
        # coordinates) and the ground population, 5 of 16
        calls = []
        expm = lindblad._expm

        def counting(a):
            calls.append(a.shape)
            return expm(a)

        monkeypatch.setattr(lindblad, "_expm", counting)
        model = build_model(pair_spec(13.4, 0.01, 0.2))
        rho0 = pure_state(dark_vector(model.basis))
        evolve(model, rho0, np.linspace(0.0, 1.3, 101))
        assert calls == [(5, 5)]
        calls.clear()
        evolve(model, rho0, np.cumsum([0.0, 0.1, 0.3, 0.1, 0.1, 0.3, 0.05]))
        assert calls == [(5, 5)] * 3

    def test_propagator_composes(self):
        rng = np.random.default_rng(23)
        model = build_model(random_spec(rng, 2, n_th=0.1), drives=random_drives(rng, 2))
        liouville = dense_liouvillian(model)

        def propagator(duration):
            return lindblad._expm(liouville * duration)

        whole = propagator(0.05)
        halves = propagator(0.02) @ propagator(0.03)
        assert np.max(np.abs(whole - halves)) < 1e-12
        assert np.max(np.abs(propagator(0.0) - np.eye(model.dimension**2))) < 1e-14

    def test_matches_scipy_expm_from_zero_to_ten_squarings(self):
        rng = np.random.default_rng(24)
        model = build_model(random_spec(rng, 3, n_th=0.1), drives=random_drives(rng, 3))
        liouville = assemble_liouvillian(model).toarray()
        norm = np.abs(liouville).sum(axis=0).max()
        # just below a power of two, the Taylor argument's norm is nearly 1
        for scale in (0.999, 1.999, 1000.0):
            reference = expm(liouville * (scale / norm))
            error = np.max(np.abs(lindblad._expm(liouville * (scale / norm)) - reference))
            assert error < 1e-14 * scale

    def test_long_hold_reaches_the_steady_state(self):
        rng = np.random.default_rng(25)
        model = build_model(random_spec(rng, 2, n_th=0.2), drives=random_drives(rng, 2))
        rho = evolve(model, random_mixed_state(rng, model.dimension), [0.0, 50.0])[-1]
        assert np.max(np.abs(rho - steady_states(model, [0.0])[0])) < 1e-9


def uncached(model):
    """A copy of model with an empty cache."""
    return dataclasses.replace(model)


@pytest.fixture
def empty_plans(monkeypatch):
    """The builder's plan store (lindblad._PLANS), empty for the test and restored after it."""
    monkeypatch.setattr(lindblad, "_PLANS", {})


def reached_block(model, rho):
    """The coordinates evolve runs over from the states rho (d x d or a stack), and A on them."""
    return lindblad._reached_block(model, np.asarray(rho, dtype=complex))[0][:2]


def reached_coordinates(model, rho) -> np.ndarray:
    return reached_block(model, rho)[0]


def hold_coordinates(model, reached) -> np.ndarray:
    """T with u = T vec(rho) on the reached coordinates, from the definition of the hold's coordinates.

    First the Hermitian coordinates of sector 0 (N_a = N_b, every
    coordinate without a qubit basis) in ascending order, rows of the
    oracle's U; then, for each rho_ab with N_a > N_b, by N_a - N_b and then
    by index, Re rho_ab = (rho_ab + rho_ba) / 2 and Im rho_ab = (rho_ab -
    rho_ba) / 2i of a Hermitian rho.
    """
    d = model.dimension
    excitations = np.array([bin(k).count("1") for k in range(d)]) if model.basis else np.zeros(d, int)
    a, b = np.divmod(reached, d)
    signed = excitations[a] - excitations[b]
    unitary = reach_oracle.hermitian_unitary(d).toarray()[np.ix_(reached, reached)]
    rows = list(unitary[signed == 0])
    for k in sorted(np.flatnonzero(signed > 0), key=lambda k: signed[k]):
        conjugate = np.searchsorted(reached, b[k] * d + a[k])
        real, imag = np.zeros(reached.size, complex), np.zeros(reached.size, complex)
        real[k], real[conjugate] = 0.5, 0.5
        imag[k], imag[conjugate] = -0.5j, 0.5j
        rows += [real, imag]
    return np.array(rows)


def oracle_block(model, reached, generator=None) -> np.ndarray:
    """The oracle's U L U^dagger on the reached coordinates, moved into the hold's coordinates.

    u = S x with S = T U^dagger (hold_coordinates), so the block is S A S^-1.
    """
    if generator is None:
        generator = reach_oracle.real_generator(model)
    unitary = reach_oracle.hermitian_unitary(model.dimension).toarray()[np.ix_(reached, reached)]
    similarity = hold_coordinates(model, reached) @ unitary.conj().T
    assert np.max(np.abs(similarity.imag)) < 1e-15
    similarity = similarity.real
    return similarity @ generator[reached][:, reached].toarray() @ np.linalg.inv(similarity)


def assert_extra_coordinates_zero(states, extra, d):
    """Coordinates in extra (row-major ab) read exactly 0 in every state of the stack."""
    a, b = np.divmod(extra, d)
    low, high = np.minimum(a, b), np.maximum(a, b)
    entries = states[..., low, high]
    parts = np.where(a <= b, entries.real, entries.imag)
    assert np.all(parts == 0.0)


def basis_projector(basis, *bitmasks) -> np.ndarray:
    vec = sum(basis.basis_vector(b) for b in bitmasks)
    return np.outer(vec, vec.conj()) / len(bitmasks)


class TestReachedCoordinates:
    """evolve keeps to the coordinates its initial state can reach."""

    @staticmethod
    def five_qubit_cavity(n_th):
        return core.cavity_spec(
            QubitParams("M", 13.4, 0.0065, 0.21), QubitParams("P", 1.19, 0.0065, 0.191),
            n_mirrors=4, probe_detuning=0.5, n_th=n_th,
        )

    @pytest.mark.parametrize("n_th, drive, size", [(0.0, 0.0, 26), (0.02, 0.0, 252), (0.0, 3.0, 1024)])
    def test_sizes_from_an_excited_probe(self, n_th, drive, size):
        # n_th = 0: the ground population and the 5 x 5 one-excitation
        # block; thermal: every rho_ab with N_a = N_b (sum_k C(5, k)^2);
        # a drive on the probe: all d^2
        spec = self.five_qubit_cavity(n_th)
        drives = ((spec.probe_index, drive),) if drive else ()
        model = build_model(spec, drives=drives)
        rho0 = basis_projector(model.basis, 1 << spec.probe_index)
        reached = reached_coordinates(model, rho0)
        assert reached.size == size
        generator = reach_oracle.real_generator(model)
        assert np.array_equal(reached, reach_oracle.reached_coordinates(model, rho0, generator))
        if not drive:
            counts = np.array([bin(s).count("1") for s in range(model.dimension)])
            a, b = np.divmod(reached, model.dimension)
            assert np.array_equal(counts[a], counts[b])
        # no reached coordinate feeds one outside the set
        outside = np.setdiff1d(np.arange(model.dimension**2), reached)
        assert generator[outside][:, reached].nnz == 0

    def test_matches_dense_oracle_on_random_specs(self):
        # undriven holds from states of sparse support, where the reached
        # set is a strict subset, and driven ones, which reach everything
        # (one N = 5 case: its dense propagator alone takes seconds)
        rng = np.random.default_rng(61)
        cases = [(n, n_th, driven) for n in (1, 2, 3, 4)
                 for n_th, driven in ((0.0, False), (rng.uniform(0.01, 0.2), False), (0.0, True))]
        for n, n_th, driven in cases + [(5, 0.02, False)]:
            spec = random_spec(rng, n, n_th=n_th)
            model = build_model(spec, drives=random_drives(rng, n) if driven else ())
            picks = rng.choice(model.dimension, size=min(2, model.dimension), replace=False)
            rho0 = basis_projector(model.basis, *picks)
            times = np.linspace(0.0, rng.uniform(0.02, 0.1), 6)
            states = evolve(model, rho0, times)
            assert states.shape == (6,) + rho0.shape
            reference = propagated_states(model, rho0, times)
            assert np.max(np.abs(states - reference)) < 1e-12

    def test_stack_matches_dense_oracle(self):
        # a stack runs over the union of its members' reached sets
        rng = np.random.default_rng(62)
        spec = random_spec(rng, 3, n_th=0.05)
        model = build_model(spec)
        basis = model.basis
        stack = np.array([basis_projector(basis, 0b001), basis_projector(basis, 0b000, 0b011)])
        union = np.union1d(reached_coordinates(model, stack[0]), reached_coordinates(model, stack[1]))
        assert np.array_equal(reached_coordinates(model, stack), union)
        assert union.size < model.dimension**2
        times = np.array([0.0, 0.01, 0.03, 0.04])
        states = evolve(model, stack, times)
        assert states.shape == (4, 2, 8, 8)
        assert np.max(np.abs(states - propagated_states(model, stack, times))) < 1e-12
        for k in range(2):
            assert np.max(np.abs(states[:, k] - evolve(model, stack[k], times))) < 1e-14

    def test_block_matches_sparse_similarity_on_random_specs(self):
        # the block built from the factors against U L U^dagger of the
        # oracle (its own sparse U around the np.kron Liouvillian), on a
        # sparse start's reached set and on all d^2 coordinates (np.ones / d
        # is the pure state |+><+|)
        rng = np.random.default_rng(64)
        for n in (1, 2, 3, 4, 5):
            for n_th, driven in ((0.0, False), (rng.uniform(0.01, 0.2), False), (0.0, True),
                                 (rng.uniform(0.01, 0.2), True)):
                model = build_model(random_spec(rng, n, n_th=n_th),
                                    drives=random_drives(rng, n) if driven else ())
                d = model.dimension
                generator = reach_oracle.real_generator(model)
                picks = rng.choice(d, size=min(2, d), replace=False)
                for rho in (basis_projector(model.basis, *picks), np.ones((d, d)) / d):
                    reached, block = reached_block(model, rho)
                    reference = oracle_block(model, reached, generator)
                    assert block.dtype == np.float64
                    assert np.max(np.abs(block - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_reach_matches_sparse_oracle(self):
        # single states and stacks on random specs, where the reach equals
        # the search over the oracle generator's nonzeros
        rng = np.random.default_rng(65)
        for n in (1, 2, 3, 4, 5):
            for n_th, driven in ((0.0, False), (rng.uniform(0.01, 0.2), False), (0.0, True)):
                model = build_model(random_spec(rng, n, n_th=n_th),
                                    drives=random_drives(rng, n) if driven else ())
                generator = reach_oracle.real_generator(model)
                picks = rng.choice(model.dimension, size=min(3, model.dimension), replace=False)
                first, mixed = (basis_projector(model.basis, *p) for p in (picks[:1], picks[:2]))
                stack = np.array([first, basis_projector(model.basis, *picks[1:])])
                for rho in (first, mixed, stack):
                    reached = reached_coordinates(model, rho)
                    oracle = reach_oracle.reached_coordinates(model, rho, generator)
                    assert np.array_equal(reached, oracle)

    def test_extra_coordinates_stay_zero(self):
        # resonant pair from (|00> + |11>)/sqrt(2): rho_03 starts real and
        # no term turns it imaginary, so the generator's nonzeros never
        # reach Im rho_03; the search over basis-state pairs takes both
        # parts of rho_03, and the extra one must stay exactly zero
        for spec in (pair_spec(13.4), pair_spec(13.4, 0.01, 0.2, 0.1)):
            model = build_model(spec)
            rho0 = basis_projector(model.basis, 0b00, 0b11)
            reached = reached_coordinates(model, rho0)
            oracle = reach_oracle.reached_coordinates(model, rho0)
            extra = np.setdiff1d(reached, oracle)
            assert np.all(np.isin(oracle, reached))
            assert np.array_equal(extra, [3 * 4 + 0])
            times = np.linspace(0.0, 0.3, 7)
            states = evolve(model, rho0, times)
            assert_extra_coordinates_zero(states, extra, model.dimension)
            assert np.max(np.abs(states - propagated_states(model, rho0, times))) < 1e-12

    def test_jump_at_rate_zero_feeds_nothing(self):
        # pairs of |01> and |10> only: the lowering jump would feed rho_00
        # from |01><01| if its zero rate were not skipped
        basis = ProductBasis(2)
        hopping = basis.raising(0) @ basis.lowering(1)
        model = LindbladModel(hopping + hopping.T, ((basis.lowering(0), 0.0),), basis)
        rho0 = basis_projector(basis, 0b01)
        assert np.array_equal(reached_coordinates(model, rho0), [5, 6, 9, 10])

    def test_search_starts_from_both_halves_of_a_coherence(self):
        # Hermitian within 1e-10, but rho_01 != 0 = rho_10: nothing feeds
        # rho_10 from |01><01| at n_th = 0, so only a start from both halves
        # keeps the coherence's two coordinates together; the state then
        # evolves exactly as its Hermitian part
        model = build_model(pair_spec(13.4, 0.01, 0.2))
        skew = basis_projector(model.basis, 0b01)
        hermitian = skew.copy()
        skew[0, 1] = 1e-11
        hermitian[0, 1] = hermitian[1, 0] = 0.5e-11
        times = np.linspace(0.0, 0.1, 5)
        assert np.array_equal(evolve(model, skew, times), evolve(model, hermitian, times))

    def test_evolve_builds_no_sparse_liouvillian(self, monkeypatch):
        # evolve and dominant_oscillation read the model's factors alone:
        # neither the sparse assembly nor anything else of scipy.sparse is
        # used; steady_states takes its entries from the same builder, and
        # calls no assemble_liouvillian either
        rng = np.random.default_rng(66)
        models = [build_model(random_spec(rng, 3, n_th=0.1)),
                  build_model(random_spec(rng, 3), drives=random_drives(rng, 3))]
        rho0 = basis_projector(models[0].basis, 0b001)
        times = np.linspace(0.0, 0.05, 4)
        references = [propagated_states(model, rho0, times) for model in models]
        number = models[0].basis.number(0)
        modes = [dominant_oscillation(uncached(model), rho0, number) for model in models]
        grid = [-1.0, 0.0, 2.5]
        expected = steady_states(uncached(models[1]), grid)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a solver built the sparse Liouvillian")

        class ForbiddenModule:
            def __getattr__(self, name):
                forbidden()

        monkeypatch.setattr(lindblad, "assemble_liouvillian", forbidden)
        with monkeypatch.context() as patch:
            patch.setattr(lindblad, "sparse", ForbiddenModule())
            for model, reference, mode in zip(models, references, modes):
                assert np.max(np.abs(evolve(model, rho0, times) - reference)) < 1e-12
                assert dominant_oscillation(model, rho0, number) == mode
        assert np.array_equal(steady_states(models[1], grid), expected)

    def test_states_are_exactly_hermitian(self):
        rng = np.random.default_rng(63)
        model = build_model(random_spec(rng, 3, n_th=0.1), drives=random_drives(rng, 3))
        states = evolve(model, random_mixed_state(rng, 8), np.linspace(0.0, 0.05, 4))
        assert np.array_equal(states, np.swapaxes(states, -1, -2).conj())

    def test_negative_eigenvalue_inside_one_block_raises(self):
        # positive diagonal, but the one-excitation block [[0.5, 0.7],
        # [0.7, 0.5]] has eigenvalue -0.2; only that block can show it
        model = build_model(pair_spec(13.4, 0.01, 0.2))
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[1, 1] = rho0[2, 2] = 0.5
        rho0[1, 2] = rho0[2, 1] = 0.7
        with pytest.raises(ValueError, match=r"eigenvalue -2\.000e-01 below -1e-8 at t = 0 us"):
            evolve(model, rho0, [0.0, 0.1])

    @pytest.mark.parametrize("n_th, sizes", [(0.0, [1, 5]), (0.02, [1, 1, 5, 5, 10, 10])])
    def test_one_certificate_per_nonzero_block(self, monkeypatch, n_th, sizes):
        # from an excited probe, each reached excitation manifold is a block
        # of its own; at n_th = 0 the two- to five-excitation blocks stay
        # zero and are skipped.  Every block passes its Cholesky
        # certificate, so no eigvalsh runs
        spec = self.five_qubit_cavity(n_th)
        model = build_model(spec)
        rho0 = basis_projector(model.basis, 1 << spec.probe_index)
        shapes = []
        cholesky = np.linalg.cholesky

        def recording_cholesky(a, *args, **kwargs):
            shapes.append(a.shape[-2:])
            return cholesky(a, *args, **kwargs)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("eigvalsh ran on a certified block")

        monkeypatch.setattr(lindblad.np.linalg, "cholesky", recording_cholesky)
        monkeypatch.setattr(lindblad.np.linalg, "eigvalsh", forbidden)
        evolve(model, rho0, np.linspace(0.0, 0.1, 5))
        assert sorted(shapes) == [(size, size) for size in sizes]

    def test_bad_trace_raises(self):
        model = build_model(pair_spec(13.4, 0.01, 0.2))
        with pytest.raises(ValueError, match="trace"):
            evolve(model, 2.0 * basis_projector(model.basis, 0b01), [0.0, 0.1])

    def test_zero_state_raises_the_trace_message(self):
        # nothing is reached, so the block is empty; the validator still names the start
        model = build_model(pair_spec(13.4, 0.01, 0.2))
        with pytest.raises(ValueError, match=r"trace 0\.0 differs from 1 beyond 1e-9 at t = 0 us"):
            evolve(model, np.zeros((4, 4)), [0.0, 0.1])

    def test_non_hermitian_initial_state_raises(self):
        # unit trace and a positive Hermitian part: only the Hermiticity check sees it
        model = build_model(pair_spec(13.4, 0.01, 0.2))
        good = basis_projector(model.basis, 0b01)
        bad = good.copy()
        bad[1, 2] = 0.1
        for rho0 in (bad, np.stack([good, bad])):
            with pytest.raises(ValueError, match="not Hermitian within 1e-10"):
                evolve(model, rho0, [0.0, 0.1])
        evolve(model, good + 1e-12 * (np.eye(4, k=1) - np.eye(4, k=-1)), [0.0, 0.1])

    def test_shape_checks(self):
        model = build_model(pair_spec(13.4, 0.01, 0.2))
        with pytest.raises(ValueError, match="dimension"):
            evolve(model, np.eye(2) / 2, [0.0, 0.1])
        with pytest.raises(ValueError, match="increasing"):
            evolve(model, np.eye(4) / 4, [0.0, 0.1, 0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_named(self, bad):
        model = build_model(pair_spec(13.4, 0.01, 0.2))
        for times in ([0.0, 0.1, bad], [bad, 0.1]):
            with pytest.raises(ValueError, match=rf"times must be finite: time {bad:g} us"):
                evolve(model, np.eye(4) / 4, times)

    def test_non_increasing_time_named(self):
        model = build_model(pair_spec(13.4, 0.01, 0.2))
        cases = (([0.0, 0.1, 0.1, 0.2], "0.1 us follows 0.1"), ([0.0, 0.2, 0.3, 0.25], "0.25 us follows 0.3"))
        for times, first in cases:
            with pytest.raises(ValueError, match=rf"^times must be strictly increasing: time {first} us$"):
                evolve(model, np.eye(4) / 4, times)

    def test_nan_initial_state_names_the_state(self):
        # NaN - conj(NaN) is NaN, which must fail the Hermiticity check
        model = build_model(pair_spec(13.4, 0.01, 0.2))
        good = basis_projector(model.basis, 0b01)
        bad = good.copy()
        bad[2, 2] = math.nan
        with pytest.raises(ValueError, match=r"^initial state is not Hermitian within 1e-10 \(deviation nan\)"):
            evolve(model, bad, [0.0, 0.1])
        with pytest.raises(ValueError, match=r"^initial state 1 of the stack is not Hermitian"):
            evolve(model, np.stack([good, bad]), [0.0, 0.1])

    def test_dominant_oscillation_checks_the_state(self):
        # the preamble evolve shares: a non-Hermitian or wrong-size state is named
        model = build_model(pair_spec(13.4, 0.01, 0.2))
        observable = model.basis.number(0)
        good = basis_projector(model.basis, 0b01)
        bad = good.copy()
        bad[2, 0] = 0.5j
        with pytest.raises(ValueError, match=r"^initial state is not Hermitian within 1e-10"):
            dominant_oscillation(model, bad, observable)
        with pytest.raises(ValueError, match=r"^initial state 1 of the stack is not Hermitian"):
            dominant_oscillation(model, np.stack([good, bad]), observable)
        with pytest.raises(ValueError, match="initial state dimension mismatch"):
            dominant_oscillation(model, np.eye(3) / 3, observable)

    def test_dominant_oscillation_checks_the_observable(self):
        # unchecked, a 9 x 9 observable on d = 8 gave a pair read at misaligned entries
        model = build_model(core.cavity_spec(QubitParams("M", 13.4, 0.1, 0.2), QubitParams("P", 1.2, 0.1, 0.2)))
        rho = basis_projector(model.basis, 0b010)
        for observable in (np.eye(9), np.eye(8)[:, :4], np.eye(64)):
            with pytest.raises(ValueError, match=rf"observable of shape \({len(observable)}, .* is not 8 x 8"):
                dominant_oscillation(model, rho, observable)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def block_with_lowest(rng, k, lowest) -> np.ndarray:
    """A Hermitian k x k block whose lowest eigenvalue is lowest, the rest positive; unit trace if k > 1."""
    values = np.concatenate(([lowest], rng.uniform(0.5, 1.0, k - 1)))
    if k > 1:
        values[1:] *= (1.0 - lowest) / values[1:].sum()
    q, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    block = (q * values) @ q.conj().T
    return 0.5 * (block + block.conj().T)


class TestCoordinateStates:
    """evolve's states stay vec entries on the reached coordinates until they are returned."""

    @staticmethod
    def random_cases():
        # driven holds reach all d^2 coordinates, so at N = 5 only the
        # undriven holds run: a 1024 x 1024 exponential takes seconds
        rng = np.random.default_rng(71)
        for n in (1, 2, 3, 4, 5):
            for n_th, driven in ((0.0, False), (0.05, False), (0.0, True), (0.05, True)):
                if n == 5 and driven:
                    continue
                model = build_model(random_spec(rng, n, n_th=n_th),
                                    drives=random_drives(rng, n) if driven else ())
                d = model.dimension
                picks = rng.choice(d, size=min(2, d), replace=False)
                single = basis_projector(model.basis, *picks)
                stack = np.array([basis_projector(model.basis, p) for p in picks])
                times = np.linspace(0.0, rng.uniform(0.02, 0.1), 7)
                for rho in (single, stack):
                    yield model, rho, times
                if n <= 3:
                    uneven = np.cumsum(rng.choice([0.01, 0.02, 0.01 * (1 + 1e-13)], 6))
                    yield model, random_mixed_state(rng, d), uneven

    def test_evolve_scatters_the_propagated_entries(self):
        for model, rho, times in self.random_cases():
            reached, entries = lindblad._propagate(model, rho, times)
            m = 1 if rho.ndim == 2 else len(rho)
            assert entries.shape == (len(times), m, reached.size)
            states = np.zeros((len(times), m, model.dimension**2), dtype=complex)
            states[..., reached] = entries
            assert same_bits(evolve(model, rho, times), states.reshape((len(times),) + rho.shape))

    def test_evolve_matches_the_listed_path_bitwise(self):
        # one preallocated path and one search per class of equal steps give
        # the states of a list of columns searched step by step, bit for bit
        for model, rho, times in self.random_cases():
            assert same_bits(evolve(model, rho, times), listed_path_states(model, rho, times))

    def test_memo_reuses_only_an_equal_reach(self):
        # the model's cache across calls: a start with another reach
        # rebuilds the block, one with the same reach reuses it, and every
        # call returns what evolve on a fresh, uncached copy does, bit for bit
        rng = np.random.default_rng(72)
        model = build_model(random_spec(rng, 3, n_th=0.05))
        basis = model.basis
        first, other = basis_projector(basis, 0b001), basis_projector(basis, 0b000, 0b011)
        grids = (np.linspace(0.0, 0.05, 6), np.linspace(0.0, 0.05, 3), np.linspace(0.0, 0.05, 6))
        starts = (first, other, first, first)
        fresh = [evolve(uncached(model), rho, times) for rho, times in zip(starts, grids + grids[:1])]
        built = []
        sector_generator = lindblad._sector_generator
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lindblad, "_sector_generator",
                          lambda *args: built.append(1) or sector_generator(*args))
            for rho, times, expected in zip(starts, grids + grids[:1], fresh):
                assert same_bits(evolve(model, rho, times), expected)
        # first, other, first again: three builds; the last call reuses the third
        assert len(built) == 3

    @pytest.mark.parametrize("lowest", [-1e-8 * (1 + 1e-6), -1e-8 * (1 - 1e-6), -0.5e-8, 0.0])
    def test_certificate_decides_as_eigvalsh(self, lowest):
        rng = np.random.default_rng(73)
        for k in (1, 2, 5, 10):
            stack = np.array([block_with_lowest(rng, k, lowest) for _ in range(3)])
            exact = np.linalg.eigvalsh(stack).min(axis=1)
            assert np.all(np.abs(exact - lowest) < 1e-15)
            certified = lindblad._lowest_eigenvalues(stack, (1,))
            assert np.array_equal(certified >= -1e-8, exact >= -1e-8)
            # a failed certificate falls back to the exact values
            assert np.all((certified == np.inf) | (certified == exact))
            if lowest == 0.0:
                assert np.all(certified == np.inf)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_certificate_fails_non_finite_blocks(self, bad):
        # numpy's Cholesky returns NaN factors for NaN entries without
        # raising; only the finite-factor test keeps such a block uncertified
        rng = np.random.default_rng(74)
        for row, col in ((1, 0), (2, 2)):
            stack = np.array([block_with_lowest(rng, 3, 0.1) for _ in range(3)])
            stack[1, row, col] = bad
            stack[1, col, row] = np.conj(bad)
            lowest = lindblad._lowest_eigenvalues(stack, (1,))
            assert np.isnan(lowest[1])
            if row != col:  # a non-finite diagonal fails the trace check first
                with pytest.raises(ValueError, match=r"eigenvalue nan below -1e-8 at t = 0\.2 us"):
                    lindblad._check_states(stack.reshape(3, 9), lindblad._state_layout(np.arange(9), 3),
                                           [0.1, 0.2, 0.3], "t = {:g} us")


class TestModelCache:
    """What a model caches for evolve is its own, bounded, and safe to share between threads."""

    def test_models_compare_and_hash_by_identity(self):
        model = build_model(core.cavity_spec(QubitParams("M", 13.4, 0.1, 0.2), QubitParams("P", 1.2, 0.1, 0.2)))
        copy = uncached(model)
        assert model == model and model != copy and not (model == copy)
        assert hash(model) == hash(model) and len({model, copy}) == 2
        assert {model: 1}[model] == 1

    @staticmethod
    def cases(model):
        # two reaches and three grids, so consecutive calls change the reach or the steps
        basis = model.basis
        first, other = basis_projector(basis, 0b001), basis_projector(basis, 0b000, 0b011)
        grids = (np.linspace(0.0, 0.05, 6), np.linspace(0.0, 0.04, 3), np.linspace(0.0, 0.06, 7))
        return [(rho, times) for rho in (first, other) for times in grids]

    def test_interleaved_models_keep_their_own_blocks(self):
        # two models of one dimension, called in turn: no call sees the
        # other model's block or exponentials
        rng = np.random.default_rng(74)
        model = build_model(random_spec(rng, 3, n_th=0.05))
        # the same nonzero pattern, so the same reach, but another block
        models = [model, LindbladModel(2.0 * model.hamiltonian, model.dissipators, model.basis)]
        cases = self.cases(model)
        fresh = [[evolve(uncached(model), *case) for case in cases] for model in models]
        assert not any(same_bits(a, b) for a, b in zip(*fresh))
        for k, case in enumerate(cases + cases):
            for model, expected in zip(models, fresh):
                assert same_bits(evolve(model, *case), expected[k % len(cases)])

    def test_matrices_are_read_only_copies(self):
        basis = ProductBasis(1)
        ham, lower = np.zeros((2, 2), dtype=complex), basis.lowering(0)
        model = LindbladModel(ham, ((lower, 1.0),), basis)
        for matrix in (model.hamiltonian, model.dissipators[0][0]):
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 1.0
        ham[0, 0], lower[0, 0] = 1.0, 1.0  # the caller's arrays stay writable
        assert model.hamiltonian[0, 0] == 0.0 and model.dissipators[0][0][0, 0] == 0.0

    def test_cache_holds_the_factors_and_the_last_block_alone(self, monkeypatch):
        # after holds at several steps and offsets the model keeps its factors
        # and the zero-offset block of the last reach; no exponential a hold
        # formed is reachable from it
        rng = np.random.default_rng(75)
        model = build_model(random_spec(rng, 3))
        rho = basis_projector(model.basis, 0b001)
        formed, expm = [], lindblad._expm
        monkeypatch.setattr(lindblad, "_expm", lambda a: formed.append(expm(a)) or formed[-1])
        times = np.array([0.0, 0.02, 0.05, 0.06, 0.09])  # steps 0.02, 0.03, 0.01 and 0.03 again
        for offsets in (None, [1.0, 0.0, -2.0], [1.0, 0.0, -2.0], None):
            evolve(model, rho, times, offsets)
        evolve(model, rho, np.linspace(0.0, 0.035, 6))
        assert len(formed) == 4 * 3 + 1
        assert set(model._cache) == {"terms", "reach"}

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from arrays(item)
            elif isinstance(value, lindblad._Sectors):
                yield from arrays(list(vars(value).values()))

        reach = model._cache["reach"]
        assert len(reach) == 4  # (reached, block, sectors, layout)
        expected, _ = lindblad._reached_block(uncached(model), rho)
        assert all(same_bits(a, b) for a, b in zip(arrays(reach), arrays(expected), strict=True))
        kept = list(arrays(list(model._cache.values())))
        assert not any(np.shares_memory(a, e) for a in kept for e in formed)
        assert not any(a.shape == e.shape and np.array_equal(a, e) for a in kept for e in formed)

    def test_threads_sharing_a_model_match_an_uncached_copy(self):
        # four threads (more than two cores) on one model, switching every
        # microsecond, each call a short hold on one of two reaches, with or
        # without detuning offsets: a block paired with another reach, or
        # exponentials with another block or other offsets, change the bits
        # (a _reached_block that reads the cache twice fails)
        rng = np.random.default_rng(76)
        model = build_model(random_spec(rng, 2, n_th=0.05))
        starts = basis_projector(model.basis, 0b01), basis_projector(model.basis, 0b00, 0b11)
        grids = np.linspace(0.0, 0.05, 2), np.linspace(0.0, 0.04, 3)
        cases = [
            (rho, times, offsets)
            for rho in starts for times in grids for offsets in (None, [3.0, -1.5])
        ]
        fresh = [evolve(uncached(model), *case) for case in cases]
        failures, deadline = [], time.monotonic() + 10.0

        def worker(offset):
            for k in range(offset, offset + 600):
                if time.monotonic() > deadline:
                    break
                rho, times, offsets = cases[k % len(cases)]
                try:
                    if not same_bits(evolve(model, rho, times, offsets), fresh[k % len(cases)]):
                        failures.append(k)
                except Exception as err:  # a torn cache can also mismatch shapes
                    failures.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestPlans:
    """The builder plans its indices once per structure; a stored plan gives the bits of a fresh one."""

    @staticmethod
    def random_cases():
        # N = 1-5, thermal or not, driven on every qubit as through the
        # waveguide or on one qubit (xy): a driven model for steady states,
        # then one for holds, each paired with one of the same structure at
        # other rates.  Holds start from a coherence of qubit 0;
        # above N = 3 they run undriven, as a driven hold there reaches every
        # coordinate, and at N = 5 without thermal excitation, which reaches
        # 672 coordinates: their exponentials and eigenmodes take seconds
        rng = np.random.default_rng(81)
        for n in (1, 2, 3, 4, 5):
            for n_th in (0.0, 0.05):
                for through_waveguide in (True, False):
                    spec = random_spec(rng, n, n_th=n_th)
                    amplitudes = rng.uniform(1, 8, n) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
                    drives = tuple(enumerate(amplitudes)) if through_waveguide else ((int(rng.integers(n)), 3.0),)
                    models = [build_model(spec, drives=drives)]
                    if n <= 3:
                        models.append(models[0])
                    elif n == 4 or n_th == 0.0:
                        models.append(build_model(spec))
                    yield [(model, TestPlans.other_rates(model)) for model in models]

    @staticmethod
    def other_rates(model):
        """A model of the same structure: every nonzero stays nonzero."""
        jumps = tuple((op, 0.6 * rate) for op, rate in model.dissipators)
        return LindbladModel(1.7 * model.hamiltonian, jumps, model.basis)

    @staticmethod
    def outputs(models):
        """steady_states of the first model, and the hold and fringe of the second if there is one."""
        driven, *held = (uncached(model) for model in models)
        grid = [0.0, 2.5] if driven.basis.n_qubits > 3 else np.linspace(-10.0, 10.0, lindblad.POINTWISE_MAX + 6)
        found = [steady_states(driven, grid)]
        for model in held:
            basis = model.basis
            rho = pure_state(basis.basis_vector(0) + basis.basis_vector(1))
            found.append(evolve(model, rho, np.linspace(0.0, 0.05, 4)))
            try:
                found.append(np.array(dominant_oscillation(model, rho, basis.lowering(0) + basis.raising(0))))
            except ValueError as err:  # an overdamped hold has no fringe
                found.append(np.array(str(err)))
        return found

    def test_a_stored_plan_gives_the_bits_of_an_empty_store(self, monkeypatch):
        for pairs in self.random_cases():
            models, others = zip(*pairs)
            monkeypatch.setattr(lindblad, "_PLANS", {})
            cold = self.outputs(models)
            monkeypatch.setattr(lindblad, "_PLANS", {})
            self.outputs(others)
            stored = dict(lindblad._PLANS)
            warm = self.outputs(models)
            assert lindblad._PLANS == stored  # every build of the first models hit
            assert all(same_bits(a, b) for a, b in zip(cold, warm, strict=True))

    @pytest.mark.usefixtures("empty_plans")
    def test_rejected_structure_raises_on_every_call(self, monkeypatch):
        # |11><11| (coordinate 15, sector 0) fed from |00><11| (3, sector 2):
        # the plan is never stored, so the second call builds and fails again
        kron_entries = lindblad._kron_entries

        def with_far_entry(*args):
            rows, cols, left_at, right_at = kron_entries(*args)
            return np.append(rows, 15), np.append(cols, 3), np.append(left_at, 0), np.append(right_at, 0)

        monkeypatch.setattr(lindblad, "_kron_entries", with_far_entry)
        model = build_model(pair_spec(13.4, gloss=0.1), drives=((0, 0.5), (1, 0.3)))
        for _ in range(2):
            with pytest.raises(ValueError, match=r"entry \(15, 3\) couples sectors 0 and 2"):
                steady_states(model, [2.5])
            assert lindblad._PLANS == {}

    @pytest.mark.usefixtures("empty_plans")
    def test_stored_plan_still_checks_realness(self):
        # rho -> rho stores the plan of its structure; rho -> i rho, on the
        # same nonzeros, maps Hermitian matrices to anti-Hermitian ones
        eye = np.eye(3, dtype=complex)[None]
        model = LindbladModel(np.zeros((3, 3)))
        lindblad._sector_generator(eye, eye, np.arange(9), model)
        assert len(lindblad._PLANS) == 1
        with pytest.raises(ValueError, match="Hermitian"):
            lindblad._sector_generator(1j * eye, eye, np.arange(9), model)

    @pytest.mark.usefixtures("empty_plans")
    def test_store_keeps_the_newest_plans_up_to_its_bound(self):
        # one structure per dimension of a model without a basis
        plans = []
        for d in range(2, lindblad.PLAN_MAX + 5):
            model = LindbladModel(np.diag(np.arange(d, dtype=complex)), ((np.eye(d, k=1), 1.0),))
            plans.append(lindblad._sector_generator(*lindblad._kron_terms(model), np.arange(d * d), model)[0])
            assert len(lindblad._PLANS) <= lindblad.PLAN_MAX
        kept = list(lindblad._PLANS.values())
        assert len(kept) == lindblad.PLAN_MAX
        assert all(a is b for a, b in zip(kept, plans[-lindblad.PLAN_MAX :], strict=True))

    def test_each_build_looks_its_structure_up_once(self, monkeypatch):
        # a steady state and a first hold build once each, whether the store
        # misses or hits; a second hold from the same start reuses the model's block
        lookups = []

        class CountingStore(dict):
            def get(self, key, default=None):
                lookups.append(key)
                return super().get(key, default)

            def __getitem__(self, key):
                lookups.append(key)
                return super().__getitem__(key)

            def __contains__(self, key):
                lookups.append(key)
                return super().__contains__(key)

        rng = np.random.default_rng(83)
        model = build_model(random_spec(rng, 3, n_th=0.05), drives=random_drives(rng, 3))
        rho, times = basis_projector(model.basis, 0b001), np.linspace(0.0, 0.05, 4)

        def steady(fresh):
            steady_states(fresh, [0.0, 1.5])

        def hold(fresh):
            evolve(fresh, rho, times)

        # each order from an empty store, on a model with an empty cache
        for order, expected in (((steady, hold, hold), [1, 1, 0]), ((hold, hold, steady), [1, 0, 1])):
            monkeypatch.setattr(lindblad, "_PLANS", CountingStore())
            fresh, counts = uncached(model), []
            for call in order:
                before = len(lookups)
                call(fresh)
                counts.append(len(lookups) - before)
            assert counts == expected

    @pytest.mark.usefixtures("empty_plans")
    def test_threads_building_one_structure_match_a_cold_build(self):
        # four threads (more than two cores), switching every microsecond,
        # each on its own copy of one model, race to build its plan from an
        # empty store: each gets the bits of a build in one thread
        rng = np.random.default_rng(82)
        model = build_model(random_spec(rng, 3, n_th=0.05), drives=random_drives(rng, 3))
        grid, times = np.linspace(-10.0, 10.0, 30), np.linspace(0.0, 0.05, 4)
        rho = basis_projector(model.basis, 0b001)
        expected = steady_states(uncached(model), grid), evolve(uncached(model), rho, times)
        failures, deadline = [], time.monotonic() + 10.0

        def worker():
            copy = uncached(model)
            try:
                found = steady_states(copy, grid), evolve(copy, rho, times)
            except Exception as err:  # a torn plan can also mismatch shapes
                failures.append(err)
            else:
                if not all(same_bits(a, b) for a, b in zip(found, expected)):
                    failures.append(found)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                if time.monotonic() > deadline:
                    break
                lindblad._PLANS.clear()
                threads = [threading.Thread(target=worker) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert len(lindblad._PLANS) == 1  # the driven hold reaches every coordinate


class TestHoldOffsets:
    """A hold at detuning offsets is the hold of a model built at the summed detunings."""

    @staticmethod
    def random_cases():
        # what a model of spec.with_detunings(detunings + offsets) would hold;
        # driven holds reach all d^2 coordinates, so at N = 5 only undriven ones run
        rng = np.random.default_rng(77)
        for n in (1, 2, 3, 4, 5):
            for n_th, driven in ((0.0, False), (0.05, False), (0.0, True), (0.05, True)):
                if n == 5 and driven:
                    continue
                spec = random_spec(rng, n, n_th=n_th)
                drives = random_drives(rng, n) if driven else ()
                offsets = rng.uniform(-20, 20, n)
                model = build_model(spec, drives=drives)
                rebuilt = build_model(spec.with_detunings(np.add(spec.detunings, offsets)), drives=drives)
                picks = rng.choice(model.dimension, size=min(2, model.dimension), replace=False)
                single = basis_projector(model.basis, *picks)
                stack = np.array([basis_projector(model.basis, p) for p in picks])
                times = np.linspace(0.0, rng.uniform(0.02, 0.1), 7)
                starts = (single, stack) + ((random_mixed_state(rng, model.dimension),) if n <= 3 else ())
                for rho in starts:
                    yield model, rebuilt, offsets, rho, times

    def test_offsets_match_a_rebuilt_model(self):
        # the same coordinates as a hold without offsets (the offsets only move
        # the diagonal of L, which feeds none), and the states of the rebuilt model
        for model, rebuilt, offsets, rho, times in self.random_cases():
            reached, entries = lindblad._propagate(model, rho, times, offsets)
            assert np.array_equal(reached, reached_coordinates(uncached(model), rho))
            expected_reached, expected = lindblad._propagate(rebuilt, rho, times)
            assert np.array_equal(reached, expected_reached)
            assert np.max(np.abs(entries - expected)) < 1e-12
            # evolve and the populations read the same hold (the cached exponentials)
            states = evolve(model, rho, times, offsets)
            assert np.max(np.abs(states - evolve(rebuilt, rho, times))) < 1e-12
            if rho.ndim == 2:
                for j in range(model.basis.n_qubits):
                    number = model.basis.number(j)
                    held = lindblad._held_populations(model, number, rho, times, offsets)
                    reference = lindblad._held_populations(rebuilt, number, rho, times)
                    assert np.max(np.abs(held - reference)) < 1e-12

    def test_zero_offsets_are_no_offsets(self):
        rng = np.random.default_rng(78)
        model = build_model(random_spec(rng, 3, n_th=0.05), drives=random_drives(rng, 3))
        rho, times = random_mixed_state(rng, model.dimension), np.linspace(0.0, 0.05, 6)
        expected = evolve(uncached(model), rho, times)
        for offsets in (None, np.zeros(3), [0.0, -0.0, 0.0]):
            assert same_bits(evolve(uncached(model), rho, times, offsets), expected)
            assert same_bits(evolve(model, rho, times, offsets), expected)

    def test_other_offsets_rebuild_only_the_shift_and_its_exponentials(self, monkeypatch):
        # one block per reach at zero offset; every call forms its own
        # exponential, of the shifted block at offsets, and gives the bits
        # of a fresh, uncached copy
        rng = np.random.default_rng(79)
        model = build_model(random_spec(rng, 3, n_th=0.05))
        rho, times = basis_projector(model.basis, 0b001), np.linspace(0.0, 0.05, 6)
        calls = [None, [1.0, 0.0, -2.0], [1.0, 0.0, -2.0], [0.5, 0.0, 0.0], None]
        fresh = [evolve(uncached(model), rho, times, offsets) for offsets in calls]
        counts = {"_sector_generator": 0, "_expm": 0}
        for name in counts:
            real = getattr(lindblad, name)

            def counting(*args, name=name, real=real):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(lindblad, name, counting)
        seen = []
        for offsets, expected in zip(calls, fresh):
            assert same_bits(evolve(model, rho, times, offsets), expected)
            seen.append(dict(counts))
        assert [c["_sector_generator"] for c in seen] == [1, 1, 1, 1, 1]
        assert [c["_expm"] for c in seen] == [1, 2, 3, 4, 5]

    def test_offset_errors_are_named(self):
        rng = np.random.default_rng(80)
        model = build_model(random_spec(rng, 2))
        rho, times = basis_projector(model.basis, 0b01), [0.0, 0.01]
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"detuning offset (nan|inf|-inf) MHz is not finite"):
                evolve(model, rho, times, [0.0, bad])
        for offsets in ([1.0], [1.0, 2.0, 3.0]):
            with pytest.raises(ValueError, match=rf"{len(offsets)} detuning offsets for 2 qubits"):
                evolve(model, rho, times, offsets)
        bare = LindbladModel(model.hamiltonian, model.dissipators)
        with pytest.raises(ValueError, match="nonzero detuning offsets need a model with a qubit basis"):
            evolve(bare, rho, times, [0.0, 1.0])
        assert same_bits(evolve(bare, rho, times, [0.0, 0.0]), evolve(model, rho, times))


class TestSteadyState:
    def test_undriven_qubit_relaxes_to_ground(self):
        q = QubitParams("Q", 1.0, 0.01, 0.05)
        spec = SystemSpec(qubits=((q, Placement(0.0)),))
        rho = steady_states(build_model(spec), [0.0])[0]
        assert rho[0, 0].real == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_dark_subspace_reported(self):
        with pytest.raises(DegenerateSteadyStateError):
            steady_states(build_model(pair_spec(13.4)), [0.0])

    @pytest.mark.parametrize("gamma_loss", [1e-3, 1e-5, 1e-7])
    def test_slow_dark_decay_is_not_degenerate(self, gamma_loss):
        # the dark state still decays, only slowly: unique steady state
        rho = steady_states(build_model(pair_spec(13.4, gloss=gamma_loss)), [0.0])[0]
        assert rho[0, 0].real == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_svd_null_vector(self):
        rng = np.random.default_rng(21)
        cases = [(n, rng.uniform(0, 0.2)) for n in (1, 1, 2, 2, 2, 3, 3, 3, 4, 4)] + [(5, 0.05)]
        for n, n_th in cases:
            model = build_model(random_spec(rng, n, n_th=n_th), drives=random_drives(rng, n))
            rho = steady_states(model, [0.0])[0]
            assert np.max(np.abs(rho - svd_steady_state(model))) < 1e-9
            assert np.max(np.abs(rho - rho.conj().T)) == 0.0
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_matches_thermal_closed_form_on_grid(self):
        g1d, gloss, gphi = 13.4, 0.0065, 0.21
        q = QubitParams("Q", g1d, gloss, gphi)
        for n_th in (0.0, 1e-3, 0.01, 0.1, 0.3):
            for omega in (0.0, 0.2, 1.0, 4.0, 12.0):
                for delta in (-8.0, -1.0, 0.0, 1.0, 8.0):
                    if omega == 0.0 and n_th == 0.0:
                        continue  # pure ground state, checked elsewhere
                    spec = SystemSpec(
                        qubits=((q, Placement(0.0)),), detunings=(-delta,), n_th=n_th
                    )
                    model = build_model(spec, drives=((0, omega),))
                    rho = steady_states(model, [0.0])[0]
                    ee, eg = thermal_qubit_steady(g1d, gloss, gphi, n_th, omega, delta)
                    assert rho[1, 1].real == pytest.approx(ee, abs=1e-9)
                    assert abs(rho[1, 0] - eg) < 1e-9


class TestSteadyStateSweep:
    """One assembly per sweep: L0 + delta K against a rebuilt model per point."""

    def assert_sweep_matches(self, spec, drives, grid):
        model = build_model(spec, drives=drives)
        sweep = steady_states(model, grid)
        d = model.dimension
        assert isinstance(sweep, np.ndarray) and sweep.shape == (len(grid), d, d)
        assert np.array_equal(sweep, np.swapaxes(sweep, -1, -2).conj())
        for delta, rho in zip(grid, sweep):
            model = shifted_model(spec, drives, delta)
            assert np.max(np.abs(rho - steady_states(model, [0.0])[0])) < 1e-10
            assert np.max(np.abs(rho - svd_steady_state(model))) < 1e-10

    def test_matches_pointwise_and_dense_oracle(self):
        rng = np.random.default_rng(77)
        for n in (1, 1, 2, 2, 3, 3, 4):
            spec = random_spec(rng, n, n_th=rng.uniform(0.01, 0.2))
            grid = np.concatenate([[0.0], rng.uniform(-20, 20, 3)])
            self.assert_sweep_matches(spec, random_drives(rng, n), grid)

    def test_pencil_matches_pointwise_and_dense_oracle(self):
        # more than POINTWISE_MAX distinct detunings, unsorted and repeated:
        # every state of the pencil, in the order given
        rng = np.random.default_rng(80)
        spec = random_spec(rng, 3, n_th=0.05)
        grid = rng.uniform(-20, 20, lindblad.POINTWISE_MAX + 10)
        grid = np.concatenate([grid, grid[:3]])
        self.assert_sweep_matches(spec, random_drives(rng, 3), grid)

    def test_five_qubits_two_points(self):
        rng = np.random.default_rng(78)
        spec = random_spec(rng, 5, n_th=0.05)
        self.assert_sweep_matches(spec, random_drives(rng, 5), np.array([-3.0, 4.5]))

    def test_lossless_pair_sweep_is_degenerate(self):
        with pytest.raises(DegenerateSteadyStateError, match=r"rcond .* at drive detuning -5 MHz"):
            steady_states(build_model(pair_spec(13.4)), np.linspace(-5.0, 5.0, 5))
        # the pencil's one LU is at the node nearest the mean
        with pytest.raises(DegenerateSteadyStateError, match=r"rcond .* at drive detuning 10 MHz"):
            steady_states(build_model(pair_spec(13.4)), np.linspace(-20.0, 40.0, 61))

    def test_pencil_names_a_singular_node(self, monkeypatch):
        # an eigenvalue lambda = -1 / s of the pencil makes M(delta) singular
        # at s = delta - delta_0; delta_0 = 10 MHz is the node nearest the mean
        eig = lindblad.eig

        def pole_at_35(a, **kwargs):
            values, vectors = eig(a, **kwargs)
            values[0] = -1.0 / (35.0 - 10.0)
            return values, vectors

        monkeypatch.setattr(lindblad, "eig", pole_at_35)
        model = build_model(pair_spec(13.4, gloss=0.1), drives=((0, 0.5), (1, 0.3)))
        message = r"\|1 \+ s lambda\| 0\.000e\+00 in the shift-invert pencil, below 1e-13\) at drive detuning 35 MHz$"
        with pytest.raises(DegenerateSteadyStateError, match=message):
            steady_states(model, np.linspace(-20.0, 40.0, 61))

    @pytest.mark.usefixtures("empty_plans")
    def test_residual_failure_names_the_point(self, monkeypatch):
        # every solve of the block LU off by 1e-3 in each entry, so every
        # solution is off: the residual check, which runs before the trace
        # check, must see it
        get_lapack_funcs = lindblad.get_lapack_funcs

        def perturbed(names, dtype):
            getrf, gecon, getrs, getri = get_lapack_funcs(names, dtype=dtype)

            def getrs_off(lu, piv, rhs, **kwargs):
                x, info = getrs(lu, piv, rhs, **kwargs)
                return x + 1e-3, info

            return getrf, gecon, getrs_off, getri

        monkeypatch.setattr(lindblad, "get_lapack_funcs", perturbed)
        with pytest.raises(DegenerateSteadyStateError, match=r"residual .* at drive detuning 2.5 MHz"):
            steady_states(build_model(pair_spec(13.4, gloss=0.1)), [2.5])

    @staticmethod
    def perturb_point(monkeypatch, point, change):
        """Make the state check of a sweep see change applied to the vec of one point.

        The states reach _check_states, as one vec per point, after the
        residual check, so only the state check sees the change.
        """
        check_states = lindblad._check_states

        def patched(vecs, *args):
            vecs[point] = change(vecs[point])
            check_states(vecs, *args)

        monkeypatch.setattr(lindblad, "_check_states", patched)

    def test_off_trace_point_raises(self, monkeypatch):
        # twice a null vector leaves a small residual; only the trace check sees it
        self.perturb_point(monkeypatch, 1, lambda vec: 2.0 * vec)
        model = build_model(pair_spec(13.4, gloss=0.1), drives=((0, 0.5), (1, 0.3)))
        with pytest.raises(ValueError, match=r"trace .* at drive detuning 2.5 MHz"):
            steady_states(model, [-1.0, 2.5, 4.0])

    def test_negative_eigenvalue_point_raises(self, monkeypatch):
        # -1e-3 of the dark state, which decays at 1e-7 MHz, leaves a
        # residual far below the tolerance; only the eigenvalue check sees it
        model = build_model(pair_spec(13.4, gloss=1e-7))
        dark = dark_vector(model.basis)
        ground = model.basis.ground_vector()
        shift = 1e-3 * (np.outer(ground, ground) - np.outer(dark, dark)).reshape(-1)
        self.perturb_point(monkeypatch, 1, lambda vec: vec + shift)
        message = r"eigenvalue -1\.000e-03 below -1e-8 at drive detuning 2.5 MHz"
        with pytest.raises(ValueError, match=message):
            steady_states(model, [-1.0, 2.5, 4.0])

    def test_nan_detuning_names_the_point(self):
        # rejected before any solve, not blamed on the trace of a NaN state
        model = build_model(pair_spec(13.4, gloss=0.1), drives=((0, 0.5), (1, 0.3)))
        with pytest.raises(ValueError, match=r"^drive detuning nan MHz is not finite$"):
            steady_states(model, [1.0, math.nan])

    def test_inf_detuning_names_the_point(self):
        # rejected before any solve, not reported as a degenerate null space
        model = build_model(pair_spec(13.4, gloss=0.1), drives=((0, 0.5), (1, 0.3)))
        with pytest.raises(ValueError, match=r"^drive detuning -inf MHz is not finite$"):
            steady_states(model, [1.0, -math.inf, math.inf])

    def test_nan_state_names_the_point(self, monkeypatch):
        # NaN coherences leave the trace at 1; only the eigenvalue check sees them
        def nan_coherences(vec):
            d = math.isqrt(vec.size)
            return np.where(np.eye(d, dtype=bool).reshape(-1), vec, math.nan)

        self.perturb_point(monkeypatch, 1, nan_coherences)
        model = build_model(pair_spec(13.4, gloss=0.1), drives=((0, 0.5), (1, 0.3)))
        with pytest.raises(ValueError, match=r"eigenvalue nan below -1e-8 at drive detuning 2.5 MHz"):
            steady_states(model, [-1.0, 2.5, 4.0])

    def test_nonzero_detuning_needs_a_basis(self):
        basis = ProductBasis(1)
        model = LindbladModel(np.zeros((2, 2)), ((basis.lowering(0), 2.0),))
        with pytest.raises(ValueError, match="basis"):
            steady_states(model, [0.0, 1.0])
        (rho,) = steady_states(model, [0.0])
        assert rho[0, 0].real == pytest.approx(1.0, abs=1e-12)


class TestHermitianCoordinates:
    """The sector coordinates u: Hermitian x0 = U0 vec(rho) in sector 0, then Re z and Im z above."""

    @staticmethod
    def random_models():
        rng = np.random.default_rng(31)
        for n in (1, 2, 3, 4, 5):
            yield build_model(random_spec(rng, n), drives=random_drives(rng, n))
            yield build_model(random_spec(rng, n, n_th=rng.uniform(0.01, 0.2)))

    @staticmethod
    def bare_model(d):
        """A model of dimension d, on a qubit basis where d is a power of two above 1."""
        n = d.bit_length() - 1
        basis = ProductBasis(n) if d > 1 and d == 2**n else None
        return LindbladModel(np.zeros((d, d)), (), basis)

    @staticmethod
    def random_hermitian(rng, d, m):
        rho = rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d))
        return rho + np.swapaxes(rho, 1, 2).conj()

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 32])
    def test_unitary(self, d):
        # on all d^2 coordinates, u = T vec(rho) with T written from the
        # definition (hold_coordinates), whose sector-0 rows are those of
        # the oracle's U, which is unitary
        model = self.bare_model(d)
        index = np.arange(d * d)
        sectors = lindblad._Sectors(index, model)
        transform = hold_coordinates(model, index)
        unitary = reach_oracle.hermitian_unitary(d)
        identity = (unitary @ unitary.conj().T).toarray()
        assert np.max(np.abs(identity - np.eye(d * d))) < 1e-15
        zero = sectors.zero
        assert np.max(np.abs(transform[: zero.size] - unitary.toarray()[zero])) < 1e-15
        vecs = self.random_hermitian(np.random.default_rng(d), d, 3).reshape(3, -1)
        expected = transform @ vecs.T
        assert np.max(np.abs(expected.imag)) < 1e-14
        assert np.max(np.abs(sectors.coordinates(vecs) - expected.real.T)) < 1e-14

    def test_liouvillian_is_real(self):
        # the builder's entries on all d^2 coordinates, in their real form and
        # summed, against the oracle's U L U^dagger (which asserts no imaginary part
        # beyond 1e-12) moved into the same coordinates
        for model in self.random_models():
            d = model.dimension
            plan, _, v = lindblad._sector_generator(*lindblad._kron_terms(model), np.arange(d * d), model)
            rows, cols, doubled, take = lindblad._real_places(plan.i, plan.j, plan.sectors.zero.size)
            values = lindblad._real_values(v, doubled, take)
            assert values.dtype == np.float64
            generator = np.zeros((d * d, d * d))
            np.add.at(generator, (rows, cols), values)
            reference = oracle_block(model, np.arange(d * d))
            assert np.max(np.abs(generator - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_coordinates_of_a_qubit(self):
        rho = np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]])
        vec = rho.reshape(1, -1)
        # no basis: every coordinate Hermitian, as the oracle's U
        expected = [0.7, math.sqrt(2) * 0.1, -math.sqrt(2) * 0.2, 0.3]
        sectors = lindblad._Sectors(np.arange(4), LindbladModel(np.zeros((2, 2))))
        assert np.allclose(sectors.coordinates(vec)[0], expected, atol=1e-15)
        assert np.allclose(reach_oracle.hermitian_unitary(2) @ vec[0], expected, atol=1e-15)
        # a qubit: the populations, then rho_10 = rho_eg
        sectors = lindblad._Sectors(np.arange(4), self.bare_model(2))
        assert np.allclose(sectors.coordinates(vec)[0], [0.7, 0.3, 0.1, 0.2], atol=1e-15)

    def test_non_hermitian_map_rejected(self):
        # rho -> i rho maps Hermitian matrices to anti-Hermitian ones
        eye = np.eye(3, dtype=complex)[None]
        with pytest.raises(ValueError, match="Hermitian"):
            lindblad._sector_generator(1j * eye, eye, np.arange(9), LindbladModel(np.zeros((3, 3))))

    @pytest.mark.parametrize("d", [2, 5, 32])
    def test_round_trip(self, d):
        rng = np.random.default_rng(d)
        model = self.bare_model(d)
        index = np.arange(d * d)
        sectors = lindblad._Sectors(index, model)
        u = rng.normal(size=d * d)
        vec = sectors.vec(u)
        rho = vec.reshape(d, d)
        assert np.array_equal(rho, rho.conj().T)
        transform = hold_coordinates(model, index)
        assert np.max(np.abs(np.linalg.solve(transform, u) - vec)) < 1e-14
        assert np.max(np.abs(transform @ vec - u)) < 1e-15
        assert np.max(np.abs(sectors.coordinates(vec[None])[0] - u)) < 1e-15

    def test_inverse_on_a_stack_is_c_contiguous(self):
        # the steady-state sweep maps u.T, a Fortran-ordered view; each
        # state's vec must still be one contiguous row
        rng = np.random.default_rng(33)
        d = 4
        model = self.bare_model(d)
        sectors = lindblad._Sectors(np.arange(d * d), model)
        u = rng.normal(size=(d * d, 7))
        vecs = sectors.vec(u.T)
        assert vecs.flags.c_contiguous
        transform = hold_coordinates(model, np.arange(d * d))
        assert np.max(np.abs(vecs - np.linalg.solve(transform, u).T)) < 1e-15

    def test_inverse_on_a_reached_set(self):
        # on the coordinates a pair's one-excitation hold reaches (sector 0
        # alone), and on those of |00> and |01> (rho_10 above it), the vec
        # is the inverse of hold_coordinates on the set, exactly Hermitian
        rng = np.random.default_rng(34)
        model = self.bare_model(4)
        for reached, upper in ((np.array([5, 6, 9, 10]), []), (np.array([0, 1, 4, 5]), [2])):
            sectors = lindblad._Sectors(reached, model)
            assert sectors.upper.tolist() == upper
            u = rng.normal(size=reached.size)
            vec = sectors.vec(u)
            assert np.max(np.abs(vec - np.linalg.solve(hold_coordinates(model, reached), u))) < 1e-15
            transposed = np.searchsorted(reached, (reached % 4) * 4 + reached // 4)
            assert np.array_equal(vec[transposed], vec.conj())

    def test_detuning_generator_only_rotates_coherences(self):
        # unit weights turn z alone; other weights also turn pairs of sector
        # 0; against T diag(K) T^-1 on all d^2 coordinates (hold_coordinates)
        model = self.bare_model(16)
        d = model.dimension
        sectors = lindblad._Sectors(np.arange(d * d), model)
        transform = hold_coordinates(model, np.arange(d * d))
        n0 = sectors.zero.size
        for weights, in_sector_zero in ((np.ones(4), False), ([1.0, 0.0, -2.0, 0.5], True)):
            generator = lindblad._detuning_generator(model.basis, weights)
            rows, cols, values = sectors.rotation(generator.imag)
            reference = transform @ np.diag(generator) @ np.linalg.inv(transform)
            assert np.max(np.abs(reference.imag)) < 1e-12
            rotation = np.zeros((d * d, d * d))
            rotation[rows, cols] = values
            assert np.unique(rows).size == rows.size
            assert np.max(np.abs(rotation - reference.real)) < 1e-12
            populations = np.flatnonzero(sectors.zero % (d + 1) == 0)
            assert rows.size > 0 and not np.any(np.isin(rows, populations))
            assert np.any(rows < n0) == in_sector_zero

    def test_five_qubit_solve_peak_memory(self):
        # the pivot-block bands of one point take 4.0 MiB (real for sector 0,
        # complex above), a real dense 1024 x 1024 matrix 8 MiB: a dense copy
        # of M(delta), a complex one, or a real form of the complex blocks
        # beside the bands exceeds 12 MiB
        rng = np.random.default_rng(32)
        model = build_model(random_spec(rng, 5, n_th=0.05), drives=random_drives(rng, 5))
        tracemalloc.start()
        try:
            steady_states(model, [0.5, 1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestSectorBlocks:
    """M(delta) is block tridiagonal over the sectors |N_a - N_b|, and one block LU solves it."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_block_solve_matches_the_dense_oracle(self, n):
        # thermal, strongly driven on every qubit, with a direct coupling and
        # a correlated dephasing pair: no entry of the oracle's bordered
        # generator couples sectors more than one apart, the drive couples
        # neighbours, and every state is the dense solve's within 1e-12,
        # point by point and, up to three qubits, from the pencil
        rng = np.random.default_rng(90 + n)
        spec = random_spec(rng, n, n_th=rng.uniform(0.01, 0.2))
        drives = tuple((j, complex(rng.uniform(2, 8), rng.uniform(-2, 2))) for j in range(n))
        model = build_model(spec, drives=drives)
        d = model.dimension
        excitations = np.array([bin(k).count("1") for k in range(d)])
        sector = np.abs(np.subtract.outer(excitations, excitations)).reshape(-1)
        generator = reach_oracle.real_generator(model).tocoo()
        apart = np.abs(sector[generator.row] - sector[generator.col])
        assert apart.max() == 1  # the trace row (0, aa) lies in sector 0
        grids = [np.concatenate([[0.0], rng.uniform(-20, 20, 2)])]
        if n <= 3:
            grids.append(rng.uniform(-20, 20, lindblad.POINTWISE_MAX + 6))
        for grid in grids:
            for delta, rho in zip(grid, steady_states(model, grid)):
                assert np.max(np.abs(rho - dense_steady_state(shifted_model(spec, drives, delta)))) < 1e-12

    def test_model_without_a_basis_is_sector_zero(self):
        # every coordinate lies in sector 0: one real pivot block, no complex one
        rng = np.random.default_rng(96)
        ham = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        jumps = tuple((rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)), rate) for rate in (0.4, 1.1))
        model = LindbladModel(ham + ham.conj().T, jumps)
        system = lindblad._BorderedGenerator(model)
        assert [block.shape[0] for block in system.blocks(0.0)[0]] == [9]
        (rho,) = steady_states(model, [0.0])
        assert np.max(np.abs(rho - dense_steady_state(model))) < 1e-12

    @pytest.mark.usefixtures("empty_plans")
    def test_entry_two_sectors_apart_is_named(self, monkeypatch):
        # |11><11| (coordinate 15, sector 0) fed from |00><11| (3, sector 2)
        kron_entries = lindblad._kron_entries

        def with_far_entry(*args):
            rows, cols, left_at, right_at = kron_entries(*args)
            assert not np.any((rows == 15) & (cols == 3))
            return np.append(rows, 15), np.append(cols, 3), np.append(left_at, 0), np.append(right_at, 0)

        monkeypatch.setattr(lindblad, "_kron_entries", with_far_entry)
        model = build_model(pair_spec(13.4, gloss=0.1), drives=((0, 0.5), (1, 0.3)))
        message = r"^bordered generator entry \(15, 3\) couples sectors 0 and 2 of \|N_a - N_b\|, more than one apart$"
        with pytest.raises(ValueError, match=message):
            steady_states(model, [2.5])

    def test_jump_that_conjugates_a_coherence_is_named(self):
        # a bit-flip jump sigma_x feeds rho_10 (N_a - N_b = 1) from rho_01
        # (-1): L is not complex-linear in z, for holds and steady states alike
        basis = ProductBasis(1)
        flip = basis.lowering(0) + basis.raising(0)
        model = LindbladModel(np.diag([0.0, 1.0]), ((flip, 0.3), (basis.lowering(0), 1.0)), basis)
        message = r"^bordered generator entry \(2, 1\) feeds rho_ab with N_a > N_b from a conjugate"
        with pytest.raises(ValueError, match=message):
            steady_states(model, [0.0])
        with pytest.raises(ValueError, match=message):
            evolve(model, pure_state([1.0, 1.0]), [0.0, 0.1])

    def test_pivot_blocks_at_four_qubits(self):
        # sectors of 70, 112, 56, 16 and 2 real coordinates: the top three
        # share a pivot block; above sector 0 a complex unknown counts two
        rng = np.random.default_rng(94)
        model = build_model(random_spec(rng, 4, n_th=0.05), drives=random_drives(rng, 4))
        system = lindblad._BorderedGenerator(model)
        assert [block.shape[0] for block in system.blocks(0.0)[0]] == [70, 56, 37]
        assert [at.stop - at.start for at in system._real_at] == [70, 112, 74]
        assert system._sector_block.tolist() == [0, 1, 2, 2, 2]

    @pytest.mark.usefixtures("empty_plans")
    def test_singular_pivot_block_names_the_detuning(self, monkeypatch):
        # the pivot block of sector 1 at four qubits (56 complex unknowns, 112
        # real coordinates) reads an rcond below the floor; it is factored
        # before sector 0's
        get_lapack_funcs = lindblad.get_lapack_funcs

        def ill_conditioned(names, dtype):
            getrf, gecon, getrs, getri = get_lapack_funcs(names, dtype=dtype)

            def gecon_low(lu, anorm):
                rcond, info = gecon(lu, anorm)
                return (1e-14 if lu.shape == (56, 56) else rcond), info

            return getrf, gecon_low, getrs, getri

        monkeypatch.setattr(lindblad, "get_lapack_funcs", ill_conditioned)
        rng = np.random.default_rng(94)
        model = build_model(random_spec(rng, 4, n_th=0.05), drives=random_drives(rng, 4))
        message = (
            r"^Liouvillian null space is degenerate \(rcond 1\.000e-14 of the pivot block of sector 1 "
            r"of the trace-bordered matrix, below 1e-13\) at drive detuning 2\.5 MHz$"
        )
        with pytest.raises(DegenerateSteadyStateError, match=message):
            steady_states(model, [2.5, 4.0])


def probe_cavity(n_mirrors, n_th):
    return core.cavity_spec(
        QubitParams("M", 13.4, 0.0065, 0.21), QubitParams("P", 1.19, 0.0065, 0.191),
        n_mirrors=n_mirrors, probe_detuning=0.5, n_th=n_th,
    )


class TestRealGenerator:
    """The sector generator against the oracle's U L U^dagger, on a reached block and on all d^2."""

    @pytest.mark.parametrize("n_mirrors, n_th, drive, size", [
        (2, 0.0, 0.0, 10), (4, 0.0, 0.0, 26), (4, 0.02, 0.0, 252), (4, 0.0, 3.0, 1024),
    ])
    def test_block_matches_oracle(self, n_mirrors, n_th, drive, size):
        spec = probe_cavity(n_mirrors, n_th)
        model = build_model(spec, drives=((spec.probe_index, drive),) if drive else ())
        reached, block = reached_block(model, basis_projector(model.basis, 1 << spec.probe_index))
        assert reached.size == size
        reference = oracle_block(model, reached)
        assert np.max(np.abs(block - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("n_mirrors", [0, 2, 4])
    def test_bordered_matrix_matches_oracle(self, monkeypatch, n_mirrors):
        # the pivot blocks steady_states factors at d = 2, 8 and 32 for a
        # thermal driven spec, against the oracle Liouvillian of the model
        # with its qubits detuned by delta: in sector 0 its real generator,
        # row 0 replaced by the trace row sum_a x_aa, and above it the
        # complex entries
        q = QubitParams("Q", 13.4, 0.0065, 0.21)
        if n_mirrors:
            spec = probe_cavity(n_mirrors, 0.03)
        else:
            spec = SystemSpec(qubits=((q, Placement(0.0)),), detunings=(0.5,), n_th=0.03)
        drives = tuple((j, 2.0 + j) for j in range(spec.n_qubits))
        grid = [0.0, 1.5]
        factored = []
        blocks = lindblad._BorderedGenerator.blocks

        def recording(self, delta):
            # copies of the pivot blocks, before the block LU overwrites them,
            # and the coordinates of each: x0, then z by sector, split by block
            parts = blocks(self, delta)
            copies = [[None if block is None else block.copy() for block in part] for part in parts]
            order = np.append(self._sectors.zero, self._sectors.upper)
            members = np.split(order, np.cumsum([block.shape[0] for block in parts[0]])[:-1])
            factored.append((members, copies))
            return parts

        monkeypatch.setattr(lindblad._BorderedGenerator, "blocks", recording)
        steady_states(build_model(spec, drives=drives), grid)
        assert len(factored) == len(grid)
        d = 2**spec.n_qubits
        unitary = reach_oracle.hermitian_unitary(d).toarray()
        for delta, (members, (diagonal, lower, upper)) in zip(grid, factored):
            model = shifted_model(spec, drives, delta)
            liouvillian = dense_liouvillian(model)
            zero = members[0]
            # sector 0: U L U^dagger, row 0 replaced by the trace row; a
            # sector-1 column c of U L enters as 2 Re and -2 Im of rho_c
            real = reach_oracle.real_generator(model).toarray()[np.ix_(zero, zero)]
            real[0] = 0.0
            real[0, np.flatnonzero(zero % (d + 1) == 0)] = 1.0
            coupling = (unitary @ liouvillian)[np.ix_(zero, members[1])]
            coupling[0] = 0.0
            expected = {
                (0, 0): real,
                (0, 1): np.stack([2 * coupling.real, -2 * coupling.imag], axis=2).reshape(zero.size, -1),
                (1, 0): liouvillian[np.ix_(members[1], zero)] @ unitary.conj().T[np.ix_(zero, zero)],
            }
            # above sector 0: the complex entries of L between rho_ab with N_a > N_b
            for k in range(1, len(members)):
                for j in range(max(k - 1, 1), min(k + 2, len(members))):
                    expected[k, j] = liouvillian[np.ix_(members[k], members[j])]
            found = {(k, k): block for k, block in enumerate(diagonal)}
            found.update({(k, k - 1): block for k, block in enumerate(lower) if k})
            found.update({(k, k + 1): block for k, block in enumerate(upper) if k + 1 < len(upper)})
            assert found.keys() == expected.keys()
            scale = np.max(np.abs(liouvillian))
            for key, block in found.items():
                assert np.max(np.abs(block - expected[key])) <= 1e-13 * scale, key

    def test_one_point_peak_memory(self):
        # one d = 32 point: the 4.0 MiB of pivot-block bands and the entries;
        # summing the entries into d^4 bins, or a dense copy of the bordered
        # matrix (8 MiB) beside the bands, exceeds 12 MiB
        model = build_model(probe_cavity(4, 0.03), drives=((2, 3.0), (0, 1.0)))
        tracemalloc.start()
        try:
            steady_states(model, [0.5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20

    def test_build_forms_no_square_array(self):
        # the construction on all 1024 coordinates stays below one real
        # 1024 x 1024 array (8 MiB)
        model = build_model(probe_cavity(4, 0.03), drives=((2, 3.0), (0, 1.0)))
        terms = lindblad._kron_terms(model)
        tracemalloc.start()
        try:
            lindblad._sector_generator(*terms, np.arange(1024), model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestThermalClosedForm:
    def test_zero_drive_zero_temperature(self):
        ee, _ = thermal_qubit_steady(13.4, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert ee == 0.0

    def test_full_saturation(self):
        ee, _ = thermal_qubit_steady(1.0, 0.0, 0.0, 0.0, 1e6, 0.0)
        assert ee == pytest.approx(0.5, abs=1e-9)

    def test_thermal_population(self):
        ee, _ = thermal_qubit_steady(10.0, 0.0, 0.0, 0.001, 0.0, 0.0)
        assert ee == pytest.approx(9.98e-4, abs=1e-6)


def dephasing_spec(gphi, correlations=()):
    """Qubits with pure dephasing only: no waveguide decay, loss or coupling."""
    return SystemSpec(
        qubits=tuple(
            (QubitParams(f"Q{j}", 0.0, 0.0, g), Placement(0.0)) for j, g in enumerate(gphi)
        ),
        dephasing_correlations=correlations,
    )


class TestCorrelatedDephasing:
    def test_diagonal_matrix_gives_independent_dephasers(self):
        model = build_model(dephasing_spec([0.3, 0.3]))
        assert len(model.dissipators) == 2
        for op, rate in model.dissipators:
            assert rate == pytest.approx(0.15)
            assert any(np.allclose(np.abs(op), np.abs(model.basis.sigma_z(j))) for j in (0, 1))

    def test_fully_common_noise_is_rank_one(self):
        model = build_model(dephasing_spec([0.3, 0.3], ((0, 1, 0.3),)))
        assert len(model.dissipators) == 1
        op, rate = model.dissipators[0]
        assert rate == pytest.approx(0.3)
        basis = model.basis
        collective = (basis.sigma_z(0) + basis.sigma_z(1)) / math.sqrt(2)
        assert np.allclose(np.abs(op), np.abs(collective))

    def test_non_psd_rejected_with_eigenvalues(self):
        with pytest.raises(ValueError, match=r"eigenvalues \[-0\.2 +0\.4\]"):
            build_model(dephasing_spec([0.1, 0.1], ((0, 1, 0.3),)))

    def test_dark_rates_from_inverted_parameters(self):
        # simulate and fit the dark-state decay with the rates that invert
        # the measured (210, 366) kHz values
        gloss, gphi, gphi_c = 0.0065, 0.36275, 0.15925
        spec = pair_spec(100.0, gloss, gphi, gphi_c)
        model = build_model(spec)
        dark = dark_vector(model.basis)
        times = np.linspace(0.0, 0.25, 9)
        states = evolve(model, pure_state(dark), times)
        pops = [np.vdot(dark, s @ dark).real for s in states]
        assert log_slope_mhz(times, pops) == pytest.approx(0.210, rel=0.01)

    def test_closed_form_consistency_random_triples(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            gloss = rng.uniform(0.02, 0.2)
            gphi = rng.uniform(0.05, 0.5)
            gphi_c = gphi * rng.uniform(-0.8, 0.6)
            g1_expected, g2_expected = dark_state_rates(gloss, gphi, gphi_c)
            spec = pair_spec(100.0, gloss, gphi, gphi_c)
            model = build_model(spec)
            basis = model.basis
            dark = dark_vector(basis)
            ground = basis.ground_vector()

            t1_window = np.linspace(0.0, 0.16 / g1_expected, 8)
            states = evolve(model, pure_state(dark), t1_window)
            pops = [np.vdot(dark, s @ dark).real for s in states]
            assert log_slope_mhz(t1_window, pops) == pytest.approx(g1_expected, rel=0.01)

            t2_window = np.linspace(0.0, 0.16 / g2_expected, 8)
            superpos = (ground + dark) / math.sqrt(2)
            states = evolve(model, pure_state(superpos), t2_window)
            coherences = [abs(np.vdot(dark, s @ ground)) for s in states]
            assert log_slope_mhz(t2_window, coherences) == pytest.approx(g2_expected, rel=0.01)

    def test_common_noise_leaves_population_but_not_coherence(self):
        # equal individual and correlated rates: population decays only via
        # loss, while the ground-dark coherence still dephases at gphi
        gloss, gphi = 0.01, 0.3
        g1_dark, g2_dark = dark_state_rates(gloss, gphi, gphi)
        assert g1_dark == pytest.approx(gloss)
        assert g2_dark == pytest.approx(gloss / 2 + gphi)


class TestDarkStateRates:
    def test_uncorrelated_ordering(self):
        g1_dark, g2_dark = dark_state_rates(0.0065, 0.36275, 0.0)
        assert g1_dark - g2_dark == pytest.approx(0.0065 / 2)

    def test_inversions(self):
        # invert measured (gamma1_dark, gamma2_dark) pairs for both mirror types
        for g1_meas, g2_meas, gphi, gphi_c, ratio in (
            (0.210, 0.366, 0.36275, 0.15925, 0.439),
            (0.581, 0.838, 0.83475, 0.26025, 0.312),
        ):
            assert dark_state_rates(0.0065, gphi, gphi_c) == pytest.approx((g1_meas, g2_meas))
            assert gphi_c / gphi == pytest.approx(ratio, abs=5e-4)
