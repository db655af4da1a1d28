import dataclasses
import math
import re

import numpy as np
import pytest

from wgqed import core
from wgqed.core import Placement, QubitParams, SystemSpec


def identical_pair(g1d, gloss=0.0, gphi=0.0, sep=math.pi):
    q = QubitParams("M", g1d, gloss, gphi)
    return SystemSpec(qubits=((q, Placement(0.0)), (q, Placement(sep))))


def random_spec(rng, n=None):
    n = n or rng.integers(1, 6)
    qubits = tuple(
        (
            QubitParams(f"Q{j}", rng.uniform(0.5, 100.0), rng.uniform(0, 1.0), rng.uniform(0, 1.0)),
            Placement(rng.uniform(-4 * math.pi, 4 * math.pi)),
        )
        for j in range(n)
    )
    return SystemSpec(qubits=qubits, detunings=tuple(rng.uniform(-5, 5, n)))


class TestEffectiveHamiltonian:
    def test_pair_at_pi_separation(self):
        # correlated decay maximal (-g1d), exchange zero
        ham = core.build_effective_hamiltonian(identical_pair(13.4))
        assert ham[0, 1] == pytest.approx(0.5j * 13.4, abs=1e-12)
        assert ham[0, 0] == pytest.approx(-0.5j * 13.4, abs=1e-12)

    def test_pair_at_quarter_wavelength(self):
        # J = g1d/2, no correlated decay
        ham = core.build_effective_hamiltonian(identical_pair(13.4, sep=math.pi / 2))
        assert ham[0, 1] == pytest.approx(13.4 / 2, abs=1e-12)

    def test_centered_probe_geometry(self):
        mirror = QubitParams("M", 13.4)
        probe = QubitParams("P", 1.19)
        ham = core.build_effective_hamiltonian(core.cavity_spec(mirror, probe))
        expected_j = math.sqrt(13.4 * 1.19) / 2
        assert ham[0, 1] == pytest.approx(expected_j, abs=1e-12)
        assert ham[1, 2] == pytest.approx(expected_j, abs=1e-12)

    def test_pair_rates_stay_finite_at_any_float_rate(self):
        # sqrt(g1d_i g1d_j) took the product first, which overflows past about
        # 1.3e154 MHz: inf entries, and nan where a separation's sine is zero
        for g1d in (1e200, 1e300):
            spec = core.cavity_spec(QubitParams("M", g1d), QubitParams("P", g1d / 4))
            gamma = core.waveguide_decay_matrix(spec)
            exchange = core.exchange_matrix(spec)
            assert np.isfinite(gamma).all() and np.isfinite(exchange).all()
            assert np.diag(gamma) == pytest.approx([g1d, g1d / 4, g1d], rel=1e-15)
            assert exchange[0, 1] == pytest.approx(g1d / 4, rel=1e-15)
            assert gamma[0, 2] == pytest.approx(-g1d, rel=1e-15)

    def test_rejects_non_finite_phase(self):
        with pytest.raises(ValueError):
            Placement(math.inf)

    def test_hermiticity_split(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            spec = random_spec(rng)
            ham = core.build_effective_hamiltonian(spec)
            sym = (ham + ham.conj().T) / 2
            antisym = 1j * (ham - ham.conj().T)
            assert np.max(np.abs(sym - core.exchange_matrix(spec))) < 1e-12
            assert np.max(np.abs(antisym - core.dissipation_matrix(spec))) < 1e-12

    def test_phase_periodicity(self):
        rng = np.random.default_rng(11)
        spec = random_spec(rng, n=4)
        shifted = SystemSpec(
            qubits=tuple((q, Placement(p.phase + 2 * math.pi)) for q, p in spec.qubits),
            detunings=spec.detunings,
        )
        delta = core.build_effective_hamiltonian(spec) - core.build_effective_hamiltonian(shifted)
        assert np.max(np.abs(delta)) < 1e-12

    def test_direct_coupling_is_hermitian_only(self):
        q = QubitParams("M", 13.4)
        spec = SystemSpec(
            qubits=((q, Placement(0.0)), (q, Placement(0.0))),
            direct_couplings=((0, 1, 46.0),),
        )
        ham = core.build_effective_hamiltonian(spec)
        assert ham[0, 1].real == pytest.approx(46.0)
        # co-located pair: waveguide exchange is zero, correlated decay full
        assert ham[0, 1].imag == pytest.approx(-13.4 / 2)


class TestCollectiveModes:
    def test_pair_dark_bright_rates(self):
        modes = core.collective_modes(identical_pair(13.4))
        assert modes[0].decay_rate == pytest.approx(2 * 13.4, rel=1e-12)
        assert modes[1].decay_rate == 0.0

    def test_array_brightest_mode(self):
        # lambda0/2-spaced array of N qubits: brightest mode decays at N*g1d
        for n in (2, 3, 4, 5):
            q = QubitParams("M", 18.1)
            spec = SystemSpec(
                qubits=tuple((q, Placement(k * math.pi)) for k in range(n))
            )
            modes = core.collective_modes(spec)
            assert modes[0].decay_rate == pytest.approx(n * 18.1, rel=1e-9)

    def test_single_qubit(self):
        q = QubitParams("Q", 0.91, gamma_loss=0.081)
        spec = SystemSpec(qubits=((q, Placement(0.3)),), detunings=(2.5,))
        (mode,) = core.collective_modes(spec)
        assert mode.decay_rate == pytest.approx(0.91 + 0.081, rel=1e-12)
        assert mode.frequency_shift == pytest.approx(2.5)

    def test_decay_sum_conservation(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            spec = random_spec(rng)
            total = sum(m.decay_rate for m in core.collective_modes(spec))
            expected = sum(q.gamma_1d + q.gamma_loss for q in spec.params)
            assert total == pytest.approx(expected, abs=1e-9)

    def test_dark_mode_iff_half_wavelength(self):
        modes = core.collective_modes(identical_pair(13.4, sep=math.pi))
        assert modes[-1].decay_rate < 1e-9 * 13.4
        modes = core.collective_modes(identical_pair(13.4, sep=0.97 * math.pi))
        assert modes[-1].decay_rate > 1e-9 * 13.4


class TestAsymmetricPair:
    def test_symmetric_limit(self):
        pair = core.dark_bright_asymmetric(13.4, 13.4)
        assert np.allclose(pair.dark.amplitudes, [1 / math.sqrt(2)] * 2)
        assert pair.j_bright == 0.0

    def test_type1_mirror_asymmetry(self):
        # Q2/Q6 rates: small asymmetry, sub-percent probe decay contribution
        pair = core.dark_bright_asymmetric(16.5, 18.1, g1d_probe=1.19)
        asym = abs(16.5 - 18.1) / (16.5 + 18.1)
        assert asym == pytest.approx(0.0462, abs=5e-4)
        spurious = (2 * pair.j_bright) ** 2 / (16.5 + 18.1)
        assert spurious / 1.19 == pytest.approx(asym**2, rel=1e-12)
        assert spurious / 1.19 == pytest.approx(0.00214, abs=5e-5)

    def test_type2_mirror_asymmetry(self):
        pair = core.dark_bright_asymmetric(94.1, 99.5)
        assert abs(94.1 - 99.5) / (94.1 + 99.5) == pytest.approx(0.0279, abs=2e-4)
        assert pair.bright.decay_rate == pytest.approx(94.1 + 99.5)

    def test_dark_is_null_vector_of_decay_matrix(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g1, g2 = rng.uniform(0.1, 100.0, 2)
            pair = core.dark_bright_asymmetric(g1, g2)
            decay = np.array([[g1, -math.sqrt(g1 * g2)], [-math.sqrt(g1 * g2), g2]])
            assert np.max(np.abs(decay @ pair.dark.amplitudes)) < 1e-12 * max(g1, g2)

    def test_ratio_relation(self):
        pair = core.dark_bright_asymmetric(20.0, 5.0)
        assert pair.j_dark / pair.j_bright == pytest.approx(
            2 * math.sqrt(20.0 * 5.0) / (20.0 - 5.0), rel=1e-12
        )

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            core.dark_bright_asymmetric(0.0, 1.0)


class TestClosedFormRates:
    def test_coupling_rate_values(self):
        assert core.coupling_rate_2j(2, 13.4, 1.19) == pytest.approx(5.647, abs=5e-4)
        assert core.coupling_rate_2j(2, 96.7, 0.87) == pytest.approx(12.971, abs=5e-4)
        assert core.coupling_rate_2j(2, 0.0, 0.0) == 0.0

    def test_coupling_rate_matches_spectral_splitting(self):
        # oracle: diagonalize the lossless 3-qubit exchange matrix
        rng = np.random.default_rng(3)
        for _ in range(25):
            g1d_m, g1d_p = rng.uniform(0.5, 100.0, 2)
            mirror = QubitParams("M", g1d_m)
            probe = QubitParams("P", g1d_p)
            exchange = core.exchange_matrix(core.cavity_spec(mirror, probe))
            freqs = np.linalg.eigvalsh(exchange)
            splitting = freqs.max() - freqs.min()
            assert splitting == pytest.approx(core.coupling_rate_2j(2, g1d_m, g1d_p), abs=1e-9)

    def test_probe_dark_coupling_sums_over_dark_subspace(self):
        # four ideal mirrors leave a three-dimensional dark subspace; the
        # probe couples to it at sqrt(4 g1d g1d_p), not to one arbitrary
        # vector inside it
        rng = np.random.default_rng(8)
        for _ in range(10):
            g1d_m, g1d_p = rng.uniform(0.5, 100.0, 2)
            mirror, probe = QubitParams("M", g1d_m), QubitParams("P", g1d_p)
            four = core.probe_dark_coupling(core.cavity_spec(mirror, probe, n_mirrors=4))
            assert four == pytest.approx(core.coupling_rate_2j(4, g1d_m, g1d_p), rel=1e-9)
            two = core.probe_dark_coupling(core.cavity_spec(mirror, probe))
            assert two == pytest.approx(core.coupling_rate_2j(2, g1d_m, g1d_p), rel=1e-9)
        assert core.probe_dark_coupling(
            core.cavity_spec(QubitParams("M", 13.4), QubitParams("P", 1.19), n_mirrors=4)
        ) == pytest.approx(7.986, abs=5e-4)

    def test_swap_floor_is_the_largest_probe_exchange(self):
        # a probe on M2, pi from M1, exchanges with neither: its row over the
        # mirrors is rounding (about 1e-16 MHz) and cannot set the floor
        mirror, probe = QubitParams("M", 13.4), QubitParams("P", 1.19)
        qubits = ((mirror, Placement(-math.pi / 2)), (probe, Placement(math.pi / 2)),
                  (mirror, Placement(math.pi / 2)))
        node = SystemSpec(qubits=qubits, probe_index=1)
        assert 0.0 < core.probe_dark_coupling(node) < 1e-15
        with pytest.raises(ValueError, match=r"^probe is not coupled to the dark state"):
            core.iswap_duration_ns(node)
        # a direct coupling g to M2 fills the dark state (M1 + M2)/sqrt(2) at 2J = sqrt(2) g
        coupled = SystemSpec(qubits=qubits, probe_index=1, direct_couplings=((1, 2, 0.5),))
        two_j = core.probe_dark_coupling(coupled)
        assert two_j == pytest.approx(math.sqrt(2) * 0.5, rel=1e-12)
        assert core.iswap_duration_ns(coupled) == pytest.approx(1e3 / (2 * two_j), rel=1e-12)

    def test_cooperativity_values(self):
        assert core.cooperativity(5.647, 1.19, 0.3885, 0.210) == pytest.approx(96.2, abs=0.1)
        assert core.cooperativity(12.97, 0.87, 0.6705, 0.581) == pytest.approx(187.9, abs=0.2)
        assert core.cooperativity(0.0, 1.0, 0.1, 0.1) == 0.0

    def test_cooperativity_rejects_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            core.cooperativity(1.0, 1.0, 1.0, 0.0)

    def test_purcell_factors(self):
        assert core.purcell_factor(0.91, 0.081) == pytest.approx(11.23, abs=0.01)
        assert core.purcell_factor(94.1, 0.430) == pytest.approx(218.8, abs=0.1)
        assert core.purcell_factor(18.1, 0.185) == pytest.approx(97.8, abs=0.1)

    def test_phase_mismatch_decay(self):
        assert core.phase_mismatch_decay(13.4, math.pi) == 0.0
        # 5% mismatch on the slow mirror pair stays below its measured decay
        value = core.phase_mismatch_decay(13.4, math.pi * 1.05)
        assert value == pytest.approx(0.16498, abs=2e-5)
        assert value < 0.210
        # formula value at the 3.5% bound for the fast pair; the quadratic
        # expansion is the independent cross-check
        value = core.phase_mismatch_decay(96.7, math.pi * 1.035)
        assert value == pytest.approx(0.58398, abs=2e-5)
        assert value == pytest.approx(96.7 * (0.035 * math.pi) ** 2 / 2, rel=2e-3)

    def test_second_excitation_cooperativity_below_unity(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            g1d_p, g1d_m, gp_p, gp_m = rng.uniform(1e-3, 200.0, 4)
            value = core.second_excitation_cooperativity(g1d_p, g1d_m, gp_p, gp_m)
            assert 0.0 < value < 1.0


class TestSpecValidation:
    def test_rejects_too_many_qubits(self):
        q = QubitParams("Q", 1.0)
        with pytest.raises(ValueError):
            SystemSpec(qubits=tuple((q, Placement(0.0)) for _ in range(6)))

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            QubitParams("Q", -1.0)

    def test_rejects_bad_probe_index(self):
        q = QubitParams("Q", 1.0)
        with pytest.raises(ValueError):
            SystemSpec(qubits=((q, Placement(0.0)),), probe_index=3)

    @pytest.mark.parametrize("n_th", [-0.1, math.nan, math.inf])
    def test_rejects_bad_n_th_by_name(self, n_th):
        # a NaN n_th would build no thermal jumps: a silent zero temperature
        q = QubitParams("Q", 1.0)
        with pytest.raises(ValueError, match=r"n_th must be finite and >= 0"):
            SystemSpec(qubits=((q, Placement(0.0)),), n_th=n_th)

    @pytest.mark.parametrize("frequency", [-6.6, 0.0, math.nan, math.inf])
    def test_rejects_bad_working_frequency_by_name(self, frequency):
        # the photon flux of a power_dbm drive divides by it
        q = QubitParams("Q", 1.0)
        with pytest.raises(ValueError, match=r"working_frequency must be finite and > 0 \(GHz\)"):
            SystemSpec(qubits=((q, Placement(0.0)),), working_frequency=frequency)

    def test_rejects_self_coupling(self):
        q = QubitParams("Q", 1.0)
        with pytest.raises(ValueError):
            SystemSpec(
                qubits=((q, Placement(0.0)), (q, Placement(1.0))),
                direct_couplings=((1, 1, 10.0),),
            )

    @pytest.mark.parametrize("correlation", [0.3, -0.3])
    def test_dephasing_matrix_must_be_psd(self, correlation):
        # fully correlated noise is the edge: eigenvalues 0 and 0.6 MHz
        q = QubitParams("Q", 1.0, gamma_phi=0.3)
        qubits = ((q, Placement(0.0)), (q, Placement(1.0)))
        spec = SystemSpec(qubits=qubits, dephasing_correlations=((0, 1, correlation),))
        assert np.array_equal(core.dephasing_matrix(spec), [[0.3, correlation], [correlation, 0.3]])
        with pytest.raises(ValueError, match=r"^rate matrix is not positive semidefinite; eigenvalues"):
            SystemSpec(qubits=qubits, dephasing_correlations=((0, 1, 1.01 * correlation),))
        with pytest.raises(ValueError, match=r"^dephasing correlation must be finite$"):
            SystemSpec(qubits=qubits, dephasing_correlations=((0, 1, math.nan),))

    def test_gamma_prime_split(self):
        q = QubitParams.from_gamma_prime("Q1", 94.1, 0.430)
        assert q.gamma_prime == pytest.approx(0.430, rel=1e-12)
        assert q.gamma_loss == pytest.approx(0.0065)


def large_rate_spec(rng, gamma_1d=1e200):
    """A random 2-5 qubit spec whose first qubit decays into the waveguide at gamma_1d."""
    spec = random_spec(rng, int(rng.integers(2, 6)))
    (q, placement), *rest = spec.qubits
    return dataclasses.replace(spec, qubits=((dataclasses.replace(q, gamma_1d=gamma_1d), placement), *rest))


class TestCollectiveRates:
    @pytest.mark.parametrize("gamma_1d", [1e200, 1e250, 1e300])
    def test_decay_matrix_with_one_huge_rate_is_accepted(self, gamma_1d):
        # sqrt(g_i g_j) cos(phi_i - phi_j) is a Gram matrix of rank <= 2, PSD by
        # construction, but eigh rounds its zero eigenvalues by about eps times
        # gamma_1d, far below an absolute -1e-9
        rng = np.random.default_rng(3)
        for _ in range(10):
            gamma = core.waveguide_decay_matrix(large_rate_spec(rng, gamma_1d))
            assert np.linalg.eigvalsh(gamma).min() < -1e-9
            rates, vectors = core.collective_rates(gamma)
            # the other rates lie below 1e-12 of the scale: one jump, on qubit 0
            assert rates.tolist() == pytest.approx([np.trace(gamma)], rel=1e-12)
            assert abs(vectors[0, 0]) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e200])
    def test_bound_is_relative_to_the_largest_eigenvalue(self, scale):
        # -0.5e-9 of the scale is rounding and carries no jump; -2e-9 is rejected
        rates, vectors = core.collective_rates(np.diag([-0.5e-9 * scale, scale]))
        assert rates.tolist() == [scale] and vectors.tolist() == [[0.0], [1.0]]
        eigenvalues = np.array([-2e-9 * scale, scale])
        message = f"rate matrix is not positive semidefinite; eigenvalues {eigenvalues}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            core.collective_rates(np.diag(eigenvalues))

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"^rate matrix must be symmetric$"):
            core.collective_rates([[1.0, 0.5], [0.4, 1.0]])


class TestHoldRules:
    """The probe, dark-coupling, time-grid and representability rules, each one core function."""

    def lone_probe(self, probe_index=0):
        return SystemSpec(qubits=((QubitParams("P", 1.19), Placement(0.0)),), probe_index=probe_index)

    def test_interaction_detuning_names_a_missing_probe(self):
        # indexed the detunings with None: TypeError
        spec = self.lone_probe(None)
        with pytest.raises(ValueError, match=r"^spec has no designated probe$"):
            core.interaction_detuning(spec)
        with pytest.raises(ValueError, match=r"^spec has no designated probe$"):
            core.require_probe(spec)

    def test_interaction_detuning_names_missing_mirrors(self):
        # took the mean of no mirror detunings: a warning and NaN
        with pytest.raises(ValueError, match=r"^spec has no mirror qubits$"):
            core.interaction_detuning(self.lone_probe())
        assert core.require_probe(self.lone_probe()) == 0

    def test_time_grid_names_the_first_bad_time_in_its_unit(self):
        for unit in ("ns", "us"):
            with pytest.raises(ValueError, match=rf"^times must be finite: time nan {unit}$"):
                core.time_grid_us([0.0, 1.0, math.nan], unit)
            with pytest.raises(
                ValueError, match=rf"^times must be strictly increasing: time 1 {unit} follows 2 {unit}$"
            ):
                core.time_grid_us([0.0, 2.0, 1.0, 3.0], unit)

    def test_time_grid_rejects_a_ns_grid_that_collapses_in_us(self):
        # distinct subnormal ns times are all 0 us: the hold would not advance
        with pytest.raises(ValueError, match=r"^times must be strictly increasing: time 0 us follows 0 us$"):
            core.time_grid_us([0.0, 1e-321, 2e-321], "ns")

    def test_time_grid_is_the_ns_grid_times_1e_minus_3(self):
        taus = np.linspace(0.0, 900.0, 181)
        assert np.array_equal(core.time_grid_us(taus, "ns"), taus * 1e-3)
        assert np.array_equal(core.time_grid_us(taus, "us"), taus)

    def test_representable_spec_bound(self):
        q = QubitParams("Q", 13.4)
        qubits = ((q, Placement(0.0)), (q, Placement(math.pi)))
        SystemSpec(qubits=qubits, detunings=(core.MAX_MHZ / 2, 0.0))
        for spec_kw in (
            {"detunings": (core.MAX_MHZ, 1e-3 * core.MAX_MHZ)},
            {"direct_couplings": ((0, 1, -1e308),)},
            {"n_th": 1e307},
        ):
            with pytest.raises(ValueError, match=r"^rates, detunings and couplings add up to"):
                SystemSpec(qubits=qubits, **spec_kw)
        big = QubitParams("Q", 1e308)
        with pytest.raises(ValueError, match=r"add up to inf MHz"):
            SystemSpec(qubits=((big, Placement(0.0)), (big, Placement(math.pi))))
        spec = SystemSpec(qubits=qubits)
        core.require_representable(spec, core.MAX_MHZ / 2)
        with pytest.raises(ValueError, match=r"above the 5.72e\+305 MHz"):
            core.require_representable(spec, core.MAX_MHZ / 2, -core.MAX_MHZ / 1.9)
