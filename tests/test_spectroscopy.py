import math
import warnings

import numpy as np
import pytest
import scipy.optimize
from fit_oracle import central_differences
from sweep_oracle import pointwise_transmission, shifted_model

from wgqed import core, lindblad, spectroscopy as sp
from wgqed.core import Placement, QubitParams, SystemSpec
from wgqed.records import FitError, SpectrumScan

MIRROR1 = QubitParams.from_gamma_prime("M1", 13.4, 0.0065 + 2 * 0.210, 0.0065)
PROBE = QubitParams.from_gamma_prime("P", 1.19, 0.0065 + 2 * 0.191, 0.0065)
TWO_J = core.coupling_rate_2j(2, 13.4, 1.19)


class TestSingleQubitTransmission:
    def test_perfect_extinction(self):
        q = QubitParams("Q", 10.0)
        assert abs(sp.single_qubit_transmission(q)) == pytest.approx(0.0, abs=1e-12)

    def test_fast_mirror_extinction_floor(self):
        q = QubitParams.from_gamma_prime("Q1", 94.1, 0.430)
        t0 = sp.single_qubit_transmission(q)
        assert abs(t0) ** 2 == pytest.approx(2.07e-5, rel=0.005)

    def test_probe_qubit_transmission(self):
        q = QubitParams.from_gamma_prime("Q4", 0.91, 0.081)
        t0 = sp.single_qubit_transmission(q)
        assert abs(t0) == pytest.approx(0.0817, abs=2e-4)
        gprime = abs(t0) / (1 - abs(t0)) * 0.91
        assert core.purcell_factor(0.91, gprime) == pytest.approx(11.2, abs=0.1)

    def test_resonant_value_depends_only_on_gamma_prime(self):
        for split in (0.0, 0.3, 1.0):
            q = QubitParams("Q", 18.1, gamma_loss=0.185 * (1 - split), gamma_phi=0.185 * split / 2)
            assert abs(sp.single_qubit_transmission(q)) == pytest.approx(
                0.185 / (18.1 + 0.185), rel=1e-12
            )

    def test_far_detuned_transparency(self):
        q = QubitParams.from_gamma_prime("Q6", 18.1, 0.185)
        linewidth = (18.1 + 0.185) / 2
        t = sp.single_qubit_transmission(q, delta=50 * linewidth)
        assert abs(t) == pytest.approx(1.0, abs=1e-3)


class TestMultiQubitTransmission:
    def test_matches_single_qubit_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            g1d = rng.uniform(0.5, 50.0)
            gloss = rng.uniform(0.0, 0.5)
            gphi = rng.uniform(0.0, 0.5)
            omega = rng.uniform(0.001, 0.05)
            delta = rng.uniform(-5.0, 5.0)
            q = QubitParams("Q", g1d, gloss, gphi)
            spec = SystemSpec(qubits=((q, Placement(rng.uniform(0, 6))),))
            scan = sp.multi_qubit_transmission(
                spec, sp.DriveSpec(omega_rabi=omega), np.array([delta])
            )
            expected = sp.single_qubit_transmission(q, 0.0, omega, delta)
            assert abs(scan.t_complex[0] - expected) < 1e-9

    def test_pair_bright_state_linewidth(self):
        spec = core.mirror_pair_spec(MIRROR1)
        scan = sp.multi_qubit_transmission(
            spec, sp.DriveSpec(omega_rabi=0.02), np.linspace(-60, 60, 241)
        )
        _, g1d_fit, _, _ = sp.lorentzian_fit(scan)
        assert g1d_fit == pytest.approx(2 * 13.4, rel=0.01)

    def test_cavity_fano_splitting(self):
        spec = core.cavity_spec(MIRROR1, PROBE)
        scan = sp.multi_qubit_transmission(
            spec, sp.DriveSpec(omega_rabi=0.02), np.linspace(-10, 10, 1001)
        )
        # two transparency-like features inside the broad dip
        assert sp.peak_splitting(scan) > TWO_J
        assert sp.peak_splitting(scan, scattered=True) == pytest.approx(TWO_J, rel=0.05)

    def test_fano_splitting_tracks_generalized_rabi(self):
        for detuning in (0.0, TWO_J / 4, TWO_J / 2):
            spec = core.cavity_spec(MIRROR1, PROBE, probe_detuning=detuning)
            scan = sp.multi_qubit_transmission(
                spec, sp.DriveSpec(omega_rabi=0.02), np.linspace(-10, 10, 2001)
            )
            expected = math.sqrt(TWO_J**2 + detuning**2)
            assert sp.peak_splitting(scan, scattered=True) == pytest.approx(expected, rel=0.05)

    def test_xy_drive_resolves_polaritons_without_background(self):
        spec = core.cavity_spec(MIRROR1, PROBE)
        drive = sp.DriveSpec(port="xy", xy_qubit=spec.probe_index, omega_rabi=0.05)
        scan = sp.multi_qubit_transmission(spec, drive, np.linspace(-10, 10, 1001))
        assert sp.peak_splitting(scan) == pytest.approx(TWO_J, rel=0.05)
        # no broad bright-state dip: the response dies off over a few 2J,
        # far faster than the 27 MHz bright linewidth would allow
        wings = np.abs(scan.t_complex[np.abs(scan.detunings) > 8.0])
        assert wings.max() < 0.2 * np.abs(scan.t_complex).max()

    def test_passivity_random_specs(self):
        import warnings

        rng = np.random.default_rng(21)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for _ in range(10):
                n = int(rng.integers(1, 4))
                qubits = tuple(
                    (
                        QubitParams(f"Q{j}", rng.uniform(0.5, 30), rng.uniform(0, 0.3), rng.uniform(0, 0.3)),
                        Placement(rng.uniform(0, 7)),
                    )
                    for j in range(n)
                )
                spec = SystemSpec(qubits=qubits, detunings=tuple(rng.uniform(-3, 3, n)))
                scan = sp.multi_qubit_transmission(
                    spec, sp.DriveSpec(), np.linspace(-30, 30, 31)
                )
                assert np.max(scan.abs_t) <= 1.0 + 1e-9

    def test_nan_transmission_names_the_point(self, monkeypatch):
        # a NaN state must fail the passivity check, not pass it as |t| <= 1
        steady_states = lindblad.steady_states

        def nan_at_second_point(model, detunings):
            states = steady_states(model, detunings)
            states[1] = np.nan
            return states

        monkeypatch.setattr(lindblad, "steady_states", nan_at_second_point)
        spec = core.mirror_pair_spec(MIRROR1)
        with pytest.raises(RuntimeError, match=r"non-passive .* \|t\| = nan at drive detuning 0 MHz"):
            sp.multi_qubit_transmission(spec, sp.DriveSpec(omega_rabi=0.02), [-5.0, 0.0, 5.0])

    def test_transparency_far_from_resonance(self):
        spec = core.mirror_pair_spec(MIRROR1)
        linewidth = 2 * 13.4
        scan = sp.multi_qubit_transmission(
            spec, sp.DriveSpec(omega_rabi=0.02), np.array([-50.0 * linewidth, 50.0 * linewidth])
        )
        assert np.all(np.abs(scan.abs_t - 1.0) < 1e-3)


class TestSweepAgainstPointwise:
    """The one-assembly sweep against one model build and solve per point."""

    def random_spec(self, rng, n, n_th=0.0):
        qubits = tuple(
            (
                QubitParams(f"Q{j}", rng.uniform(0.5, 30), rng.uniform(0, 0.3), rng.uniform(0, 0.3)),
                Placement(rng.uniform(0, 7)),
            )
            for j in range(n)
        )
        corr = ((0, n - 1, 0.5 * min(q.gamma_phi for q, _ in qubits)),) if n > 1 else ()
        couplings = ((0, n - 1, rng.uniform(-2, 2)),) if n > 1 else ()
        return SystemSpec(
            qubits=qubits,
            detunings=tuple(rng.uniform(-3, 3, n)),
            n_th=n_th,
            dephasing_correlations=corr,
            direct_couplings=couplings,
        )

    def test_waveguide_port(self):
        rng = np.random.default_rng(33)
        grid = np.linspace(-20, 20, 9)
        specs = [core.cavity_spec(MIRROR1, PROBE, probe_detuning=1.0), core.mirror_pair_spec(MIRROR1)]
        specs += [self.random_spec(rng, n, n_th) for n, n_th in ((1, 0.0), (2, 0.05), (3, 0.1))]
        for spec in specs:
            for drive in (sp.DriveSpec(), sp.DriveSpec(omega_rabi=3.0)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    scan = sp.multi_qubit_transmission(spec, drive, grid)
                reference = pointwise_transmission(spec, drive, grid)
                assert np.max(np.abs(scan.t_complex - reference)) < 1e-12

    def test_xy_port(self):
        rng = np.random.default_rng(34)
        grid = np.linspace(-10, 10, 9)
        specs = [core.cavity_spec(MIRROR1, PROBE), self.random_spec(rng, 3, 0.05)]
        for spec in specs:
            for omega in (0.05, 2.0):
                drive = sp.DriveSpec(port="xy", xy_qubit=1, omega_rabi=omega)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    scan = sp.multi_qubit_transmission(spec, drive, grid)
                reference = pointwise_transmission(spec, drive, grid)
                assert np.max(np.abs(scan.t_complex - reference)) < 1e-12

    def test_driven_steady_state_at_nonzero_detuning(self):
        rng = np.random.default_rng(35)
        cases = [
            (self.random_spec(rng, 1), sp.DriveSpec(omega_rabi=2.0), 0.7),
            (self.random_spec(rng, 2, 0.05), sp.DriveSpec(), -1.3),
            (core.cavity_spec(MIRROR1, PROBE, probe_detuning=1.0), sp.DriveSpec(omega_rabi=0.5), 2.1),
            (self.random_spec(rng, 3), sp.DriveSpec(port="xy", xy_qubit=1, omega_rabi=1.5), -0.9),
        ]
        for spec, drive, offset in cases:
            amplitudes, _ = sp._drive_amplitudes(spec, drive)
            drives = tuple((j, amplitudes[j] / (2 * math.pi)) for j in range(spec.n_qubits))
            reference = lindblad.steady_states(shifted_model(spec, drives, offset), [0.0])[0]
            rho = sp.driven_steady_state(spec, drive, offset)
            assert np.max(np.abs(rho - reference)) < 1e-12

    def test_readout_is_one_dot_product_per_point(self):
        # a stacked states @ emission sums in another order and differs in
        # the last bits at most of these 201 points
        spec = core.cavity_spec(MIRROR1, PROBE)
        drive = sp.DriveSpec(omega_rabi=0.02)
        grid = np.linspace(-10, 10, 201)
        scan = sp.multi_qubit_transmission(spec, drive, grid)
        amplitudes, a_in = sp._drive_amplitudes(spec, drive)
        model = sp._driven_model(spec, amplitudes)
        states = lindblad.steady_states(model, grid)
        assert states.shape == (201, 8, 8)
        emission = sp._emission_functional(spec, model.basis)
        emitted = np.array([emission @ rho.reshape(-1) for rho in states])
        assert np.array_equal(scan.t_complex, 1.0 + emitted / a_in)

    def test_lossless_pair_sweep_is_degenerate(self):
        mirror = QubitParams("M", 13.4)
        spec = core.mirror_pair_spec(mirror)
        with pytest.raises(lindblad.DegenerateSteadyStateError):
            sp.multi_qubit_transmission(spec, sp.DriveSpec(omega_rabi=0.02), np.linspace(-5, 5, 5))


class TestDriveSpec:
    def test_rejects_both_strengths(self):
        with pytest.raises(ValueError):
            sp.DriveSpec(power_dbm=-150.0, omega_rabi=0.1)

    def test_xy_requires_qubit_and_rabi(self):
        with pytest.raises(ValueError):
            sp.DriveSpec(port="xy")
        with pytest.raises(ValueError):
            sp.DriveSpec(port="xy", xy_qubit=0)

    def test_power_to_rabi_conversion(self):
        # a -150 dBm tone drives the qubit at omega = sqrt(2 g1d P / hbar w)
        from scipy.constants import hbar

        q = QubitParams.from_gamma_prime("Q1", 94.1, 0.430)
        spec = SystemSpec(qubits=((q, Placement(0.0)),), working_frequency=6.052)
        scan = sp.multi_qubit_transmission(
            spec, sp.DriveSpec(power_dbm=-150.0), np.array([0.0])
        )
        power_w = 1e-3 * 10 ** (-150.0 / 10.0)
        omega_mhz = math.sqrt(
            2.0 * (2 * math.pi * 94.1e6) * power_w / (hbar * 2 * math.pi * 6.052e9)
        ) / (2 * math.pi * 1e6)
        expected = sp.single_qubit_transmission(q, omega_rabi=omega_mhz)
        assert abs(scan.t_complex[0] - expected) < 1e-9


class TestShelving:
    def test_fully_shelved_is_transparent(self):
        for delta in (0.0, 5.0, -20.0):
            assert sp.shelved_transmission(13.4, 27.2, 1.0, delta) == 1.0

    def test_unshelved_reduces_to_bare_pair(self):
        gamma_b = 2 * 13.4 + MIRROR1.gamma_prime
        t0 = sp.shelved_transmission(13.4, gamma_b, 0.0, 0.0)
        assert abs(t0) ** 2 < 3e-4

    def test_transparency_jump_at_measured_population(self):
        gamma_b = 2 * 13.4 + MIRROR1.gamma_prime
        jump = abs(sp.shelved_transmission(13.4, gamma_b, 0.58, 0.0)) ** 2
        assert jump == pytest.approx(0.344, abs=0.01)

    def test_full_model_agrees_to_drive_squared(self):
        mirror = QubitParams("M", 13.4)
        x_ratio = 0.15
        for rho_dd in (0.0, 0.3, 0.58):
            for delta in (0.0, 3.0):
                full = sp.shelved_pair_quasi_steady(mirror, rho_dd, x_ratio, delta)
                reduced = sp.shelved_transmission(13.4, 2 * 13.4, rho_dd, delta)
                assert abs(full - reduced) < x_ratio**2

    def test_rejects_bad_population(self):
        with pytest.raises(ValueError):
            sp.shelved_transmission(13.4, 27.0, 1.2, 0.0)


class TestPowerAndThermalBounds:
    def test_saturation_bound_reference_point(self):
        watts, dbm = sp.saturation_power_bound(100.0, 0.150, 6.0)
        assert watts == pytest.approx(9.37e-19, rel=0.005)
        assert dbm == pytest.approx(-150.3, abs=0.1)

    def test_saturation_bound_linearity(self):
        w1, _ = sp.saturation_power_bound(100.0, 0.150, 6.0)
        w2, _ = sp.saturation_power_bound(100.0, 0.300, 6.0)
        assert w2 == pytest.approx(2 * w1, rel=1e-12)

    def test_saturation_bound_probe_qubit(self):
        watts, _ = sp.saturation_power_bound(0.91, 0.081, 6.638)
        assert watts == pytest.approx(5.6e-19, rel=0.01)

    def test_thermal_chain(self):
        t0 = math.sqrt(2.1e-5)
        n_th = sp.thermal_bound(t0)
        assert n_th == pytest.approx(1.15e-3, rel=0.005)
        assert sp.waveguide_temperature(6.052, n_th) == pytest.approx(0.0429, rel=0.005)
        assert sp.waveguide_temperature(6.052, 1.1e-3) == pytest.approx(0.0426, rel=0.005)

    def test_thermal_bound_before_attenuator(self):
        assert sp.thermal_bound(math.sqrt(1.7e-4)) == pytest.approx(3.26e-3, rel=0.005)


class TestPulseBandwidthAverage:
    def narrow_dip_scan(self):
        q = QubitParams.from_gamma_prime("Q1", 94.1, 0.430)
        grid = np.linspace(-40, 40, 4001)
        t = np.array([sp.single_qubit_transmission(q, delta=d) for d in grid])
        return SpectrumScan(grid, t)

    def test_rectangular_pulse_bandwidth(self):
        scan = self.narrow_dip_scan()
        averaged = sp.pulse_bandwidth_average(scan, 260.0)
        assert averaged.metadata["bandwidth_mhz"] == pytest.approx(3.85, abs=0.01)

    def test_infinite_duration_is_identity(self):
        scan = self.narrow_dip_scan()
        averaged = sp.pulse_bandwidth_average(scan, 1e9)
        assert np.max(np.abs(averaged.abs_t_sq - scan.abs_t_sq)) < 1e-10

    def test_averaging_fills_in_narrow_extinction(self):
        scan = self.narrow_dip_scan()
        averaged = sp.pulse_bandwidth_average(scan, 260.0)
        assert averaged.abs_t_sq.min() > scan.abs_t_sq.min()

    def test_rejects_narrow_grid(self):
        q = QubitParams.from_gamma_prime("Q1", 94.1, 0.430)
        grid = np.linspace(-4, 4, 101)
        t = np.array([sp.single_qubit_transmission(q, delta=d) for d in grid])
        with pytest.raises(ValueError):
            sp.pulse_bandwidth_average(SpectrumScan(grid, t), 260.0)


class TestLorentzianFit:
    def synthetic_scan(self, g1d, gprime, f0=0.0, noise=0.0, seed=0):
        q = QubitParams.from_gamma_prime("Q", g1d, gprime)
        grid = np.linspace(f0 - 8 * g1d, f0 + 8 * g1d, 801)
        t = np.array([sp.single_qubit_transmission(q, delta=d - f0) for d in grid])
        amp = np.abs(t)
        if noise:
            amp = amp + noise * np.random.default_rng(seed).normal(size=amp.size)
        return SpectrumScan(grid, amp.astype(complex))

    def test_noiseless_roundtrip(self):
        scan = self.synthetic_scan(18.1, 0.185, f0=1.3)
        f0, g1d, gprime, residual = sp.lorentzian_fit(scan)
        assert f0 == pytest.approx(1.3, abs=1e-3)
        assert g1d == pytest.approx(18.1, rel=1e-3)
        assert gprime == pytest.approx(0.185, rel=1e-3)
        assert residual < 1e-6

    def test_noisy_recovery(self):
        scan = self.synthetic_scan(18.1, 0.185, noise=0.01, seed=4)
        _, g1d, _, _ = sp.lorentzian_fit(scan)
        assert g1d == pytest.approx(18.1, rel=0.02)

    def test_descending_scan_fits_as_ascending(self):
        scan = self.synthetic_scan(18.1, 0.185, f0=1.3, noise=0.01, seed=4)
        descending = SpectrumScan(scan.detunings[::-1], scan.t_complex[::-1])
        assert sp.lorentzian_fit(descending) == sp.lorentzian_fit(scan)

    def test_flat_scan_rejected(self):
        grid = np.linspace(-10, 10, 101)
        with pytest.raises(FitError, match="no resonance"):
            sp.lorentzian_fit(SpectrumScan(grid, np.ones(101, dtype=complex)))

    def test_unbounded_lm_with_exact_jacobian(self, monkeypatch):
        calls = []
        real_leastsq = scipy.optimize.leastsq

        def recording_leastsq(func, x0, **kwargs):
            calls.append((func, kwargs))
            return real_leastsq(func, x0, **kwargs)

        monkeypatch.setattr(scipy.optimize, "leastsq", recording_leastsq)
        sp.lorentzian_fit(self.synthetic_scan(18.1, 0.185, f0=1.3))
        ((fun, kwargs),) = calls
        assert "bounds" not in kwargs
        assert kwargs["full_output"] and not kwargs.get("col_deriv", 0)
        assert kwargs["maxfev"] == 2000
        assert kwargs["xtol"] == kwargs["ftol"] == kwargs["gtol"] == 1e-8
        rng = np.random.default_rng(5)
        for _ in range(10):
            params = [rng.uniform(-5, 5), rng.uniform(1, 30), rng.uniform(0.05, 2)]
            exact = kwargs["Dfun"](params)
            numeric = central_differences(fun, params)
            column_error = np.linalg.norm(exact - numeric, axis=0)
            assert np.all(column_error <= 1e-6 * np.linalg.norm(exact, axis=0))

    @pytest.mark.parametrize(
        "index, value",
        [(0, 200.0), (0, -200.0), (1, -18.1), (2, -0.185)],
        ids=["f0_above_scan", "f0_below_scan", "negative_gamma_1d", "negative_gamma_prime"],
    )
    def test_unphysical_solution_rejected(self, monkeypatch, index, value):
        real_leastsq = scipy.optimize.leastsq

        def moved_leastsq(*args, **kwargs):
            x, *rest = real_leastsq(*args, **kwargs)
            x[index] = value
            return (x, *rest)

        monkeypatch.setattr(scipy.optimize, "leastsq", moved_leastsq)
        with pytest.raises(FitError, match="physical region"):
            sp.lorentzian_fit(self.synthetic_scan(18.1, 0.185, f0=1.3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_scan_rejected_by_name(self, bad):
        scan = self.synthetic_scan(18.1, 0.185, f0=1.3)
        amplitude = scan.abs_t.copy()
        amplitude[7] = bad
        with pytest.raises(FitError, match="non-finite"):
            sp.lorentzian_fit(SpectrumScan(scan.detunings, amplitude.astype(complex)))
        detunings = scan.detunings.copy()
        detunings[7] = bad
        with pytest.raises(FitError, match="non-finite"):
            sp.lorentzian_fit(SpectrumScan(detunings, scan.t_complex))
