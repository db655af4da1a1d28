import json
import math
import re
import warnings
from importlib.resources import files

import numpy as np
import pytest
import scipy.optimize
from fit_oracle import central_differences
from shelve_oracle import shelved_pair_quasi_steady
from sweep_oracle import pointwise_transmission, shifted_model
from weak_drive_oracle import weak_drive_transmission

from wgqed import cli, core, lindblad, spectroscopy as sp
from wgqed.core import Placement, QubitParams, SystemSpec
from wgqed.records import FitError, SpectrumScan

MIRROR1 = QubitParams.from_gamma_prime("M1", 13.4, 0.0065 + 2 * 0.210, 0.0065)
PROBE = QubitParams.from_gamma_prime("P", 1.19, 0.0065 + 2 * 0.191, 0.0065)
TWO_J = core.coupling_rate_2j(2, 13.4, 1.19)


def count_factorizations(monkeypatch) -> list:
    """Make every factorization of M(delta), one block LU over its sectors, append delta to the list returned."""
    factored = []
    factor = lindblad._BorderedGenerator._factor

    def counted(self, delta):
        factored.append(delta)
        return factor(self, delta)

    monkeypatch.setattr(lindblad._BorderedGenerator, "_factor", counted)
    return factored


def patch_solutions(monkeypatch, path, change):
    """Make the solve of a steady-state path ("pointwise" or "pencil") pass (nodes, x) to change.

    change may write to x, the real solutions, one column per node, before
    the checks see them.
    """
    solve = getattr(lindblad._BorderedGenerator, path)

    def patched(self, nodes):
        x = solve(self, nodes)
        change(nodes, x)
        return x

    monkeypatch.setattr(lindblad._BorderedGenerator, path, patched)


def per_point_readout(spec, drive, grid):
    """Waveguide t from one exact steady state per call and grid point, each read as a stack of one."""
    amplitudes, a_in = sp.drive_amplitudes(spec, drive)
    model = sp._driven_model(spec, amplitudes)
    emission = sp._emission_functional(spec, model.basis)
    alone = [(lindblad.steady_states(model, [delta]).reshape(1, -1) * emission).sum(axis=1) for delta in grid]
    return 1.0 + np.concatenate(alone) / a_in


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

    @pytest.mark.parametrize("delta", [0.0, 2.0])
    def test_qubit_without_population_decay_transmits_everything(self, delta):
        # gamma1_th * gamma2_th was a divisor: ZeroDivisionError
        q = QubitParams("q", 0.0, 0.0, 0.5)
        assert sp.single_qubit_transmission(q, omega_rabi=1.0, delta=delta) == 1.0

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

    def test_descending_scan_gives_the_same_splitting(self):
        spec = core.cavity_spec(MIRROR1, PROBE)
        scan = sp.multi_qubit_transmission(
            spec, sp.DriveSpec(omega_rabi=0.02), np.linspace(-10, 10, 1001)
        )
        descending = SpectrumScan(scan.detunings[::-1], scan.t_complex[::-1])
        for scattered in (False, True):
            splitting = sp.peak_splitting(scan, scattered=scattered)
            assert splitting > 0
            assert sp.peak_splitting(descending, scattered=scattered) == splitting

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

    def test_peaks_match_scipy_find_peaks(self):
        # random, plateau-bearing (repeated and few-valued) arrays and ones
        # holding NaN, each forward and reversed: the same peaks, flat tops
        # at their middle, and the same prominences bit for bit
        from scipy.signal import find_peaks

        rng = np.random.default_rng(37)
        arrays = [np.array([]), np.array([1.0]), np.array([0.0, 1.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0])]
        for _ in range(100):
            n = int(rng.integers(3, 80))
            arrays += [
                rng.normal(size=n),
                np.repeat(rng.normal(size=n), rng.integers(1, 4, size=n)),
                rng.integers(0, 4, size=n).astype(float),
                np.where(rng.random(n) < 0.1, np.nan, rng.integers(0, 4, size=n)),
            ]
        for x in arrays:
            for y in (x, x[::-1].copy()):
                for minimum in (1e-8, 0.5):
                    peaks, properties = find_peaks(y, prominence=minimum)
                    ours, prominences = sp._prominent_peaks(y, minimum)
                    assert np.array_equal(ours, peaks)
                    assert np.array_equal(prominences, properties["prominences"])

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
        # a NaN state must fail a check by name, not pass the passivity check as |t| <= 1
        def nan_at_second_point(_, x):
            x[:, 1] = np.nan

        patch_solutions(monkeypatch, "pointwise", nan_at_second_point)
        spec = core.mirror_pair_spec(MIRROR1)
        with pytest.raises(ValueError, match=r"^trace nan differs from 1 beyond 1e-9 at drive detuning 0 MHz$"):
            sp.multi_qubit_transmission(spec, sp.DriveSpec(omega_rabi=0.02), [-5.0, 0.0, 5.0])

    def test_non_passive_transmission_names_the_point(self, monkeypatch):
        # checked states read through a tripled functional: |t| > 1, first at -500 MHz in grid order
        emission_functional = sp._emission_functional
        monkeypatch.setattr(sp, "_emission_functional", lambda spec, basis: 3.0 * emission_functional(spec, basis))
        spec = core.mirror_pair_spec(MIRROR1)
        with pytest.raises(RuntimeError, match=r"^non-passive transmission amplitude \|t\| = 1\.00104 at drive "
                           r"detuning -500 MHz; check the drive model$"):
            sp.multi_qubit_transmission(spec, sp.DriveSpec(omega_rabi=0.02), [-500.0, -5.0, 0.0, 5.0])

    def test_non_finite_readout_of_checked_states_is_named(self, monkeypatch):
        # states that pass every check but read a NaN t stop the sweep at the point
        monkeypatch.setattr(sp, "_emission_functional", lambda spec, basis: np.full(basis.dimension**2, np.nan))
        spec = core.mirror_pair_spec(MIRROR1)
        with pytest.raises(RuntimeError, match=r"^transmission t = .* is not finite at drive detuning -30 MHz$"):
            sp.multi_qubit_transmission(spec, sp.DriveSpec(omega_rabi=0.02), np.linspace(-30, 30, 61))

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
            amplitudes, _ = sp.drive_amplitudes(spec, drive)
            drives = tuple((j, amplitudes[j] / (2 * math.pi)) for j in range(spec.n_qubits))
            reference = lindblad.steady_states(shifted_model(spec, drives, offset), [0.0])[0]
            rho = sp.driven_steady_state(spec, drive, offset)
            assert np.max(np.abs(rho - reference)) < 1e-12

    def test_readout_is_one_dot_product_per_point(self):
        # a stacked states @ emission sums in another order and differs in
        # the last bits at most of these 201 points; every point must read
        # the sweep's own states as each alone, bit for bit, and match the
        # per-point solve
        spec = core.cavity_spec(MIRROR1, PROBE)
        drive = sp.DriveSpec(omega_rabi=0.02)
        grid = np.linspace(-10, 10, 201)
        scan = sp.multi_qubit_transmission(spec, drive, grid)
        amplitudes, a_in = sp.drive_amplitudes(spec, drive)
        model = sp._driven_model(spec, amplitudes)
        emission = sp._emission_functional(spec, model.basis)
        states = lindblad.steady_states(model, grid)
        alone = np.concatenate([(rho.reshape(1, -1) * emission).sum(axis=1) for rho in states])
        assert np.array_equal(scan.t_complex, 1.0 + alone / a_in)
        reference = per_point_readout(spec, drive, grid)
        assert np.max(np.abs(scan.t_complex - reference)) < 1e-12 * max(1.0, np.abs(reference).max())

    def test_residual_failure_at_a_pencil_node_names_it(self, monkeypatch):
        # the residual check runs at every node of the pencil, not only at its reference
        grid = np.linspace(-10, 10, 201)

        def perturb_node(nodes, x):
            x[:, 170] += 1e-3

        patch_solutions(monkeypatch, "pencil", perturb_node)
        spec = core.cavity_spec(MIRROR1, PROBE)
        node = re.escape(f"{grid[170]:g}")
        with pytest.raises(lindblad.DegenerateSteadyStateError, match=rf"^steady-state residual .* at drive detuning {node} MHz$"):
            sp.multi_qubit_transmission(spec, sp.DriveSpec(omega_rabi=0.02), grid)

    def test_lossless_pair_sweep_is_degenerate(self):
        # point by point the first node is named; on the pencil, its reference node
        mirror = QubitParams("M", 13.4)
        spec = core.mirror_pair_spec(mirror)
        for grid, node in ((np.linspace(-5, 5, 5), -5), (np.linspace(-20, 40, 61), 10)):
            with pytest.raises(lindblad.DegenerateSteadyStateError, match=rf"rcond .* at drive detuning {node} MHz$"):
                sp.multi_qubit_transmission(spec, sp.DriveSpec(omega_rabi=0.02), grid)


def loguniform(rng, low, high):
    return math.exp(rng.uniform(math.log(low), math.log(high)))


class TestInterpolatedSweep:
    """Sweeps on both steady-state paths against the dense per-point oracle."""

    @staticmethod
    def assert_matches_pointwise(spec, drive, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            scan = sp.multi_qubit_transmission(spec, drive, grid)
        reference = pointwise_transmission(spec, drive, grid)
        error = np.max(np.abs(scan.t_complex - reference))
        assert error < 1e-12 * max(1.0, np.abs(reference).max())

    @staticmethod
    def random_case(rng, n, port, omega, points):
        # half the arrays sit on a lambda/4 or lambda/2 lattice, where
        # modes with nearly no radiative decay form
        lattice = rng.random() < 0.5
        qubits = tuple(
            (
                QubitParams(
                    f"Q{j}", rng.uniform(0.5, 30), loguniform(rng, 1e-7, 0.3),
                    0.0 if rng.random() < 0.3 else loguniform(rng, 1e-7, 0.3),
                ),
                Placement(math.pi / 2 * j * rng.integers(1, 3) if lattice else rng.uniform(0, 7)),
            )
            for j in range(n)
        )
        spec = SystemSpec(
            qubits=qubits,
            detunings=tuple(rng.uniform(-3, 3, n)),
            n_th=0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.05),
        )
        if port == "xy":
            drive = sp.DriveSpec(port="xy", xy_qubit=int(rng.integers(n)), omega_rabi=omega)
        else:
            drive = sp.DriveSpec(omega_rabi=omega)
        span = rng.uniform(5.0, 60.0)
        return spec, drive, np.linspace(-span, span * rng.uniform(0.5, 1.0), points)

    @pytest.mark.parametrize("n, port, omega", [
        (1, "waveguide", 0.001), (1, "waveguide", 5.0), (2, "waveguide", 0.02), (2, "xy", 3.0),
        (3, "waveguide", 2.0), (3, "xy", 0.05), (4, "waveguide", 0.01), (4, "xy", 5.0),
    ])
    def test_random_specs(self, n, port, omega):
        rng = np.random.default_rng(40 + n)
        for _ in range(2 if n < 4 else 1):
            points = int(rng.integers(101, 302))
            self.assert_matches_pointwise(*self.random_case(rng, n, port, omega, points))

    def test_five_qubits(self):
        rng = np.random.default_rng(45)
        self.assert_matches_pointwise(*self.random_case(rng, 5, "waveguide", 0.3, 61))

    def test_narrow_dark_resonance(self):
        # a co-located pair with direct coupling g: the antisymmetric mode at
        # -g radiates only through a 1e-6 MHz detuning asymmetry, so it is
        # 1e-7 MHz wide and shows at the grid point on it alone (3e-8 in t);
        # the seed at the mode's centre is what solves that point
        q = QubitParams("M", 13.4, 1e-7, 0.0)
        spec = SystemSpec(
            qubits=((q, Placement(0.0)), (q, Placement(0.0))),
            detunings=(1e-6, -1e-6),
            direct_couplings=((0, 1, 24.0),),
        )
        self.assert_matches_pointwise(spec, sp.DriveSpec(omega_rabi=0.02), np.linspace(-60, 60, 301))

    @pytest.mark.parametrize(
        "name", ["fig1c_q1", "fig1c_q4", "fig1c_q6", "fig2a_pair", "fig2c_cavity", "fig2e_xy"]
    )
    def test_bundled_spectrum_configs(self, name):
        config = json.loads(files("wgqed").joinpath(f"configs/{name}.cfg").read_text())
        experiment, spec, params, drive = cli._checked(config)
        grid = cli._grid(params)
        assert 801 <= grid.size <= 1201
        self.assert_matches_pointwise(spec, drive, grid)

    def test_seed_sized_grid_is_the_exact_readout(self):
        # a grid solved point by point reads each state exactly as one solve of its own
        spec = core.cavity_spec(MIRROR1, PROBE)
        drive = sp.DriveSpec(omega_rabi=0.02)
        grid = np.linspace(-10, 10, 5)
        scan = sp.multi_qubit_transmission(spec, drive, grid)
        assert np.array_equal(scan.t_complex, per_point_readout(spec, drive, grid))

    @pytest.mark.parametrize("points", [lindblad.POINTWISE_MAX, lindblad.POINTWISE_MAX + 1])
    def test_dispatch_edge_matches_the_oracle(self, monkeypatch, points):
        # K distinct points take one LU each, K + 1 the one LU of the pencil
        spec = core.cavity_spec(MIRROR1, PROBE, probe_detuning=1.0)
        drive = sp.DriveSpec(omega_rabi=0.2)
        grid = np.linspace(-12, 9, points)
        with monkeypatch.context() as patch:
            factored = count_factorizations(patch)
            scan = sp.multi_qubit_transmission(spec, drive, grid)
        assert len(factored) == (points if points <= lindblad.POINTWISE_MAX else 1)
        reference = pointwise_transmission(spec, drive, grid)
        assert np.max(np.abs(scan.t_complex - reference)) < 1e-12 * max(1.0, np.abs(reference).max())

    def test_unsorted_grid_with_repeats(self, monkeypatch):
        # the same t as the per-point sweep, in grid order, from one LU; a
        # repeated detuning reads the same state
        spec = core.cavity_spec(MIRROR1, PROBE)
        drive = sp.DriveSpec(omega_rabi=0.02)
        rng = np.random.default_rng(46)
        grid = np.concatenate([[1.0, -1.0, 1.0], rng.permutation(np.linspace(-10, 10, 151)), [-1.0]])
        with monkeypatch.context() as patch:
            factored = count_factorizations(patch)
            scan = sp.multi_qubit_transmission(spec, drive, grid)
        assert len(factored) == 1
        assert scan.t_complex[0] == scan.t_complex[2] and scan.t_complex[1] == scan.t_complex[-1]
        reference = pointwise_transmission(spec, drive, grid)
        assert np.max(np.abs(scan.t_complex - reference)) < 1e-12 * max(1.0, np.abs(reference).max())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_detuning_is_named(self, bad):
        # rejected before any solve, on both paths
        spec = core.mirror_pair_spec(MIRROR1)
        for points in (lindblad.POINTWISE_MAX, 61):
            grid = np.linspace(-30, 30, points)
            grid[20] = bad
            with pytest.raises(ValueError, match=rf"^drive detuning {bad:g} MHz is not finite$"):
                sp.multi_qubit_transmission(spec, sp.DriveSpec(omega_rabi=0.02), grid)

    def test_grid_must_be_non_empty_and_1d(self):
        # checked before the model and the solver are built
        spec = core.mirror_pair_spec(MIRROR1)
        for grid in ([], np.zeros((0, 3)), 1.0, np.zeros((2, 3))):
            with pytest.raises(ValueError, match=r"^detunings must be a non-empty 1-D grid$"):
                sp.multi_qubit_transmission(spec, sp.DriveSpec(), grid)


class TestWeakDriveClosedForm:
    """The sector block LU against the first-moment closed form of weak_drive_oracle."""

    @staticmethod
    def random_spec(rng, n):
        # n_th = 0, a direct coupling and a correlated dephasing pair, which
        # the first moments do not see (weak_drive_oracle)
        qubits = tuple(
            (QubitParams(f"Q{j}", rng.uniform(0.1, 50), rng.uniform(0, 1), rng.uniform(0, 1)),
             Placement(rng.uniform(0, 7)))
            for j in range(n)
        )
        corr = ((0, n - 1, 0.9 * rng.uniform(-1, 1) * min(q.gamma_phi for q, _ in qubits)),) if n > 1 else ()
        couplings = ((0, n - 1, rng.uniform(-5, 5)),) if n > 1 else ()
        return SystemSpec(qubits=qubits, direct_couplings=couplings, detunings=tuple(rng.uniform(-5, 5, n)),
                          dephasing_correlations=corr)

    def test_random_specs_both_ports(self):
        # at omega = 1e-2 of the narrowest qubit floor gamma_loss + gamma_phi
        # the gap is below 1e-6 of |t|, and it falls 100x with the drive
        # (the O(omega^2) first saturation correction)
        rng = np.random.default_rng(41)
        for n in (1, 2, 3, 4, 5):
            spec = self.random_spec(rng, n)
            grid = rng.uniform(-30, 30, 5)
            floor = min(q.gamma_loss + q.gamma_phi for q in spec.params)
            for xy_qubit in (None, int(rng.integers(n))):
                reference = weak_drive_transmission(spec, grid, xy_qubit)
                gaps = []
                for omega in (1e-2 * floor, 1e-3 * floor):
                    drive = sp.DriveSpec("xy" if xy_qubit is not None else "waveguide", xy_qubit, omega_rabi=omega)
                    scan = sp.multi_qubit_transmission(spec, drive, grid)
                    gaps.append(np.max(np.abs(scan.t_complex - reference)) / np.max(np.abs(reference)))
                assert gaps[0] < 1e-6
                assert 80 < gaps[0] / gaps[1] < 120

    @pytest.mark.parametrize("name, tolerance", [
        ("fig1c_q1", 1e-9), ("fig1c_q4", 1e-5), ("fig1c_q6", 2e-8), ("fig2a_pair", 5e-6), ("fig2c_cavity", 1e-4),
    ])
    def test_bundled_spectra_at_their_own_drive(self, name, tolerance):
        # measured gaps max |t - t_weak|: 2.2e-10, 2.0e-6, 6.0e-9, 1.3e-6 and 4.9e-5
        config = json.loads(files("wgqed").joinpath(f"configs/{name}.cfg").read_text())
        spec, params = cli.build_system(config["system"]), config["params"]
        grid = np.linspace(params["start_mhz"], params["stop_mhz"], params["points"])
        scan = sp.multi_qubit_transmission(spec, sp.DriveSpec(omega_rabi=params["omega_rabi"]), grid)
        assert np.max(np.abs(scan.t_complex - weak_drive_transmission(spec, grid))) < tolerance


class TestDriveSpec:
    def test_rejects_both_strengths(self):
        with pytest.raises(ValueError):
            sp.DriveSpec(power_dbm=-150.0, omega_rabi=0.1)

    def test_xy_requires_qubit_and_rabi(self):
        with pytest.raises(ValueError):
            sp.DriveSpec(port="xy")
        with pytest.raises(ValueError):
            sp.DriveSpec(port="xy", xy_qubit=0)

    @pytest.mark.parametrize("omega", [0.0, -0.02, math.nan, math.inf])
    def test_rejects_omega_rabi_not_finite_and_positive(self, omega):
        # 0 gave t = 0/0 and NaN a non-finite Hamiltonian; -0.02 ran
        for port in ({}, {"port": "xy", "xy_qubit": 0}):
            with pytest.raises(ValueError, match=r"^omega_rabi must be finite and positive"):
                sp.DriveSpec(omega_rabi=omega, **port)

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


    @pytest.mark.parametrize("power", [-4000.0, 3100.0, math.nan])
    def test_out_of_range_power_is_named(self, power):
        # -4000 dBm underflows a_in to 0 (t = 1 + 0/0); +3100 dBm overflowed
        # 10 ** (p / 10) with a bare OverflowError
        q = QubitParams.from_gamma_prime("Q1", 94.1, 0.430)
        spec = SystemSpec(qubits=((q, Placement(0.0)),))
        with pytest.raises(ValueError, match=rf"^power_dbm {power:g} gives an input field a_in = "):
            sp.multi_qubit_transmission(spec, sp.DriveSpec(power_dbm=power), np.array([-5.0, 0.0]))

    @pytest.mark.parametrize("port, omega, message", [
        ("waveguide", 5e-324, r"^omega_rabi 4.94066e-324 gives an input field a_in = "),
        ("waveguide", 1e308, r"^omega_rabi 1e\+308 gives an input field a_in = inf "),
        ("xy", 5e-324, r"^omega_rabi 4.94066e-324 gives a local drive Omega_xy/2 = "),
        ("xy", 1e308, r"^rates, detunings and couplings add up to inf MHz"),
    ])
    def test_out_of_range_omega_rabi_is_named(self, port, omega, message):
        # the field t divides by underflowed (t = nan), or a Hamiltonian entry
        # overflowed, once the run had started
        q = QubitParams.from_gamma_prime("Q1", 94.1, 0.430)
        spec = SystemSpec(qubits=((q, Placement(0.0)),), probe_index=0)
        drive = sp.DriveSpec(port, 0 if port == "xy" else None, omega_rabi=omega)
        with pytest.raises(ValueError, match=message):
            sp.drive_amplitudes(spec, drive)


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
                full = shelved_pair_quasi_steady(mirror, rho_dd, x_ratio, delta)
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

    def test_descending_grid_averages_as_ascending(self):
        # the span of a grid that runs downward is negative; it was
        # rejected as narrower than 3 bandwidths
        scan = self.narrow_dip_scan()
        averaged = sp.pulse_bandwidth_average(scan, 260.0)
        descending = sp.pulse_bandwidth_average(
            SpectrumScan(scan.detunings[::-1], scan.t_complex[::-1]), 260.0
        )
        assert np.array_equal(descending.detunings, scan.detunings[::-1])
        assert descending.abs_t_sq[::-1] == pytest.approx(averaged.abs_t_sq, rel=1e-12, abs=1e-15)

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
        assert kwargs["full_output"] and kwargs["col_deriv"]
        assert kwargs["maxfev"] == sp.LORENTZIAN_MAX_EVALUATIONS == 2000
        assert kwargs["xtol"] == kwargs["ftol"] == kwargs["gtol"] == sp.LORENTZIAN_TOLERANCE == 1e-8
        rng = np.random.default_rng(5)
        for _ in range(10):
            params = [rng.uniform(-5, 5), rng.uniform(1, 30), rng.uniform(0.05, 2)]
            # col_deriv: the Jacobian comes back as rows, one per parameter
            exact = kwargs["Dfun"](np.array(params)).T
            numeric = central_differences(fun, params)
            column_error = np.linalg.norm(exact - numeric, axis=0)
            assert np.all(column_error <= 1e-6 * np.linalg.norm(exact, axis=0))

    def test_unconverged_solve_is_named(self, monkeypatch):
        # a solve stopped by the evaluation cap fails as every fit's solve
        # does, carrying its last iterate
        monkeypatch.setattr(sp, "LORENTZIAN_MAX_EVALUATIONS", 3)
        with pytest.raises(FitError, match=r"^lineshape fit failed: .* maxfev = 3\.") as failure:
            sp.lorentzian_fit(self.synthetic_scan(18.1, 0.185, f0=1.3))
        assert len(failure.value.best) == 3

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
