"""Acceptance suite: one check per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

import json
import math

import numpy as np
import pytest
from shelve_oracle import shelved_pair_quasi_steady

from wgqed import calibration, cli, core, lindblad, protocols, spectroscopy
from wgqed.core import Placement, QubitParams, SystemSpec
from wgqed.records import SpectrumScan

GLOSS = 0.0065
MIRROR1 = QubitParams("M1", 13.4, GLOSS, 0.210)
PROBE1 = QubitParams("P1", 1.19, GLOSS, 0.191)
MIRROR2 = QubitParams("M2", 96.7, GLOSS, 0.581)
PROBE2 = QubitParams("P2", 0.87, GLOSS, 0.332)


def report(criterion, label, value, target, tolerance, ok=None):
    if ok is None:
        ok = abs(value - target) <= tolerance * abs(target)
        detail = f"{value:.6g} vs {target:.6g}, tol {tolerance:.0%}"
    else:
        detail = f"{value}"
    line = f"[criterion {criterion:>2}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def correlated_spec(mirror_g1d, gphi, gphi_c, probe):
    mirror = QubitParams("M", mirror_g1d, GLOSS, gphi)
    base = core.cavity_spec(mirror, probe)
    return SystemSpec(
        qubits=base.qubits,
        probe_index=base.probe_index,
        detunings=base.detunings,
        dephasing_correlations=((0, 2, gphi_c),),
    )


def test_criterion_01_coupling_rate():
    slow = core.coupling_rate_2j(2, 13.4, 1.19)
    fast = core.coupling_rate_2j(2, 96.7, 0.87)
    report(1, "coupling rate 2J (slow mirrors)", slow, 5.64, 0.01)
    report(1, "coupling rate 2J (fast mirrors)", fast, 13.0, 0.01)


def test_criterion_02_extinction_and_purcell():
    q1 = QubitParams.from_gamma_prime("Q1", 94.1, 0.430)
    extinction = abs(spectroscopy.single_qubit_transmission(q1)) ** 2
    report(2, "on-resonance intensity transmittance", extinction, 2.07e-5, 0.05)
    q4 = QubitParams.from_gamma_prime("Q4", 0.91, 0.081)
    grid = np.linspace(-8.0, 8.0, 801)
    scan = SpectrumScan(
        grid, np.array([spectroscopy.single_qubit_transmission(q4, delta=d) for d in grid])
    )
    _, g1d_fit, gprime_fit, _ = spectroscopy.lorentzian_fit(scan)
    purcell = core.purcell_factor(g1d_fit, gprime_fit)
    report(2, "probe Purcell factor from lineshape fit", purcell, 11.0, 0.05)


def test_criterion_03_thermal_chain():
    n_th = spectroscopy.thermal_bound(math.sqrt(2.1e-5))
    report(3, "thermal occupancy bound", n_th, 1.1e-3, 0.05)
    temperature = spectroscopy.waveguide_temperature(6.052, n_th)
    report(3, "waveguide mode temperature (K)", temperature, 0.043, 0.05)


def test_criterion_04_vacuum_rabi():
    spec = core.cavity_spec(MIRROR1, PROBE1, probe_detuning=1.0)
    trace = protocols.simulate_vacuum_rabi(spec, np.linspace(0, 900, 181))
    fitted = protocols.fit_damped_sinusoid(trace).value("frequency_mhz")
    expected = math.hypot(core.coupling_rate_2j(2, 13.4, 1.19), 1.0)
    report(4, "vacuum Rabi oscillation frequency", fitted, expected, 0.01)
    free = protocols.simulate_vacuum_rabi(
        core.cavity_spec(MIRROR1, PROBE1), np.linspace(0, 1200, 61), probe_detuning=-50.0
    )
    rate = protocols.fit_exponential(free).value("rate_mhz")
    report(4, "free-decay reference rate", rate, 1.19, 0.02)


def test_criterion_05_dark_state_lifetimes():
    spec = correlated_spec(13.4, 0.36275, 0.15925, PROBE1)
    fit = protocols.fit_exponential(protocols.simulate_t1_dark(spec, np.linspace(250, 2500, 26)))
    report(5, "dark-state T1 (slow mirrors)", fit.value("lifetime_ns"), 757.0, 0.10)
    fit = protocols.fit_damped_sinusoid(
        protocols.simulate_ramsey_dark(spec, np.linspace(20, 1300, 65), artificial_detuning=3.0)
    )
    report(5, "dark-state T2* (slow mirrors)", fit.value("lifetime_ns"), 435.0, 0.10)
    spec = correlated_spec(96.7, 0.83475, 0.26025, PROBE2)
    fit = protocols.fit_exponential(protocols.simulate_t1_dark(spec, np.linspace(120, 1000, 23)))
    report(5, "dark-state T1 (fast mirrors)", fit.value("lifetime_ns"), 274.0, 0.10)
    fit = protocols.fit_damped_sinusoid(
        protocols.simulate_ramsey_dark(spec, np.linspace(10, 600, 60), artificial_detuning=6.0)
    )
    report(5, "dark-state T2* (fast mirrors)", fit.value("lifetime_ns"), 191.0, 0.10)


def test_criterion_06_cooperativity():
    slow = core.cooperativity(core.coupling_rate_2j(2, 13.4, 1.19), 1.19, 0.3885, 0.210)
    report(6, "cooperativity (slow mirrors)", slow, 94.0, 0.15)
    fast = core.cooperativity(core.coupling_rate_2j(2, 96.7, 0.87), 0.87, 0.6705, 0.581)
    report(6, "cooperativity (fast mirrors)", fast, 172.0, 0.15)


def test_criterion_07_shelving():
    gamma_b = 2 * 13.4 + MIRROR1.gamma_prime
    opaque = abs(spectroscopy.shelved_transmission(13.4, gamma_b, 0.0, 0.0)) ** 2
    shelved = abs(spectroscopy.shelved_transmission(13.4, gamma_b, 0.58, 0.0)) ** 2
    jump_ok = opaque < 0.01 and shelved == pytest.approx(0.344, abs=0.02)
    report(
        7,
        "shelving transparency jump",
        f"|t|^2 {opaque:.4f} -> {shelved:.4f}",
        None,
        None,
        ok=jump_ok,
    )
    x_ratio = 0.15
    worst = 0.0
    for rho_dd in (0.0, 0.3, 0.58):
        for delta in (0.0, 3.0):
            full = shelved_pair_quasi_steady(
                QubitParams("M", 13.4), rho_dd, x_ratio, delta
            )
            reduced = spectroscopy.shelved_transmission(13.4, 2 * 13.4, rho_dd, delta)
            worst = max(worst, abs(full - reduced))
    report(
        7,
        "full model vs reduced shelving formula",
        f"max |t_full - t_reduced| = {worst:.4f} <= x^2 = {x_ratio**2:.4f}",
        None,
        None,
        ok=worst <= x_ratio**2,
    )


def test_criterion_08_fano_splitting():
    spec = core.cavity_spec(MIRROR1, PROBE1)
    scan = spectroscopy.multi_qubit_transmission(
        spec, spectroscopy.DriveSpec(omega_rabi=0.02), np.linspace(-10, 10, 1001)
    )
    splitting = spectroscopy.peak_splitting(scan, scattered=True)
    report(8, "three-qubit spectrum splitting", splitting, core.coupling_rate_2j(2, 13.4, 1.19), 0.05)


def test_criterion_09_compound_mirrors():
    spec = core.compound_mirror_spec(
        QubitParams("M", 13.4, GLOSS, 0.146), PROBE1, direct_g=46.0
    )
    result = protocols.simulate_compound_mirrors(spec, np.linspace(0, 200, 21))
    report(9, "compound dark-pair splitting", result.splitting_mhz, 92.0, 0.01)
    for g1d_eff, gphi_eff, target in ((4.3, 0.146, 3.20), (20.2, 0.253, 6.93)):
        mirror = QubitParams("M", g1d_eff, GLOSS, gphi_eff)
        trace = protocols.simulate_vacuum_rabi(
            core.cavity_spec(mirror, PROBE1), np.linspace(0, 1400, 281)
        )
        fitted = protocols.fit_damped_sinusoid(trace).value("frequency_mhz")
        report(9, f"compound-row oscillation ({g1d_eff} MHz mirrors)", fitted, target, 0.02)


def test_criterion_10_two_excitation():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        g1d_p, g1d_m, gp_p, gp_m = rng.uniform(1e-3, 200.0, 4)
        worst = max(worst, core.second_excitation_cooperativity(g1d_p, g1d_m, gp_p, gp_m))
    report(
        10,
        "second-manifold cooperativity < 1 (1000 draws)",
        f"max C2 = {worst:.6f}",
        None,
        None,
        ok=worst < 1.0,
    )
    model, ops = protocols.linear_cavity_model(core.cavity_spec(MIRROR1, PROBE1))
    ground_one = np.zeros(6, dtype=complex)
    ground_one[3] = 1.0
    f_first, _ = lindblad.dominant_oscillation(
        model, np.outer(ground_one, ground_one.conj()), ops["probe_number"]
    )
    excited = ops["excited_one_photon"]
    f_second, _ = lindblad.dominant_oscillation(
        model, np.outer(excited, excited.conj()), ops["probe_number"]
    )
    report(10, "linear-cavity manifold frequency ratio", f_second / f_first, math.sqrt(2), 0.01)


def test_criterion_11_calibration():
    chi = calibration.dispersive_shift(116.0, 6.638 - 5.156, -272.0)
    report(11, "dispersive readout shift", chi, -2.05, 0.02)
    q4 = calibration.TransmonModel(18.4, 3.5, 0.272)
    report(11, "transmon maximum frequency", calibration.transmon_frequency(q4, 0.0), 6.638, 0.01)
    report(11, "transmon minimum frequency", calibration.transmon_frequency(q4, 0.5), 5.431, 0.01)
    rng = np.random.default_rng(11)
    worst = 0.0
    count = 0
    while count < 100:
        n = int(rng.integers(2, 6))
        matrix = np.diag(rng.uniform(0.2, 0.6, n) * rng.choice([-1, 1], n))
        matrix += rng.normal(0.0, 0.02, (n, n))
        if np.linalg.cond(matrix) >= 1e6:
            continue
        ct = calibration.CrosstalkMatrix(m=matrix, f0=np.full(n, 6.6), v0=rng.normal(0, 0.2, n))
        target = ct.f0 + rng.uniform(-0.09, 0.09, n)
        bias = calibration.crosstalk_bias(ct, target)
        worst = max(worst, np.max(np.abs(calibration.crosstalk_frequencies(ct, bias) - target)))
        count += 1
    report(
        11,
        "crosstalk bias round trip (100 matrices)",
        f"worst error {worst:.3g} GHz <= 1e-9",
        None,
        None,
        ok=worst <= 1e-9,
    )


def test_criterion_12_oracle_suites():
    rng = np.random.default_rng(300)
    ok = True
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
        model = lindblad.build_model(spec)
        vec = rng.normal(size=model.dimension) + 1j * rng.normal(size=model.dimension)
        vec /= np.linalg.norm(vec)
        states = lindblad.evolve(model, np.outer(vec, vec.conj()), np.linspace(0, 0.4, 5))
        for mat in states:
            ok &= abs(np.trace(mat) - 1.0) < 1e-8
            ok &= float(np.max(np.abs(mat - mat.conj().T))) < 1e-10
            ok &= float(np.linalg.eigvalsh(mat).min()) > -1e-8
    report(
        12,
        "trace/Hermiticity/positivity (50 random models)",
        "all invariants held" if ok else "violated",
        None,
        None,
        ok=ok,
    )

    q = QubitParams("Q", 13.4, GLOSS, 0.21)
    worst = 0.0
    for n_th in (0.0, 1e-3, 0.01, 0.1, 0.3):
        for omega in (0.01, 0.2, 1.0, 4.0, 12.0):
            for delta in (-8.0, -1.0, 0.0, 1.0, 8.0):
                spec = SystemSpec(qubits=((q, Placement(0.0)),), detunings=(-delta,), n_th=n_th)
                model = lindblad.build_model(spec, drives=((0, omega),))
                rho = lindblad.steady_states(model, [0.0])[0]
                ee, eg = core.thermal_qubit_steady(13.4, GLOSS, 0.21, n_th, omega, delta)
                worst = max(worst, abs(rho[1, 1].real - ee), abs(rho[1, 0] - eg))
    report(
        12,
        "steady state vs closed form (125-point grid)",
        f"worst deviation {worst:.3g} <= 1e-9",
        None,
        None,
        ok=worst <= 1e-9,
    )

    rng = np.random.default_rng(400)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        qubits = tuple(
            (
                QubitParams(
                    f"Q{j}", rng.uniform(0.5, 100), rng.uniform(0, 1.0), rng.uniform(0, 1.0)
                ),
                Placement(rng.uniform(-12, 12)),
            )
            for j in range(n)
        )
        spec = SystemSpec(qubits=qubits, detunings=tuple(rng.uniform(-5, 5, n)))
        total = sum(m.decay_rate for m in core.collective_modes(spec))
        expected = sum(p.gamma_1d + p.gamma_loss for p in spec.params)
        worst = max(worst, abs(total - expected))
    report(
        12,
        "eigen-decay-sum conservation (100 random specs)",
        f"worst deviation {worst:.3g} MHz <= 1e-9",
        None,
        None,
        ok=worst <= 1e-9,
    )


def _csv_column(path, column):
    rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return np.array([float(ln.split(",")[column]) for ln in rows[1:]])


def test_bundled_configs_execute(tmp_path):
    # the two configs named by the release criteria run end to end
    for name, checks in (
        ("fig3a_type1", lambda p: json.loads((p / "run_fit.json").read_text())["derived"][
            "coupling_2j_mhz"
        ] == pytest.approx(5.65, rel=0.01)),
        ("fig1c_q1", lambda p: _csv_column(p / "run_spectrum.csv", 4).min()
            == pytest.approx(2.07e-5, rel=0.05)),
    ):
        workdir = tmp_path / name
        workdir.mkdir()
        from importlib.resources import files

        config = str(files("wgqed").joinpath(f"configs/{name}.cfg"))
        assert cli.main(["run", config, "--output", str(workdir / "run")]) == 0
        ok = checks(workdir)
        report(0, f"bundled config {name}.cfg", "executed with expected artifact", None, None, ok=bool(ok))
