"""Correctness oracles, run outside the timed region.

Each oracle is independent of the engine being timed: closed forms, the
physics of ideal lambda/2 mirrors, passivity, the Liouvillian residual of
a state read back from its CSV, and the truth behind synthetic traces.
An oracle returns None when the job's output passes, else a reason.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

RABI_REL_TOL = 0.01
PASSIVE_TOL = 1e-9
SINGLE_QUBIT_TOL = 1e-9
STEADY_RESIDUAL_TOL = 1e-9
POPULATION_TOL = 1e-6


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return lines[0].split(","), rows


def _by_suffix(outputs: list[Path], suffix: str) -> Path:
    matches = [p for p in outputs if p.name.endswith(suffix)]
    if len(matches) != 1:
        raise ValueError(f"expected one *{suffix} artifact, found {len(matches)}")
    return matches[0]


def _all_finite(payload) -> bool:
    if isinstance(payload, dict):
        return all(_all_finite(v) for v in payload.values())
    if isinstance(payload, list):
        return all(_all_finite(v) for v in payload)
    if isinstance(payload, (int, float)) and not isinstance(payload, bool):
        return math.isfinite(payload)
    return True


def _check_scan(path: Path, points: int, passive: bool) -> str | None:
    _, rows = read_csv(path)
    if rows.shape[0] != points or not np.all(np.isfinite(rows)):
        return f"{path.name}: {rows.shape[0]} finite rows expected {points}"
    if passive and np.max(np.hypot(rows[:, 1], rows[:, 2])) > 1.0 + PASSIVE_TOL:
        return f"{path.name}: |t| exceeds 1 (not passive)"
    return None


def _check_populations(path: Path, points: int) -> str | None:
    _, rows = read_csv(path)
    if rows.shape[0] != points or not np.all(np.isfinite(rows)):
        return f"{path.name}: {rows.shape[0]} finite rows expected {points}"
    values = rows[:, 1]
    if values.min() < -POPULATION_TOL or values.max() > 1.0 + POPULATION_TOL:
        return f"{path.name}: population outside [0, 1]"
    return None


def _drive_amplitudes(system: dict, omega_rabi: float) -> np.ndarray:
    """Per-qubit Rabi amplitudes (MHz) of a waveguide tone of given strength.

    The tone's field couples as sqrt(gamma_1d/2) with propagation phase
    e^{i phi}; omega_rabi is the Rabi rate on the most strongly coupled
    qubit, as the CLI documents.
    """
    g1d = np.array([q["gamma_1d"] for q in system["qubits"]])
    phases = np.array([q["phase_pi"] * math.pi for q in system["qubits"]])
    return omega_rabi * np.sqrt(g1d / g1d.max()) * (-1j) * np.exp(1j * phases)


def _check_steady(wgqed, config: dict, path: Path) -> str | None:
    system, params = config["system"], config["params"]
    _, rows = read_csv(path)
    dim = int(round(math.sqrt(rows.shape[0])))
    rho = np.zeros((dim, dim), dtype=complex)
    rho[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2] + 1j * rows[:, 3]
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10 or abs(np.trace(rho) - 1.0) > 1e-9:
        return "steady state is not a Hermitian unit-trace matrix"
    if np.linalg.eigvalsh(rho).min() < -1e-8:
        return "steady state is not positive"
    spec = wgqed.cli.build_system(system)
    amplitudes = _drive_amplitudes(system, params["omega_rabi"])
    model = wgqed.lindblad.build_model(
        spec,
        detunings=[d - params["detuning_mhz"] for d in spec.detunings],
        drives=tuple(enumerate(amplitudes)),
    )
    liouville = wgqed.lindblad.assemble_liouvillian(model)
    residual = np.max(np.abs(np.asarray(liouville @ rho.reshape(-1))))
    scale = abs(liouville).max()
    if residual > STEADY_RESIDUAL_TOL * scale:
        return f"steady-state residual |L rho| = {residual:.3e} (scale {scale:.3e})"
    return None


def _check_single_qubit(wgqed, config: dict, path: Path) -> str | None:
    (q,) = config["system"]["qubits"]
    params = wgqed.core.QubitParams(
        q["label"], q["gamma_1d"], q.get("gamma_loss", 0.0), q.get("gamma_phi", 0.0)
    )
    _, rows = read_csv(path)
    exact = np.array([
        wgqed.spectroscopy.single_qubit_transmission(
            params, config["system"].get("n_th", 0.0), config["params"]["omega_rabi"], d
        )
        for d in rows[:, 0]
    ])
    error = np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - exact))
    if error > SINGLE_QUBIT_TOL:
        return f"1-qubit spectrum differs from the closed form by {error:.3e}"
    return None


def oscillation_frequency(t_ns: np.ndarray, y: np.ndarray) -> float:
    """Fringe frequency (MHz) of a damped oscillation on a decaying baseline.

    A zero-padded FFT locates the fringe; a least-squares fit of
    a e^{-t/T} cos(2 pi f t + phi) + b e^{-t/T2} + c refines it, from four
    starting phases.
    """
    from scipy.optimize import least_squares

    t_us = t_ns * 1e-3
    span = t_us[-1] - t_us[0]
    spectrum = np.abs(np.fft.rfft(y - y.mean(), n=16 * y.size))
    freqs = np.fft.rfftfreq(16 * y.size, d=t_us[1] - t_us[0])
    usable = freqs > 1.5 / span
    f0 = float(freqs[usable][np.argmax(spectrum[usable])])

    def residual(p):
        a, tau, f, phi, b, tau2, c = p
        return a * np.exp(-t_us / tau) * np.cos(2 * math.pi * f * t_us + phi) + b * np.exp(-t_us / tau2) + c - y

    amp = (y.max() - y.min()) / 2.0
    fits = [
        least_squares(residual, [amp, span, f0, phi, 0.0, span, y.mean()],
                      bounds=([-np.inf, 1e-3, 0.0, -np.inf, -np.inf, 1e-3, -np.inf], np.inf))
        for phi in (0.0, math.pi / 2, math.pi, -math.pi / 2)
    ]
    return float(min(fits, key=lambda r: r.cost).x[2])


def _check_rabi(config: dict, outputs: list[Path], expect: dict, points: int) -> str | None:
    path = _by_suffix(outputs, "_trace.csv")
    reason = _check_populations(path, points)
    if reason:
        return reason
    if config["params"].get("fit") == "none":
        _, rows = read_csv(path)
        found = oscillation_frequency(rows[:, 0], rows[:, 1])
    else:
        fit = json.loads(_by_suffix(outputs, "_fit.json").read_text(encoding="utf-8"))
        if not _all_finite(fit):
            return "fit report holds a non-finite value"
        if "frequency_mhz" not in fit["parameters"]:
            return None
        found = fit["parameters"]["frequency_mhz"]["value"]
    if "rabi_mhz" in expect and abs(found - expect["rabi_mhz"]) > RABI_REL_TOL * expect["rabi_mhz"]:
        return f"Rabi frequency {found:.5g} MHz, expected {expect['rabi_mhz']:.5g} MHz"
    return None


def check_config_job(wgqed, job, outputs: list[Path]) -> str | None:
    """Validate the artifacts of one run_config call."""
    config, params = job.config, job.config.get("params", {})
    experiment = config["experiment"]
    if experiment in ("spectrum", "xy-spectrum"):
        path = _by_suffix(outputs, "_spectrum.csv")
        reason = _check_scan(path, params["points"], passive=experiment == "spectrum")
        if reason is None and experiment == "spectrum" and len(config["system"]["qubits"]) == 1:
            reason = _check_single_qubit(wgqed, config, path)
        return reason
    if experiment == "steady":
        return _check_steady(wgqed, config, _by_suffix(outputs, "_state.csv"))
    if experiment == "rabi":
        return _check_rabi(config, outputs, job.expect, params["points"])
    if experiment in ("t1-dark", "ramsey-dark"):
        reason = _check_populations(_by_suffix(outputs, "_trace.csv"), params["points"])
        fit = json.loads(_by_suffix(outputs, "_fit.json").read_text(encoding="utf-8"))
        if reason is None and not (_all_finite(fit) and fit["parameters"]["lifetime_ns"]["value"] > 0):
            reason = "dark-state fit has no finite positive lifetime"
        return reason
    if experiment == "two-excitation":
        for suffix in ("_atomic.csv", "_linear.csv"):
            reason = _check_populations(_by_suffix(outputs, suffix), params["points"])
            if reason:
                return reason
        summary = json.loads(_by_suffix(outputs, "_summary.json").read_text(encoding="utf-8"))
        ratio = summary["companion_frequency_ratio"]
        # a linear cavity's second rung couples sqrt(2) more strongly
        if not 1.3 < ratio < 1.5:
            return f"linear-cavity frequency ratio {ratio:.4g} is not near sqrt(2)"
        return None
    if experiment == "compound":
        for path in outputs:
            if path.name.endswith(".csv"):
                reason = _check_populations(path, params["points"])
                if reason:
                    return reason
        summary = json.loads(_by_suffix(outputs, "_summary.json").read_text(encoding="utf-8"))
        g = config["system"]["direct_couplings"][0][2]
        # co-located pairs split by the direct coupling: dark modes at -g and +g
        if abs(summary["splitting_mhz"] - 2.0 * g) > 0.01 * 2.0 * g:
            return f"compound splitting {summary['splitting_mhz']:.5g} MHz, expected {2 * g:.5g}"
        return None
    if experiment == "shelve":
        for suffix in ("_shelved.csv", "_reference.csv"):
            reason = _check_scan(_by_suffix(outputs, suffix), params["points"], passive=True)
            if reason:
                return reason
        return None
    if experiment == "calib":
        report = json.loads(_by_suffix(outputs, "_calib.json").read_text(encoding="utf-8"))
        _, rows = read_csv(_by_suffix(outputs, "_flux.csv"))
        if not _all_finite(report) or rows.shape[0] != params["transmon"]["flux_points"]:
            return "calibration report is incomplete or non-finite"
        if not np.all(np.isfinite(rows)):
            return "flux sweep holds a non-finite value"
        return None
    return f"no oracle for experiment {experiment!r}"


def check_fit_job(job, result) -> str | None:
    """Compare a fit's parameters with the truth behind its synthetic trace."""
    truth = job.expect["truth"]
    if job.kind == "lorentzian_fit":
        f0, g1d, _gprime, _residual = result
        width = truth["gamma_1d"] + truth["gamma_prime"]
        if abs(f0 - truth["f0"]) > 0.02 * width:
            return f"f0 {f0:.4g} MHz, truth {truth['f0']:.4g}"
        if abs(g1d - truth["gamma_1d"]) > 0.05 * truth["gamma_1d"]:
            return f"gamma_1d {g1d:.4g} MHz, truth {truth['gamma_1d']:.4g}"
        return None
    tolerances = {"frequency_mhz": 0.01, "lifetime_ns": 0.2 if "frequency_mhz" in truth else 0.1}
    for name, value in truth.items():
        found = result.value(name)
        if abs(found - value) > tolerances[name] * value:
            return f"{name} {found:.5g}, truth {value:.5g}"
    return None
