"""Waveguide transmission spectra via input-output theory.

The right-propagating field past the array is a_out = a_in +
sum_j sqrt(gamma_1d,j/2) e^{-i phi_j} sigma-_j (with the drive each qubit
feels carrying the conjugate propagation phase e^{+i phi_j}), so the
complex transmission t = <a_out>/<a_in> is origin-independent and reduces
to the known single-qubit closed forms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# lindblad (and with it scipy.linalg) and protocols are imported in the
# functions that solve or fit, so drives are built and checked without them
from . import core
from .core import TWO_PI
from .records import FitError, SpectrumScan

# exact SI values (2019 definition), bit for bit those of scipy.constants
h = 6.62607015e-34  # Planck constant (J s)
hbar = h / (2 * math.pi)
k_boltzmann = 1.380649e-23  # Boltzmann constant (J/K)

__all__ = [
    "DriveSpec",
    "drive_amplitudes",
    "single_qubit_transmission",
    "multi_qubit_transmission",
    "driven_steady_state",
    "shelved_transmission",
    "saturation_power_bound",
    "thermal_bound",
    "waveguide_temperature",
    "check_pulse_average",
    "pulse_bandwidth_average",
    "lorentzian_fit",
    "peak_splitting",
]

# default drive keeps the saturation parameter s = Omega^2/(Gamma1 Gamma2)
# at 1 percent, where the extinction bias is linear and negligible
DEFAULT_SATURATION = 0.01

# xtol, ftol and gtol of lorentzian_fit and its evaluation cap; the trace
# fits' 1e-12 would cost 0-4 (mostly 1-2) more evaluations per fit and move
# gamma_prime by up to 2.5e-6 relative on 116 noisy randomized scans
LORENTZIAN_TOLERANCE = 1e-8
LORENTZIAN_MAX_EVALUATIONS = 2000


@dataclass(frozen=True)
class DriveSpec:
    """Drive port and strength for a transmission measurement.

    port is "waveguide" (coherent tone on the common line) or "xy" (local
    drive on xy_qubit, detected at the waveguide output).  At most one of
    power_dbm / omega_rabi may be set; with neither, the waveguide drive
    defaults to saturation 0.01 and an xy drive must specify omega_rabi,
    which must be finite and positive (MHz).
    For the waveguide port omega_rabi refers to the most strongly coupled
    qubit, and power_dbm is a photon flux at the working frequency.
    """

    port: str = "waveguide"
    xy_qubit: int | None = None
    power_dbm: float | None = None
    omega_rabi: float | None = None

    def __post_init__(self):
        if self.port not in ("waveguide", "xy"):
            raise ValueError(f"unknown drive port {self.port!r}")
        if self.power_dbm is not None and self.omega_rabi is not None:
            raise ValueError("set at most one of power_dbm / omega_rabi")
        if self.omega_rabi is not None and not 0.0 < self.omega_rabi < math.inf:
            raise ValueError(f"omega_rabi must be finite and positive, got {self.omega_rabi:g}")
        if self.port == "xy":
            if self.xy_qubit is None:
                raise ValueError("xy drive needs a target qubit index")
            if self.power_dbm is not None:
                raise ValueError("xy drive strength must be given as omega_rabi")
            if self.omega_rabi is None:
                raise ValueError("xy drive needs omega_rabi")


def single_qubit_transmission(
    params: core.QubitParams, n_th: float = 0.0, omega_rabi: float = 0.0, delta: float = 0.0
) -> complex:
    """Closed-form transmission of one emitter in a thermal bath.

    t = 1 - gamma_1d chi with chi from core.driven_qubit_response.  All
    rates in MHz; on resonance at zero temperature and vanishing drive this
    reduces to t(0) = gamma_prime / (gamma_prime + gamma_1d).
    """
    if n_th < 0 or omega_rabi < 0:
        raise ValueError("n_th and omega_rabi must be >= 0")
    _, chi = core.driven_qubit_response(params.gamma_1, params.gamma_phi, n_th, omega_rabi, delta)
    return 1.0 - params.gamma_1d * chi


def _input_amplitude(spec: core.SystemSpec, drive: DriveSpec) -> float:
    """Input field amplitude a_in in sqrt(photons/us) for a waveguide drive.

    Set by power_dbm, by omega_rabi or by the default saturation;
    ValueError names the one whose a_in is zero, subnormal or not finite:
    t divides the emitted field by a_in.
    """
    g1d_ang = TWO_PI * np.array([q.gamma_1d for q in spec.params])
    if drive.power_dbm is not None:
        try:
            power_w = 1e-3 * 10 ** (drive.power_dbm / 10.0)
        except OverflowError:
            power_w = math.inf
        flux_per_us = power_w / (hbar * TWO_PI * spec.working_frequency * 1e9) * 1e-6
        a_in, source = math.sqrt(flux_per_us), f"power_dbm {drive.power_dbm:g}"
    elif drive.omega_rabi is not None:
        ref = int(np.argmax(g1d_ang))
        if g1d_ang[ref] <= 0:
            raise ValueError("waveguide drive needs at least one coupled qubit")
        a_in = TWO_PI * drive.omega_rabi / (2.0 * math.sqrt(g1d_ang[ref] / 2.0))
        source = f"omega_rabi {drive.omega_rabi:g}"
    else:
        # cap the saturation parameter over all qubits
        s_per_a2 = 0.0
        for q in spec.params:
            gamma1 = TWO_PI * q.gamma_1
            gamma2 = gamma1 / 2.0 + TWO_PI * q.gamma_phi
            if q.gamma_1d > 0 and gamma1 > 0 and gamma2 > 0:
                s_per_a2 = max(s_per_a2, 2.0 * TWO_PI * q.gamma_1d / (gamma1 * gamma2))
        if s_per_a2 == 0.0:
            raise ValueError("no waveguide-coupled qubit to drive")
        a_in, source = math.sqrt(DEFAULT_SATURATION / s_per_a2), f"saturation {DEFAULT_SATURATION:g}"
    if not (math.isfinite(a_in) and a_in >= np.finfo(float).tiny):
        raise ValueError(
            f"{source} gives an input field a_in = {a_in:g} "
            "sqrt(photons/us), which is zero, subnormal or not finite"
        )
    return a_in


def drive_amplitudes(spec: core.SystemSpec, drive: DriveSpec):
    """Complex per-qubit Rabi amplitudes (angular) and the input field a_in.

    A waveguide drive reaches qubit j with amplitude 2 a_in sqrt(gamma_1d,j
    / 2) (-i) e^{i phi_j}, where a_in (sqrt(photons/us)) is set by
    power_dbm, by omega_rabi on the most strongly coupled qubit, or by the
    default saturation; an xy drive reaches xy_qubit alone with 2 pi
    omega_rabi, and a_in is None.  ValueError names a drive this spec
    cannot take: an input field a_in or a local Omega_xy/2 that is zero,
    subnormal or not finite (t divides by it), no waveguide-coupled qubit,
    an xy qubit out of range, or amplitudes (MHz) that are not finite or
    that take the spec's MHz values past the physical range core.MAX_MHZ
    (core.require_representable).
    """
    n = spec.n_qubits
    g1d_ang = TWO_PI * np.array([q.gamma_1d for q in spec.params])
    if drive.port == "waveguide":
        a_in = _input_amplitude(spec, drive)
        amplitudes = 2.0 * a_in * np.sqrt(g1d_ang / 2.0) * (-1j) * np.exp(1j * spec.phases)
    else:
        if not 0 <= drive.xy_qubit < n:
            raise ValueError("xy qubit index out of range")
        field = TWO_PI * drive.omega_rabi / 2.0  # t divides the emitted field by it, as by a_in
        if not field >= np.finfo(float).tiny:
            raise ValueError(
                f"omega_rabi {drive.omega_rabi:g} gives a local drive Omega_xy/2 = {field:g} "
                "rad/us, which is zero or subnormal"
            )
        a_in, amplitudes = None, np.zeros(n, dtype=complex)
        amplitudes[drive.xy_qubit] = TWO_PI * drive.omega_rabi
    core.require_representable(spec, *(np.abs(amplitudes) / TWO_PI))
    return amplitudes, a_in


def _driven_model(spec, amplitudes_ang):
    from . import lindblad

    return lindblad.build_model(
        spec, drives=tuple((j, amplitudes_ang[j] / TWO_PI) for j in range(spec.n_qubits))
    )


def _emission_functional(spec: core.SystemSpec, basis) -> np.ndarray:
    """Row vector w with w . vec(rho) = sum_j sqrt(gamma_1d,j/2) e^{-i phi_j} tr(sigma-_j rho).

    This is the emitted part of the right-propagating output field (angular
    units, like a_in); vec is row-major, so sigma-_j enters transposed.
    """
    g1d_ang = TWO_PI * np.array([q.gamma_1d for q in spec.params])
    return sum(
        math.sqrt(g1d_ang[j] / 2.0) * np.exp(-1j * spec.phases[j]) * basis.lowering(j).T
        for j in range(spec.n_qubits)
    ).reshape(-1)


def driven_steady_state(
    spec: core.SystemSpec, drive: DriveSpec, detuning: float = 0.0
) -> np.ndarray:
    """Steady state (d x d) of the driven system at one drive detuning (MHz).

    One exact solve, as at each point of a small spectrum grid: the driven
    model is built at zero offset and the drive frame is moved by detuning
    through the diagonal generator of lindblad.steady_states, so every
    qubit sits at its spec detuning minus detuning.
    """
    from . import lindblad

    amplitudes, _ = drive_amplitudes(spec, drive)
    return lindblad.steady_states(_driven_model(spec, amplitudes), (detuning,))[0]


def multi_qubit_transmission(spec: core.SystemSpec, drive: DriveSpec, detunings) -> SpectrumScan:
    """Steady-state transmission spectrum of the full driven master equation.

    detunings is a 1-D grid of drive offsets (MHz) from the working
    frequency, in any order and possibly repeated.  The driven model is
    built once, at zero offset, and lindblad.steady_states gives the exact
    checked state at every detuning: the steady state of L0 + delta K,
    where the diagonal generator K moves the drive frame, solved point by
    point on a small grid and from one shift-invert pencil on a larger one.
    The emitted field is the linear functional w . vec(rho) of
    _emission_functional, one product-sum per point, so t = 1 + w .
    vec(rho) / a_in for the waveguide port; the xy port returns w .
    vec(rho) normalized to the local drive Omega_xy/2, which resolves the
    hybridized probe-dark resonances without the bright-state background.
    A t that is not finite raises RuntimeError naming its detuning.  For
    the waveguide port the scan is then checked to stay passive at every
    point (|t| <= 1 + 1e-9; RuntimeError naming the first failing
    detuning).
    """
    from . import lindblad

    detunings = np.asarray(detunings, dtype=float)
    if detunings.ndim != 1 or detunings.size < 1:
        raise ValueError("detunings must be a non-empty 1-D grid")
    amplitudes, a_in = drive_amplitudes(spec, drive)
    radiative = np.linalg.eigvalsh(core.waveguide_decay_matrix(spec))
    bright_rates = radiative[radiative > 1e-6]
    if bright_rates.size and np.max(np.abs(amplitudes)) / TWO_PI > 0.3 * bright_rates.min():
        warnings.warn("drive exceeds 0.3x the narrowest radiative linewidth; "
                      "expect saturation effects", stacklevel=2)
    model = _driven_model(spec, amplitudes)
    emission = _emission_functional(spec, model.basis)
    states = lindblad.steady_states(model, detunings)
    # one row sum per point, the same bits as the sum of a stack of that
    # state alone; a matrix product or a 1-D sum adds in another order
    emitted = (states.reshape(len(states), -1) * emission).sum(axis=1)
    if drive.port == "waveguide":
        t_values = 1.0 + emitted / a_in
    else:
        t_values = emitted / (amplitudes[drive.xy_qubit] / 2.0)
    non_finite = np.flatnonzero(~np.isfinite(t_values))
    if non_finite.size:
        k = non_finite[0]
        raise RuntimeError(
            f"transmission t = {t_values[k]} is not finite at drive detuning {detunings[k]:g} MHz"
        )
    if drive.port == "waveguide":
        active = np.flatnonzero(~(np.abs(t_values) <= 1.0 + 1e-9))
        if active.size:
            k = active[0]
            raise RuntimeError(
                f"non-passive transmission amplitude |t| = {abs(t_values[k]):.6g} at drive "
                f"detuning {detunings[k]:g} MHz; check the drive model"
            )
    metadata = {
        "port": drive.port,
        "n_qubits": spec.n_qubits,
        "working_frequency_ghz": spec.working_frequency,
        "n_th": spec.n_th,
    }
    if drive.port == "xy":
        metadata["xy_qubit"] = drive.xy_qubit
    return SpectrumScan(detunings, t_values, metadata)


def shelved_transmission(g1d: float, gamma_b: float, rho_dd: float, delta: float) -> complex:
    """Reduced three-level transmission of a pair holding dark population.

    t = 1 - (1 - rho_dd) gamma_1d / (-i delta + gamma_b / 2): a fully
    shelved pair (rho_dd = 1) is transparent at every detuning.
    """
    if not 0.0 <= rho_dd <= 1.0:
        raise ValueError("rho_dd must lie in [0, 1]")
    return 1.0 - (1.0 - rho_dd) * g1d / (-1j * delta + gamma_b / 2.0)


def saturation_power_bound(g1d: float, gprime: float, f_q: float) -> tuple[float, float]:
    """Largest probe power (W, dBm) that leaves the extinction unbiased.

    The saturation correction stays below the intrinsic transmission floor
    for P <= hbar omega_q Gamma_prime / 4 (valid for gprime << g1d).
    """
    if g1d <= 0 or gprime <= 0 or f_q <= 0:
        raise ValueError("inputs must be positive")
    power_w = hbar * (TWO_PI * f_q * 1e9) * (TWO_PI * gprime * 1e6) / 4.0
    return power_w, 10.0 * math.log10(power_w / 1e-3)


def thermal_bound(t0_resonant: float) -> float:
    """Upper bound on the waveguide thermal occupancy from residual |t(0)|.

    Conservatively attributes all residual on-resonance transmission to
    thermal saturation: n_th <= |t(0)| / 4.
    """
    if not 0.0 <= t0_resonant <= 1.0:
        raise ValueError("t0 must lie in [0, 1]")
    return t0_resonant / 4.0


def waveguide_temperature(f_ghz: float, n_th: float) -> float:
    """Bose occupation inverted to an effective mode temperature (K)."""
    if f_ghz <= 0 or n_th <= 0:
        raise ValueError("frequency and occupancy must be positive")
    return (h * f_ghz * 1e9 / k_boltzmann) / math.log1p(1.0 / n_th)


def check_pulse_average(grid: np.ndarray, pulse_ns: float) -> float:
    """The pulse bandwidth 1/pulse_ns (MHz); ValueError unless
    pulse_bandwidth_average can average a scan on grid.

    The pulse duration pulse_ns must be positive, and the detuning grid
    (MHz, a 1-D array) must hold at least 3 points, be uniform (steps
    equal within 1e-9 relative) and span at least 3 bandwidths.  The grid
    may run in either direction.
    """
    if pulse_ns <= 0:
        raise ValueError("pulse duration must be positive")
    if grid.size < 3:
        raise ValueError("scan too short to average")
    steps = np.diff(grid)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * max(1.0, abs(steps[0])):
        raise ValueError("bandwidth averaging needs a uniform detuning grid")
    bandwidth = 1.0 / (pulse_ns * 1e-3)
    span = abs(grid[-1] - grid[0])  # a scan may run downward
    if span < 3.0 * bandwidth:
        raise ValueError(
            f"grid span {span:.3g} MHz narrower than 3 bandwidths ({3 * bandwidth:.3g} MHz)"
        )
    return bandwidth


def pulse_bandwidth_average(scan: SpectrumScan, pulse_ns: float) -> SpectrumScan:
    """Intensity spectrum averaged over a rectangular pulse's bandwidth.

    |t|^2 is convolved with the sinc^2 spectral intensity of a rectangular
    pulse of the given duration (ns), whose main lobe spans +/- 1/duration;
    the output amplitudes are the square roots of the averaged intensity
    (the phase is discarded by the incoherent average).  The scan must
    pass check_pulse_average.
    """
    grid = scan.detunings
    bandwidth = check_pulse_average(grid, pulse_ns)
    offsets = np.arange(-(grid.size - 1), grid.size) * (grid[1] - grid[0])
    kernel = np.sinc(offsets * (pulse_ns * 1e-3)) ** 2
    kernel /= kernel.sum()
    # full convolution sliced back to the grid, renormalized at the edges
    center = slice(grid.size - 1, 2 * grid.size - 1)
    weights = np.convolve(np.ones(grid.size), kernel)[center]
    averaged = np.convolve(scan.abs_t_sq, kernel)[center] / weights
    metadata = dict(scan.metadata)
    metadata["pulse_duration_ns"] = pulse_ns
    metadata["bandwidth_mhz"] = bandwidth
    return SpectrumScan(grid, np.sqrt(np.maximum(averaged, 0.0)), metadata)


def _lorentzian_transmission(detunings, f0, g1d, gprime):
    """t = 1 - (gamma_1d/2)/z with z = (gamma_1d + gamma')/2 - i(delta - f0), and z."""
    z = (g1d + gprime) / 2.0 - 1j * (detunings - f0)
    return 1.0 - (g1d / 2.0) / z, z


def _lorentzian_amplitude(detunings, f0, g1d, gprime):
    """|t| at each detuning: the model lorentzian_fit solves for."""
    return np.abs(_lorentzian_transmission(detunings, f0, g1d, gprime)[0])


def _lorentzian_jacobian(detunings, f0, g1d, gprime):
    """Rows d|t|/dp = Re(conj(t) dt/dp) / |t| for p = (f0, gamma_1d, gamma')."""
    t, z = _lorentzian_transmission(detunings, f0, g1d, gprime)
    inv_z2 = 1.0 / z**2
    dt = np.array((1j * (g1d / 2.0) * inv_z2, (g1d / 4.0) * inv_z2 - 0.5 / z, (g1d / 4.0) * inv_z2))
    return np.real(np.conj(t) * dt) / np.abs(t)


def lorentzian_fit(scan: SpectrumScan) -> tuple[float, float, float, float]:
    """Fit the weak-drive single-emitter lineshape to |t|.

    Returns (f0, gamma_1d, gamma_prime, residual norm).  The fit operates
    on the amplitude |t| (linear signal chain, near-Gaussian noise).  It
    is the trace fits' one unbounded MINPACK Levenberg-Marquardt solve
    (protocols._solve) with the analytic Jacobian of |t|,
    LORENTZIAN_TOLERANCE as ftol, xtol and gtol and at most
    LORENTZIAN_MAX_EVALUATIONS evaluations, started from the dip position,
    depth and half width; a MINPACK status outside 1-4 raises FitError.
    |t| is unchanged when both widths flip sign, so the solve may leave
    the physical region: a resonance outside the scan or a negative
    width raises FitError, as does a scan holding NaN or inf.  The scan
    may run in either direction.
    """
    from . import protocols

    order = np.argsort(scan.detunings, kind="stable")
    detunings, amplitude = scan.detunings[order], scan.abs_t[order]
    bad = int(np.count_nonzero(~np.isfinite(detunings)) + np.count_nonzero(~np.isfinite(amplitude)))
    if bad:
        raise FitError(f"scan holds {bad} non-finite detunings or amplitudes (NaN or inf)")
    dip = 1.0 - amplitude
    depth = float(dip.max())
    if depth < 1e-6:
        raise FitError("no resonance found in scan (flat response)")
    f0_guess = float(detunings[np.argmax(dip)])
    above_half = detunings[dip > depth / 2.0]
    fwhm = float(above_half[-1] - above_half[0]) if above_half.size > 1 else 0.0
    if fwhm <= 0:
        fwhm = (detunings[-1] - detunings[0]) / 10.0
    span = detunings[-1] - detunings[0]
    if span < 3.0 * fwhm:
        raise FitError(f"scan spans {span:.3g} MHz, less than 3 linewidths ({3 * fwhm:.3g} MHz)")
    gamma2_guess = fwhm / 2.0
    g1d_guess = max(depth * 2.0 * gamma2_guess, 1e-6)
    gprime_guess = max(2.0 * gamma2_guess - g1d_guess, 1e-6)
    (f0, g1d, gprime), _, residual = protocols._solve(
        _lorentzian_amplitude, _lorentzian_jacobian, detunings, amplitude,
        [f0_guess, g1d_guess, gprime_guess], "lineshape", LORENTZIAN_MAX_EVALUATIONS,
        LORENTZIAN_TOLERANCE,
    )
    if not (detunings[0] <= f0 <= detunings[-1] and g1d >= 0 and gprime >= 0):
        raise FitError(
            f"lineshape fit left the physical region: f0 = {f0:.4g} MHz (scan "
            f"{detunings[0]:.4g} to {detunings[-1]:.4g}), gamma_1d = {g1d:.4g} MHz, "
            f"gamma_prime = {gprime:.4g} MHz",
            best=(f0, g1d, gprime),
        )
    return float(f0), float(g1d), float(gprime), residual


def _prominent_peaks(x: np.ndarray, minimum: float):
    """Local maxima of x with a prominence of at least minimum, and those prominences.

    As scipy.signal.find_peaks(x, prominence=minimum): a peak is a run of
    equal values with a lower value on each side, placed at its middle (the
    left one of two); its prominence is its height above the higher of the
    lowest points on each side before x rises above it or ends.  A NaN
    ends a run and a side.
    """
    start = np.flatnonzero(np.append(x.size > 0, x[1:] != x[:-1]))
    level = x[start]
    top = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    peaks = (start[top] + np.append(start, x.size)[top + 1] - 1) // 2
    prominences = np.empty(peaks.size)
    for k, peak in enumerate(peaks):
        higher = np.flatnonzero(~(x <= x[peak]))
        side = np.searchsorted(higher, peak)
        first = higher[side - 1] + 1 if side else 0
        stop = higher[side] if side < higher.size else x.size
        prominences[k] = x[peak] - max(x[first : peak + 1].min(), x[peak:stop].min())
    keep = prominences >= minimum
    return peaks[keep], prominences[keep]


def peak_splitting(scan: SpectrumScan, scattered: bool = False) -> float:
    """Separation (MHz) of the two most prominent spectral peaks.

    With scattered=True the peaks are located in the scattered intensity
    |1 - t|^2, whose poles sit at the collective eigenmodes; the raw
    transmission maxima of a narrow feature on a broad background are
    displaced by Fano interference and overestimate the splitting.  The
    scan may run in either direction.
    """
    intensity = np.abs(1.0 - scan.t_complex) ** 2 if scattered else scan.abs_t_sq
    peaks, prominences = _prominent_peaks(intensity, 1e-8)
    if peaks.size < 2:
        raise FitError("fewer than two spectral peaks found")
    order = np.argsort(prominences)[::-1][:2]
    chosen = np.sort(peaks[order])
    return float(abs(scan.detunings[chosen[1]] - scan.detunings[chosen[0]]))
