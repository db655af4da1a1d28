"""Time-domain simulations of probe / atomic-cavity experiments.

Every protocol is a chain of undriven holds: flux steps are instantaneous
detuning changes, and state preparation pulses are idealized as
instantaneous rotations of the probe.  Each hold is one exact
lindblad.evolve call on the full product space of the spec; evolve itself
keeps to the coordinates the state can reach, so a hold that starts with
one excitation at n_th = 0 costs about as much as that sector.  Public
time arguments and TimeTrace records are in ns; the underlying
master-equation work runs in us.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import core, lindblad
from .core import TWO_PI
from .records import FitError, FitResult, TimeTrace

__all__ = [
    "CompoundResult",
    "rotate_qubit",
    "dark_state_vector",
    "dark_population",
    "interaction_detuning",
    "iswap_duration_ns",
    "iswap",
    "simulate_vacuum_rabi",
    "simulate_t1_dark",
    "simulate_ramsey_dark",
    "simulate_two_excitation",
    "linear_cavity_model",
    "simulate_compound_mirrors",
    "fit_exponential",
    "fit_damped_sinusoid",
]

# default parking offset (MHz) that decouples the probe during waits
PARK_DETUNING = -50.0

# a trace fit is accepted only if its amplitude is at least this many of
# its own standard errors; below that the fringe or decay is fitted noise
MIN_AMPLITUDE_SIGMAS = 5.0

# the damped-sinusoid model seen by the matrix pencil: one damped pair, a
# decaying baseline and a constant, at most four poles
PENCIL_ORDER = 4

# cap on the matrix-pencil parameter (n // 3 below it): the Hankel matrix
# keeps at most 101 columns, so a long trace's SVD costs O(n), not O(n^3)
PENCIL_PARAMETER_MAX = 100

# a conjugate pole pair that turns through less than this many periods over
# the span is the constant and the baseline, which noise can merge into one
# slow pair (up to 0.35 turns in random panels); it is no candidate fringe
BASELINE_TURNS = 0.4

# xtol, ftol and gtol of every trace fit; at scipy's defaults the fitted
# offsets and the covariance still move with where the optimizer stops
FIT_TOLERANCE = 1e-12


@dataclass(frozen=True)
class CompoundResult:
    """Probe Rabi traces against the two compound dark states."""

    traces: tuple[TimeTrace, TimeTrace]
    splitting_mhz: float
    dark_frequencies: tuple[float, float]


def _require_probe(spec: core.SystemSpec) -> int:
    if spec.probe_index is None:
        raise ValueError("spec has no designated probe qubit")
    return spec.probe_index


def rotate_qubit(rho: np.ndarray, basis, qubit: int, angle: float, axis_phase: float = 0.0):
    """Instantly rotate one qubit of a state (or a stack of them) about an equatorial axis."""
    sx = basis.lowering(qubit) + basis.raising(qubit)
    sy = 1j * (basis.raising(qubit) - basis.lowering(qubit))
    axis = math.cos(axis_phase) * sx + math.sin(axis_phase) * sy
    unitary = math.cos(angle / 2.0) * np.eye(basis.dimension) - 1j * math.sin(angle / 2.0) * axis
    return unitary @ rho @ unitary.conj().T


def dark_state_vector(spec: core.SystemSpec, basis) -> np.ndarray:
    """Single-excitation mirror dark state the probe couples to, in the full space.

    The normalized core.probe_dark_projection: with more than two mirrors
    the dark subspace is degenerate, and this is the one state in it that
    the probe exchange fills.  ValueError if the probe does not couple to it.
    """
    weights = core.probe_dark_projection(spec)
    norm = np.linalg.norm(weights)
    if not norm > 0:
        raise ValueError("probe is not coupled to the dark subspace")
    vec = np.zeros(basis.dimension, dtype=complex)
    for w, m in zip(weights, spec.mirror_indices):
        vec += w * basis.basis_vector(1 << m)
    return vec / norm


def dark_population(spec: core.SystemSpec, basis, rho: np.ndarray) -> float:
    """Population of the single-excitation mirror dark state."""
    dark = dark_state_vector(spec, basis)
    return float(np.real(np.vdot(dark, rho @ dark)))


def _probe_excited(spec, basis):
    return np.outer(
        basis.basis_vector(1 << spec.probe_index),
        basis.basis_vector(1 << spec.probe_index).conj(),
    )


def _populations(number_op: np.ndarray, states: np.ndarray) -> np.ndarray:
    """tr(N rho) of every state matrix rho in a stack, for a diagonal N (a number operator)."""
    return np.einsum("...ii,i->...", states, np.diag(number_op)).real


def interaction_detuning(spec: core.SystemSpec) -> float:
    """Probe detuning from the mean mirror frequency (MHz)."""
    probe = spec.probe_index
    mirror_detunings = [spec.detunings[m] for m in spec.mirror_indices]
    return spec.detunings[probe] - float(np.mean(mirror_detunings))


def iswap_duration_ns(spec: core.SystemSpec) -> float:
    """Half a Rabi period at the generalized oscillation frequency.

    At zero probe-dark detuning this is 1/(4J) in us, i.e. the hold time
    that transfers the probe excitation into the dark state; with a
    residual detuning the first transfer maximum arrives at the
    generalized frequency sqrt((2J)^2 + delta^2) instead.
    """
    two_j = core.probe_dark_coupling(spec)
    if two_j <= 0:
        raise ValueError("probe is not coupled to the dark state")
    f_osc = math.hypot(two_j, interaction_detuning(spec))
    return 1e3 / (2.0 * f_osc)


def iswap(spec: core.SystemSpec) -> np.ndarray:
    """State after the resonant hold that moves the probe excitation to the dark state.

    Starts from an excited probe, holds for iswap_duration_ns at the spec
    detunings and returns the d x d state of the full product space; the
    transferred population approaches 1 - O(1/C) for a lossless system.
    """
    _require_probe(spec)
    return _iswap(spec, lindblad.build_model(spec))


def _iswap(spec: core.SystemSpec, model: lindblad.LindbladModel) -> np.ndarray:
    """iswap on the already built model of spec."""
    hold_us = iswap_duration_ns(spec) * 1e-3
    return lindblad.evolve(model, _probe_excited(spec, model.basis), [0.0, hold_us])[-1]


def _excite_hold_read(spec: core.SystemSpec, taus, metadata) -> TimeTrace:
    """Probe population after preparing |e>_p and holding spec for each tau (ns)."""
    taus = np.asarray(taus, dtype=float)
    model = lindblad.build_model(spec)
    states = lindblad.evolve(model, _probe_excited(spec, model.basis), taus * 1e-3)
    return TimeTrace(
        taus, _populations(model.basis.number(spec.probe_index), states),
        metadata={"observable": "probe_population", **metadata},
    )


def simulate_vacuum_rabi(spec: core.SystemSpec, taus, probe_detuning=None) -> TimeTrace:
    """Probe population after preparing |e>_p and holding for each tau (ns).

    probe_detuning (MHz) overrides the probe entry of spec.detunings; far
    detuning gives the free-decay reference trace.
    """
    probe = _require_probe(spec)
    if probe_detuning is not None:
        detunings = list(spec.detunings)
        detunings[probe] = probe_detuning
        spec = spec.with_detunings(detunings)
    return _excite_hold_read(spec, taus, {})


def _staged_wait_protocol(spec, wait_spec, delays_ns, rho0, closing_angle) -> TimeTrace:
    """Shared engine: resonant swap, variable wait, resonant swap, probe readout.

    rho0 is a state of the full product space of spec.  It is held at the
    spec detunings for one swap time (iswap_duration_ns), under wait_spec
    for each delay (ns), then swapped back; a nonzero closing_angle
    rotates the probe about x before the readout.  That is three evolve
    calls: the swap in, one wait over the delay grid that gives every
    waited state, and one swap back of that whole stack.  Returns the
    probe population versus delay.
    """
    delays_ns = np.asarray(delays_ns, dtype=float)
    delays_us = delays_ns * 1e-3
    model = lindblad.build_model(spec)
    wait = lindblad.build_model(wait_spec)
    swap_us = [0.0, iswap_duration_ns(spec) * 1e-3]
    swapped = lindblad.evolve(model, rho0, swap_us)[-1]
    # the wait starts at zero delay; a grid that starts there has no extra point
    hold = delays_us if delays_us[0] == 0.0 else np.concatenate(([0.0], delays_us))
    waited = lindblad.evolve(wait, swapped, hold)[-delays_us.size :]
    finals = lindblad.evolve(model, waited, swap_us)[-1]
    if closing_angle:
        finals = rotate_qubit(finals, model.basis, spec.probe_index, closing_angle)
    return TimeTrace(
        delays_ns, _populations(model.basis.number(spec.probe_index), finals),
        metadata={"observable": "probe_population"},
    )


def simulate_t1_dark(
    spec: core.SystemSpec, delays, park_detuning: float = PARK_DETUNING, fit: bool = True
) -> tuple[TimeTrace, FitResult | None]:
    """Dark-state population decay: excite, swap in, wait, swap out, read.

    The probe is parked at park_detuning (MHz) during the wait.  Returns
    the probe-population trace over the delays (ns) and its exponential
    fit; the fitted rate_mhz estimates the dark-state decay rate.  Fit
    failures propagate unless fit=False (e.g. a decay-free trace).
    """
    probe = _require_probe(spec)
    park = list(spec.detunings)
    park[probe] = park_detuning
    rho0 = _probe_excited(spec, lindblad.ProductBasis(spec.n_qubits))
    trace = _staged_wait_protocol(spec, spec.with_detunings(park), delays, rho0, 0.0)
    return trace, fit_exponential(trace) if fit else None


def simulate_ramsey_dark(
    spec: core.SystemSpec,
    delays,
    artificial_detuning: float = 2.0,
    park_detuning: float = PARK_DETUNING,
) -> tuple[TimeTrace, FitResult]:
    """Dark-state Ramsey fringes: half swap in, wait, half swap out.

    A half-rotation puts the probe in superposition, a full swap maps its
    excited component onto the dark state, the mirrors run at the
    artificial detuning (MHz) during the wait, and the returning
    coherence is converted to population by a final half-rotation.  The
    damped-sinusoid fit rate_mhz estimates the dark-state decoherence.
    """
    probe = _require_probe(spec)
    wait = [d + artificial_detuning for d in spec.detunings]
    wait[probe] = park_detuning
    basis = lindblad.ProductBasis(spec.n_qubits)
    rho0 = rotate_qubit(_ground_state(basis), basis, probe, math.pi / 2.0)
    trace = _staged_wait_protocol(spec, spec.with_detunings(wait), delays, rho0, math.pi / 2.0)
    return trace, fit_damped_sinusoid(trace)


def _ground_state(basis):
    vec = basis.ground_vector()
    return np.outer(vec, vec.conj())


def simulate_two_excitation(spec: core.SystemSpec, taus) -> tuple[TimeTrace, TimeTrace]:
    """Probe dynamics with a second excitation loaded into the cavity.

    After a swap stores one excitation in the dark state, the probe is
    re-excited and evolved for each tau (ns).  The companion trace runs
    the same protocol against an equivalent linear cavity (bosonic mode
    with the same coupling and dark-state loss), which oscillates sqrt(2)
    faster instead of damping out.
    """
    probe = _require_probe(spec)
    taus = np.asarray(taus, dtype=float)
    model = lindblad.build_model(spec)
    rho = rotate_qubit(_iswap(spec, model), model.basis, probe, math.pi)
    states = lindblad.evolve(model, rho, taus * 1e-3)
    atomic = TimeTrace(
        taus,
        _populations(model.basis.number(probe), states),
        metadata={"observable": "probe_population", "system": "atomic_cavity"},
    )

    cavity_model, ops = linear_cavity_model(spec)
    rho_c = np.outer(ops["excited_one_photon"], ops["excited_one_photon"].conj())
    states = lindblad.evolve(cavity_model, rho_c, taus * 1e-3)
    companion = TimeTrace(
        taus,
        _populations(ops["probe_number"], states),
        metadata={"observable": "probe_population", "system": "linear_cavity"},
    )
    return atomic, companion


def linear_cavity_model(spec: core.SystemSpec) -> tuple[lindblad.LindbladModel, dict]:
    """Equivalent linear-cavity system: probe qubit + 3-level bosonic mode.

    The mode inherits the probe-dark coupling (2J) and the dark-state
    loss of the mirror array; returns the model and its operators.
    """
    probe = _require_probe(spec)
    params = spec.params[probe]
    mirror = spec.params[spec.mirror_indices[0]]
    correlated = 0.0
    for i, j, rate in spec.dephasing_correlations:
        if probe not in (i, j):
            correlated = rate
    kappa, _ = lindblad.dark_state_rates(mirror.gamma_loss, mirror.gamma_phi, correlated)
    coupling_j = core.probe_dark_coupling(spec) / 2.0
    delta = interaction_detuning(spec)

    qubit_eye, mode_eye = np.eye(2), np.eye(3)
    lower_q = np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), mode_eye)
    annihilate = np.kron(qubit_eye, np.diag(np.sqrt([1.0, 2.0]), k=1))
    number_q = lower_q.T @ lower_q
    ham = TWO_PI * (
        delta * number_q + coupling_j * (lower_q.T @ annihilate + annihilate.T @ lower_q)
    )
    dissipators = [(lower_q, params.gamma_1)]
    if kappa > 0:
        dissipators.append((annihilate, kappa))
    if params.gamma_phi > 0:
        sz_q = np.kron(np.diag([-1.0, 1.0]), mode_eye)
        dissipators.append((sz_q, params.gamma_phi / 2.0))
    model = lindblad.LindbladModel(ham, tuple(dissipators))
    excited_one = np.zeros(6, dtype=complex)
    excited_one[1 * 3 + 1] = 1.0
    ops = {
        "probe_number": number_q,
        "mode_number": annihilate.T @ annihilate,
        "excited_one_photon": excited_one,
    }
    return model, ops


def simulate_compound_mirrors(spec: core.SystemSpec, taus) -> CompoundResult:
    """Probe Rabi traces against each dark state of compound mirror pairs.

    The two sub-radiant modes of the four-qubit mirror block are located
    from the effective Hamiltonian (their separation is
    sqrt(4 g^2 + delta^2) for direct coupling g and pair detuning delta);
    the probe is tuned onto each in turn and its population recorded over
    the taus grid (ns).
    """
    probe = _require_probe(spec)
    if len(spec.mirror_indices) != 4 or not spec.direct_couplings:
        raise ValueError("compound-mirror spec needs four directly coupled mirrors")
    mirrors = list(spec.mirror_indices)
    block = core.build_effective_hamiltonian(spec)[np.ix_(mirrors, mirrors)]
    values, vectors = np.linalg.eig(block)
    decays = -2.0 * values.imag
    couplings = np.abs(
        core.exchange_matrix(spec)[probe, mirrors] @ vectors
    )
    # sub-radiant modes only; prefer the ones the probe actually talks to
    # (at zero pair detuning one of the dark pair decouples exactly)
    sub_radiant = np.argsort(decays)[:-1]
    ranked = sorted(sub_radiant, key=lambda k: -couplings[k])[:2]
    dark_freqs = tuple(sorted(float(values[k].real) for k in ranked))
    splitting = abs(dark_freqs[1] - dark_freqs[0])

    traces = []
    for freq in dark_freqs:
        detunings = list(spec.detunings)
        detunings[probe] = freq
        traces.append(
            _excite_hold_read(spec.with_detunings(detunings), taus, {"dark_frequency_mhz": freq})
        )
    return CompoundResult(tuple(traces), splitting, dark_freqs)


def _finite_trace(trace: TimeTrace, model: str) -> tuple[np.ndarray, np.ndarray]:
    """Times and values of a trace fit: all finite, at least 8 points."""
    t, y = trace.times, trace.values
    bad = int(np.count_nonzero(~np.isfinite(t)) + np.count_nonzero(~np.isfinite(y)))
    if bad:
        raise FitError(f"trace holds {bad} non-finite times or values (NaN or inf)")
    if t.size < 8:
        raise FitError(f"need at least 8 points for {model} fit")
    return t, y


def _solve(model, jacobian, t, y, p0, name: str):
    """One unbounded MINPACK Levenberg-Marquardt solve of model to (t, y) from p0.

    A single leastsq call with the analytic jacobian (its columns returned
    as rows, col_deriv=1), FIT_TOLERANCE as xtol, ftol and gtol and at most
    20000 evaluations; numerical warnings silenced.  The standard errors
    are the roots of the diagonal of cov_x times the residual variance
    sum(r**2) / (m - n); they are infinite when cov_x cannot be estimated
    or m <= n, and then fail _report's amplitude test.  Returns the
    parameters as a list, their standard errors and the residual norm;
    FitError carrying p0 as best unless MINPACK reports convergence
    (status 1-4).
    """
    # imported at the first fit: scipy.optimize is a quarter of the CLI's import
    # time, and most runs fit nothing
    from scipy.optimize import leastsq

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params, cov, info, message, status = leastsq(
            lambda p: model(t, *p) - y, p0, Dfun=lambda p: jacobian(t, *p), full_output=1,
            col_deriv=1, maxfev=20000, xtol=FIT_TOLERANCE, ftol=FIT_TOLERANCE, gtol=FIT_TOLERANCE,
        )
    if status not in (1, 2, 3, 4):
        raise FitError(
            f"{name} fit failed: Optimal parameters not found: {message}", best=tuple(p0)
        )
    fvec = info["fvec"]
    dof = fvec.size - len(params)
    if cov is None or np.isnan(cov).any() or dof <= 0:
        sigmas = np.full(len(params), math.inf)
    else:
        sigmas = np.sqrt(np.abs(np.diag(cov) * (np.sum(fvec**2) / dof)))
    return list(params), sigmas, float(np.linalg.norm(fvec))


def _report(model: str, names, params, sigmas, residual: float, signal: str) -> FitResult:
    """The FitResult of a solve, named parameter by parameter, plus rate_mhz.

    params[0] is the amplitude and params[1] the lifetime (ns), whose rate
    1/(2 pi T) in MHz is added.  FitError if the amplitude is below
    MIN_AMPLITUDE_SIGMAS of its own standard error: no significant signal.
    """
    if not abs(params[0]) >= MIN_AMPLITUDE_SIGMAS * sigmas[0]:
        raise FitError(
            f"fitted amplitude {params[0]:.3g} is below {MIN_AMPLITUDE_SIGMAS:g} "
            f"standard errors ({sigmas[0]:.3g}): no significant {signal}",
            best=tuple(params),
        )
    parameters = {name: (float(p), float(sigma)) for name, p, sigma in zip(names, params, sigmas)}
    lifetime, sigma = params[1], sigmas[1]
    rate = 1e3 / (TWO_PI * lifetime)
    parameters["rate_mhz"] = (rate, rate * sigma / lifetime if lifetime > 0 else math.inf)
    return FitResult(model=model, parameters=parameters, residual_norm=residual)


def fit_exponential(trace: TimeTrace) -> FitResult:
    """Least-squares fit of a * exp(-t/T) + c to a time trace.

    One unbounded MINPACK Levenberg-Marquardt solve (_solve: one leastsq
    call, analytic Jacobian, FIT_TOLERANCE) from the first and last
    values and the 1/e crossing.  A constant trace is rejected before it,
    and a fit whose amplitude is below MIN_AMPLITUDE_SIGMAS of its own
    standard error (a growing or flat trace, fitted as a lifetime far
    beyond the span) after it, with FitError.
    """
    t, y = _finite_trace(trace, "an exponential")
    spread = float(np.ptp(y))
    if spread < 1e-9 * max(1.0, float(np.max(np.abs(y)))):
        raise FitError("constant trace: decay rate is unidentifiable")
    offset0 = float(y[-1])
    amp0 = float(y[0] - offset0)
    shifted = np.abs(y - offset0)
    above = shifted > abs(amp0) / math.e
    t_half = t[above][-1] if np.any(above) else t[t.size // 3]
    lifetime0 = max(float(t_half - t[0]), (t[-1] - t[0]) / 20.0)

    def model(t, amp, lifetime, offset):
        return amp * np.exp(-t / lifetime) + offset

    def jacobian(t, amp, lifetime, offset):
        decay = np.exp(-t / lifetime)
        return np.array((decay, amp * decay * t / lifetime**2, np.ones_like(t)))

    params, sigmas, residual = _solve(
        model, jacobian, t, y, [amp0, lifetime0, offset0], "exponential"
    )
    return _report(
        "exponential", ("amplitude", "lifetime_ns", "offset"), params, sigmas, residual, "decay"
    )


def _pencil_poles(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrix-pencil poles of y[k] = sum_i c_i z_i**k and the size of each term.

    Hua and Sarkar, IEEE Trans. ASSP 38, 814 (1990): one SVD of the Hankel
    matrix of y (pencil parameter n // 3, at most PENCIL_PARAMETER_MAX)
    keeps at most PENCIL_ORDER right singular vectors, dropping those whose
    singular value is numerically zero, so a bare exponential yields a
    single real pole.  The poles are the eigenvalues of the pencil of the
    shifted subspaces, and one Vandermonde least-squares solve gives the
    amplitudes c_i; a term's size is its norm over the trace,
    |c_i| * ||z_i**k||.
    """
    width = min(y.size // 3, PENCIL_PARAMETER_MAX) + 1
    hankel = np.lib.stride_tricks.sliding_window_view(y, width)
    _, singular, vh = np.linalg.svd(hankel, full_matrices=False)
    cutoff = singular[0] * max(hankel.shape) * np.finfo(float).eps
    order = int(np.count_nonzero(singular[:PENCIL_ORDER] > cutoff))
    subspace = vh[:order].T
    shift = np.linalg.lstsq(subspace[:-1], subspace[1:], rcond=None)[0]
    poles = np.linalg.eigvals(shift)
    vandermonde = poles[np.newaxis, :] ** np.arange(y.size)[:, np.newaxis]
    amplitudes = np.linalg.lstsq(vandermonde, y, rcond=None)[0]
    return poles, np.abs(amplitudes) * np.linalg.norm(vandermonde, axis=0)


def fit_damped_sinusoid(trace: TimeTrace) -> FitResult:
    """Least-squares fit of a * exp(-t/T) * cos(2 pi f t + phi) + c.

    Identifiability is decided in closed form before any iteration: the
    matrix-pencil poles of the trace (_pencil_poles, model "damped pair +
    decaying baseline + constant") must hold a conjugate pair turning
    through at least BASELINE_TURNS periods, and the strongest such pair
    must show at least two periods over the span, else FitError is
    raised at once.  A one-period moving average, its length taken from
    the refined FFT peak of the trace, is subtracted to remove the
    baseline.  One unbounded MINPACK Levenberg-Marquardt solve (_solve:
    one leastsq call, analytic Jacobian, FIT_TOLERANCE) on the detrended
    data then starts from the pencil pair's frequency and lifetime, with
    amplitude, phase and offset solved linearly at those values.  A
    non-positive fitted lifetime raises FitError.  cos is even, so a
    negative frequency is folded into the phase, (f, phi) -> (-f, -phi),
    and a negative amplitude adds pi to it; the phase is then wrapped
    into (-pi, pi].  The fit is rejected if it lands below two periods
    or its amplitude is below MIN_AMPLITUDE_SIGMAS of its own standard
    errors.
    """
    t, y = _finite_trace(trace, "a sinusoid")
    steps = np.diff(t)
    step = float(steps[0])
    if np.max(np.abs(steps - step)) > 1e-6 * step:
        raise FitError("sinusoid fit needs a uniform time grid")
    span_ns = float(t[-1] - t[0])
    span_us = span_ns * 1e-3
    poles, sizes = _pencil_poles(y)
    turns = np.angle(poles) / TWO_PI * (t.size - 1)  # periods over the span
    pairs = np.flatnonzero((poles.imag > 0) & (turns >= BASELINE_TURNS))
    if not pairs.size:
        raise FitError(
            f"fewer than two visible periods (no oscillating pole pair over {span_us:.3g} us)"
        )
    strongest = pairs[np.argmax(sizes[pairs])]
    f0 = float(turns[strongest]) / span_us
    if turns[strongest] < 2.0:
        raise FitError(
            f"fewer than two visible periods (f ~ {f0:.3g} MHz over {span_us:.3g} us)"
        )
    # a pair whose estimate does not decay within 100 spans starts there
    lifetime0 = 1.0 / max(-math.log(abs(poles[strongest])) / step, 0.01 / span_ns)

    # subtract a one-period moving average before fitting: baselines of
    # any slowly varying shape are suppressed, while the fringe passes
    # through with its frequency and envelope intact (damped exponentials
    # are eigenfunctions of the filter); half a window is trimmed at each
    # edge, and a plain constant-offset model would instead let the
    # optimizer absorb the baseline into a spurious detuned cosine.  The
    # period is the strongest FFT local maximum at or above bin 2 (bins
    # 0-1 hold the leakage of any decaying baseline), refined parabolically
    magnitude = np.abs(np.fft.rfft(y - np.mean(y)))
    interior = np.arange(2, magnitude.size - 1)
    local_max = interior[
        (magnitude[interior] >= magnitude[interior - 1])
        & (magnitude[interior] >= magnitude[interior + 1])
    ]
    if local_max.size:
        peak = int(local_max[np.argmax(magnitude[local_max])])
        left, centre, right = magnitude[peak - 1 : peak + 2]
        denom = left - 2 * centre + right
        offset_bins = 0.5 * (left - right) / denom if denom else 0.0
    else:
        peak, offset_bins = int(np.argmax(magnitude[2:])) + 2, 0.0
    period_samples = int(round(t.size / (peak + offset_bins)))
    period_samples = max(3, min(period_samples, t.size // 2))
    if t.size - period_samples >= 12:
        smooth = np.convolve(y, np.ones(period_samples) / period_samples, mode="valid")
        start = (period_samples - 1) // 2
        window = slice(start, start + smooth.size)
        t_fit = t[window]
        y_fit = y[window] - smooth
    else:
        t_fit, y_fit = t, y - float(np.mean(y))

    omega = TWO_PI * f0 * 1e-3
    envelope = np.exp(-t_fit / lifetime0)
    design = np.column_stack(
        (envelope * np.cos(omega * t_fit), envelope * np.sin(omega * t_fit), np.ones_like(t_fit))
    )
    (cos_part, sin_part, offset0), *_ = np.linalg.lstsq(design, y_fit, rcond=None)
    p0 = [math.hypot(cos_part, sin_part), lifetime0, f0, math.atan2(-sin_part, cos_part), offset0]

    def model(t, amp, lifetime, f, phi, offset):
        return amp * np.exp(-t / lifetime) * np.cos(TWO_PI * f * t * 1e-3 + phi) + offset

    def jacobian(t, amp, lifetime, f, phi, offset):
        decay = np.exp(-t / lifetime)
        angle = TWO_PI * f * t * 1e-3 + phi
        d_amp, d_phi = decay * np.cos(angle), -amp * decay * np.sin(angle)
        d_lifetime, d_f = amp * d_amp * t / lifetime**2, d_phi * TWO_PI * t * 1e-3
        return np.array((d_amp, d_lifetime, d_f, d_phi, np.ones_like(t)))

    params, sigmas, residual = _solve(model, jacobian, t_fit, y_fit, p0, "sinusoid")
    if not params[1] > 0:
        raise FitError(f"fitted lifetime {params[1]:.3g} ns is not positive", best=tuple(params))
    if params[2] < 0:  # cos is even: fold the frequency sign into the phase
        params[2], params[3] = -params[2], -params[3]
    if params[0] < 0:  # fold the sign into the phase
        params[0] = -params[0]
        params[3] += math.pi
    params[3] = math.pi - (math.pi - params[3]) % TWO_PI  # into (-pi, pi]
    if params[2] * span_us < 2.0:
        raise FitError(
            f"fewer than two visible periods (fit found {params[2]:.3g} MHz "
            f"over {span_us:.3g} us)",
            best=tuple(params),
        )
    names = ("amplitude", "lifetime_ns", "frequency_mhz", "phase_rad", "offset")
    return _report("damped-sinusoid", names, params, sigmas, residual, "oscillation")
