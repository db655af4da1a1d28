"""Time-domain simulations of probe / atomic-cavity experiments.

Every protocol is a chain of undriven holds: flux steps are instantaneous
detuning changes, and state preparation pulses are idealized as
instantaneous rotations of the probe.  Each hold is one exact
lindblad.evolve call on the full product space of the spec; evolve itself
keeps to the coordinates the state can reach, so a hold that starts with
one excitation at n_th = 0 costs about as much as that sector.  A hold
that is only read out as a population reads it off those coordinates
(lindblad._held_populations) and never forms the d x d states.  A flux
step is a hold at per-qubit detuning offsets (MHz) on the same model,
which only shift its cached block, so the dark-state T1 and Ramsey
sequences and the compound-mirror traces build one model of the spec;
vacuum Rabi builds its model at the overridden probe detuning.
The simulate_* functions return what they simulate, the TimeTrace records
(and, for the two-excitation run, the linear cavity's exact frequencies);
none of them fits.  Fitting a trace is the caller's step, with
fit_exponential or fit_damped_sinusoid.
What reads a spec without a master equation lives in core: the swap
duration and its precondition (core.iswap_duration_ns), the compound
mirrors' precondition, the probe's interaction detuning and the dark-state
rates.  The simulators call them there, so a config is checked without
this module.
Public time arguments and TimeTrace records are in ns; the underlying
master-equation work runs in us.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import core, lindblad
from .core import PARK_DETUNING, TWO_PI
from .records import FitError, FitResult, TimeTrace

__all__ = [
    "CompoundResult",
    "rotate_qubit",
    "dark_state_vector",
    "dark_population",
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

# a trace fit is accepted only if its amplitude is at least this many of
# its own standard errors; below that the fringe or decay is fitted noise
MIN_AMPLITUDE_SIGMAS = 5.0

# the damped-sinusoid model seen by the matrix pencil: one damped pair, a
# decaying baseline and a constant, at most four poles
PENCIL_ORDER = 4

# cap on the matrix-pencil parameter (n // 3 below it): the Hankel matrix
# keeps at most 101 columns, so a long trace's Gram matrix costs O(n) to
# form and its eigenproblem is at most 101 x 101, not O(n^3)
PENCIL_PARAMETER_MAX = 100

# a conjugate pole pair that turns through less than this many periods over
# the span is the constant and the baseline, which noise can merge into one
# slow pair (up to 0.35 turns in random panels); it is no candidate fringe
BASELINE_TURNS = 0.4

# xtol, ftol and gtol of every trace fit; at scipy's defaults the fitted
# offsets and the covariance still move with where the optimizer stops
FIT_TOLERANCE = 1e-12

# evaluation caps of the trace fits, each at least 8x the most that an
# accepted fit of a 900-trace randomized panel needed (74 for the sinusoid,
# 87 for the exponential): the sinusoid's is MINPACK's own lmder default
# 100 (n + 1) for its five parameters; the exponential's default, 400,
# would be only 4.6x, so it gets twice that
SINUSOID_MAX_EVALUATIONS = 600
EXPONENTIAL_MAX_EVALUATIONS = 800


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


def rotate_qubit(rho: np.ndarray, basis, qubit: int, angle: float):
    """Instantly rotate one qubit of a state (or a stack of them) about x."""
    sx = basis.lowering(qubit) + basis.raising(qubit)
    unitary = math.cos(angle / 2.0) * np.eye(basis.dimension) - 1j * math.sin(angle / 2.0) * sx
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
    return np.diag(basis.basis_vector(1 << spec.probe_index))


def _populations(number_op: np.ndarray, states: np.ndarray) -> np.ndarray:
    """tr(N rho) of every state matrix rho in a stack, for a diagonal N (a number operator)."""
    return np.einsum("...ii,i->...", states, np.diag(number_op)).real


def iswap(spec: core.SystemSpec) -> np.ndarray:
    """State after the resonant hold that moves the probe excitation to the dark state.

    Starts from an excited probe, holds for core.iswap_duration_ns at the
    spec detunings and returns the d x d state of the full product space;
    the transferred population approaches 1 - O(1/C) for a lossless system.
    """
    _require_probe(spec)
    return _iswap(spec, lindblad.build_model(spec))


def _iswap(spec: core.SystemSpec, model: lindblad.LindbladModel) -> np.ndarray:
    """iswap on the already built model of spec."""
    hold_us = core.iswap_duration_ns(spec) * 1e-3
    return lindblad.evolve(model, _probe_excited(spec, model.basis), [0.0, hold_us])[-1]


def _hold_trace(model, number_op, rho0, taus, metadata, offsets=None) -> TimeTrace:
    """Probe population tr(number_op rho) after holding rho0 on model for each tau (ns).

    offsets (MHz per qubit) raise the hold's detunings above the model's
    (lindblad.evolve); metadata follows the "observable" entry.
    """
    taus = np.asarray(taus, dtype=float)
    populations = lindblad._held_populations(model, number_op, rho0, taus * 1e-3, offsets)
    return TimeTrace(taus, populations, metadata={"observable": "probe_population", **metadata})


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
    model = lindblad.build_model(spec)
    rho0 = _probe_excited(spec, model.basis)
    return _hold_trace(model, model.basis.number(probe), rho0, taus, {})


def _staged_wait_protocol(spec, wait_offsets, delays_ns, rho0, closing_angle) -> TimeTrace:
    """Shared engine: resonant swap, variable wait, resonant swap, probe readout.

    rho0 is a state of the full product space of spec.  It is held at the
    spec detunings for one swap time (core.iswap_duration_ns), at the spec
    detunings plus wait_offsets (MHz per qubit) for each delay (ns), then
    swapped back; a nonzero closing_angle rotates the probe about x before
    the readout.  That is three evolve calls on one model of spec: the swap
    in, one wait over the delay grid that gives every waited state, and
    one swap back of that whole stack.  The model builds its factors once,
    and its block once when the waited stack reaches the same coordinates
    as the swap in; the wait shifts that block.  Each hold forms its own
    exponentials, so the swap back exponentiates the swap step again.
    Returns the probe population versus delay.
    """
    delays_ns = np.asarray(delays_ns, dtype=float)
    delays_us = delays_ns * 1e-3
    model = lindblad.build_model(spec)
    swap_us = [0.0, core.iswap_duration_ns(spec) * 1e-3]
    swapped = lindblad.evolve(model, rho0, swap_us)[-1]
    # the wait starts at zero delay; a grid that starts there has no extra point
    hold = delays_us if delays_us[0] == 0.0 else np.concatenate(([0.0], delays_us))
    waited = lindblad.evolve(model, swapped, hold, wait_offsets)[-delays_us.size :]
    finals = lindblad.evolve(model, waited, swap_us)[-1]
    if closing_angle:
        finals = rotate_qubit(finals, model.basis, spec.probe_index, closing_angle)
    return TimeTrace(
        delays_ns, _populations(model.basis.number(spec.probe_index), finals),
        metadata={"observable": "probe_population"},
    )


def simulate_t1_dark(
    spec: core.SystemSpec, delays, park_detuning: float = PARK_DETUNING
) -> TimeTrace:
    """Dark-state population decay: excite, swap in, wait, swap out, read.

    The probe is parked at park_detuning (MHz) during the wait.  Returns
    the probe-population trace over the delays (ns); the rate_mhz of its
    fit_exponential estimates the dark-state decay rate.
    """
    probe = _require_probe(spec)
    park = np.zeros(spec.n_qubits)
    park[probe] = park_detuning - spec.detunings[probe]
    rho0 = _probe_excited(spec, lindblad.ProductBasis(spec.n_qubits))
    return _staged_wait_protocol(spec, park, delays, rho0, 0.0)


def simulate_ramsey_dark(
    spec: core.SystemSpec,
    delays,
    artificial_detuning: float = 2.0,
    park_detuning: float = PARK_DETUNING,
) -> TimeTrace:
    """Dark-state Ramsey fringes: half swap in, wait, half swap out.

    A half-rotation puts the probe in superposition, a full swap maps its
    excited component onto the dark state, the mirrors run at the
    artificial detuning (MHz) during the wait, and the returning
    coherence is converted to population by a final half-rotation.
    Returns the probe-population trace over the delays (ns); the rate_mhz
    of its fit_damped_sinusoid estimates the dark-state decoherence.
    """
    probe = _require_probe(spec)
    wait = np.full(spec.n_qubits, artificial_detuning, dtype=float)
    wait[probe] = park_detuning - spec.detunings[probe]
    basis = lindblad.ProductBasis(spec.n_qubits)
    rho0 = rotate_qubit(np.diag(basis.ground_vector()), basis, probe, math.pi / 2.0)
    return _staged_wait_protocol(spec, wait, delays, rho0, math.pi / 2.0)


def simulate_two_excitation(spec: core.SystemSpec, taus) -> tuple[TimeTrace, TimeTrace, tuple]:
    """Probe dynamics with a second excitation loaded into the cavity.

    After a swap stores one excitation in the dark state, the probe is
    re-excited and evolved for each tau (ns).  The companion trace runs
    the same protocol against an equivalent linear cavity (bosonic mode
    with the same coupling and dark-state loss), which oscillates sqrt(2)
    faster instead of damping out.  Returns both traces and the
    companion's first- and second-manifold frequencies (MHz): the
    lindblad.dominant_oscillation of its linear_cavity_model from |e, 0>
    and from |e, 1>.
    """
    probe = _require_probe(spec)
    model = lindblad.build_model(spec)  # the swap and the re-excited hold build its factors once
    rho = rotate_qubit(_iswap(spec, model), model.basis, probe, math.pi)
    atomic = _hold_trace(model, model.basis.number(probe), rho, taus, {"system": "atomic_cavity"})

    cavity, ops = linear_cavity_model(spec)
    number = ops["probe_number"]
    excited = (ops["excited_no_photon"], ops["excited_one_photon"])
    starts = np.array([np.outer(state, state.conj()) for state in excited])
    companion = _hold_trace(cavity, number, starts[1], taus, {"system": "linear_cavity"})
    (f_first, _), (f_second, _) = lindblad.dominant_oscillation(cavity, starts, number)
    return atomic, companion, (f_first, f_second)


def linear_cavity_model(spec: core.SystemSpec) -> tuple[lindblad.LindbladModel, dict]:
    """Equivalent linear-cavity system: probe qubit + 3-level bosonic mode.

    The mode inherits the probe-dark coupling (2J) and the dark-state
    loss of the mirror array; returns the model and its operators, with
    the state vectors |e, 0> ("excited_no_photon") and |e, 1>
    ("excited_one_photon") of its basis |qubit, photons>.
    """
    probe = _require_probe(spec)
    params = spec.params[probe]
    mirror = spec.params[spec.mirror_indices[0]]
    correlated = 0.0
    for i, j, rate in spec.dephasing_correlations:
        if probe not in (i, j):
            correlated = rate
    kappa, _ = core.dark_state_rates(mirror.gamma_loss, mirror.gamma_phi, correlated)
    coupling_j = core.probe_dark_coupling(spec) / 2.0
    delta = core.interaction_detuning(spec)

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
    excited = np.zeros((2, 6), dtype=complex)  # |e, 0> and |e, 1>
    excited[0, 1 * 3 + 0] = excited[1, 1 * 3 + 1] = 1.0
    ops = {
        "probe_number": number_q,
        "excited_no_photon": excited[0],
        "excited_one_photon": excited[1],
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
    core.check_compound_mirrors(spec)
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

    # both holds on the spec's model, the probe moved onto each dark frequency
    model = lindblad.build_model(spec)
    number, rho0 = model.basis.number(probe), _probe_excited(spec, model.basis)
    traces = []
    for freq in dark_freqs:
        offsets = np.zeros(spec.n_qubits)
        offsets[probe] = freq - spec.detunings[probe]
        traces.append(_hold_trace(model, number, rho0, taus, {"dark_frequency_mhz": freq}, offsets))
    return CompoundResult(tuple(traces), splitting, dark_freqs)


def _finite_trace(trace: TimeTrace, model: str) -> tuple[np.ndarray, np.ndarray]:
    """Times and values of a trace fit: all finite, at least 8 points."""
    t, y = trace.times, trace.values
    bad = np.count_nonzero(~np.isfinite(y))  # TimeTrace rejects non-finite times
    if bad:
        raise FitError(f"trace holds {bad} non-finite values (NaN or inf)")
    if t.size < 8:
        raise FitError(f"need at least 8 points for {model} fit")
    return t, y


def _solve(model, jacobian, t, y, p0, name: str, max_evaluations: int, tolerance: float):
    """One unbounded MINPACK Levenberg-Marquardt solve of model to (t, y) from p0.

    The one least-squares solve of every fit, the trace fits' and
    spectroscopy.lorentzian_fit's: a single leastsq call with the analytic
    jacobian (its columns returned as rows, col_deriv=1), the fit's own
    tolerance as xtol, ftol and gtol (FIT_TOLERANCE for the trace fits) and
    at most its own max_evaluations evaluations, so a solve that wanders off
    is rejected within tens of milliseconds; numerical warnings silenced.
    The standard errors are the roots of the diagonal of cov_x times the
    residual variance sum(r**2) / (m - n); they are infinite when cov_x
    cannot be estimated or m <= n, and then fail _report's amplitude test.
    Returns the parameters as a list, their standard errors and the
    residual norm; FitError("<name> fit failed: ...") carrying the last
    iterate as best unless MINPACK reports convergence (status 1-4).
    """
    # imported at the first fit: scipy.optimize is a quarter of the CLI's import
    # time, and most runs fit nothing
    from scipy.optimize import leastsq

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params, cov, info, message, status = leastsq(
            lambda p: model(t, *p) - y, p0, Dfun=lambda p: jacobian(t, *p), full_output=1,
            col_deriv=1, maxfev=max_evaluations, xtol=tolerance, ftol=tolerance, gtol=tolerance,
        )
    if status not in (1, 2, 3, 4):
        raise FitError(
            f"{name} fit failed: Optimal parameters not found: {message}", best=tuple(params)
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
        model, jacobian, t, y, [amp0, lifetime0, offset0], "exponential",
        EXPONENTIAL_MAX_EVALUATIONS, FIT_TOLERANCE,
    )
    return _report(
        "exponential", ("amplitude", "lifetime_ns", "offset"), params, sigmas, residual, "decay"
    )


def _pencil_poles(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrix-pencil poles z_i of y[k] = sum_i c_i z_i**k and the terms c_i z_i**k.

    Hua and Sarkar, IEEE Trans. ASSP 38, 814 (1990), with the right
    singular vectors of the L x W Hankel matrix H of y (pencil parameter
    W - 1 = n // 3, at most PENCIL_PARAMETER_MAX) taken from one symmetric
    eigenproblem of its W x W Gram matrix H^T H: its eigenvalues are the
    squared singular values s_i**2.  At most PENCIL_ORDER leading
    eigenvectors are kept, dropping those whose eigenvalue is at or below
    s_0**2 * max(L, W) * eps, eigh's rounding floor on the Gram matrix, so a
    bare exponential yields a single real pole.  Squaring halves the
    resolution of the order: a term counts when s_i / s_0 exceeds
    sqrt(max(L, W) * eps), about 1.6e-7 at 121 x 61, where an SVD of H
    itself resolves about 2.7e-14.  The poles are the eigenvalues of the
    pencil of the shifted subspaces, and one Vandermonde least-squares
    solve gives the amplitudes c_i.  The terms come back as an n x order
    array, one column per pole; a term's size is its column norm.
    """
    width = min(y.size // 3, PENCIL_PARAMETER_MAX) + 1
    hankel = np.lib.stride_tricks.sliding_window_view(y, width)
    squares, vectors = np.linalg.eigh(hankel.T @ hankel)
    squares, vectors = squares[::-1], vectors[:, ::-1]  # descending, as s_i**2
    cutoff = squares[0] * max(hankel.shape) * np.finfo(float).eps
    order = int(np.count_nonzero(squares[:PENCIL_ORDER] > cutoff))
    subspace = vectors[:, :order]
    shift = np.linalg.lstsq(subspace[:-1], subspace[1:], rcond=None)[0]
    poles = np.linalg.eigvals(shift)
    vandermonde = poles[np.newaxis, :] ** np.arange(y.size)[:, np.newaxis]
    amplitudes = np.linalg.lstsq(vandermonde, y, rcond=None)[0]
    return poles, vandermonde * amplitudes


def fit_damped_sinusoid(trace: TimeTrace) -> FitResult:
    """Least-squares fit of a * exp(-t/T) * cos(2 pi f t + phi) + c.

    Identifiability is decided in closed form before any iteration: the
    matrix-pencil poles of the trace (_pencil_poles, model "damped pair +
    decaying baseline + constant") must hold a conjugate pair turning
    through at least BASELINE_TURNS periods, and the strongest such pair
    (by the norm of its term) must show at least two periods over the
    span, else FitError is raised at once.  The pencil is also the fit's
    one model of the baseline: the real sum of its terms other than that
    pair and its conjugate is subtracted from the whole trace.  One
    unbounded MINPACK Levenberg-Marquardt solve (_solve: one leastsq call,
    analytic Jacobian, FIT_TOLERANCE) on the remainder then starts from
    the pencil pair's frequency and lifetime, with amplitude, phase and
    offset solved linearly at those values.  A non-positive fitted
    lifetime raises FitError.  cos is even, so a negative frequency is
    folded into the phase, (f, phi) -> (-f, -phi), and a negative
    amplitude adds pi to it; the phase is then wrapped into (-pi, pi].
    The fit is rejected if it lands below two periods or its amplitude is
    below MIN_AMPLITUDE_SIGMAS of its own standard errors.
    """
    t, y = _finite_trace(trace, "a sinusoid")
    steps = np.diff(t)
    step = float(steps[0])
    if np.max(np.abs(steps - step)) > 1e-6 * step:
        raise FitError("sinusoid fit needs a uniform time grid")
    span_ns = float(t[-1] - t[0])
    span_us = span_ns * 1e-3
    poles, terms = _pencil_poles(y)
    sizes = np.linalg.norm(terms, axis=0)
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

    # the pencil's other terms, the baseline and the constant, are its own
    # model of everything but the fringe: subtract their real sum
    baseline = np.ones(poles.size, dtype=bool)
    baseline[strongest] = False
    baseline[np.argmin(np.abs(poles - poles[strongest].conj()))] = False
    y_fit = y - terms[:, baseline].sum(axis=1).real

    omega = TWO_PI * f0 * 1e-3
    envelope = np.exp(-t / lifetime0)
    design = np.column_stack(
        (envelope * np.cos(omega * t), envelope * np.sin(omega * t), np.ones_like(t))
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

    params, sigmas, residual = _solve(
        model, jacobian, t, y_fit, p0, "sinusoid", SINUSOID_MAX_EVALUATIONS, FIT_TOLERANCE
    )
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
