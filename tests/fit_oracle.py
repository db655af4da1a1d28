"""References for the fits: a multi-start sinusoid search, the SVD pencil and central differences.

multistart_sinusoid is the search protocols.fit_damped_sinusoid used
before its matrix-pencil start: the strongest FFT peak at or above bin 2
gives the frequency and the phase, and a bounded curve_fit runs from 5
phases x 2 lifetimes, keeping the smallest residual.  It detrends as the
fit does: it subtracts the real sum of the terms of svd_pencil_poles
other than the strongest pole pair turning through at least
BASELINE_TURNS periods and its conjugate.  With the fit's tolerances, a
comparison isolates the choice of start and of solver.
svd_pencil_poles is the matrix pencil of protocols._pencil_poles with
its right singular vectors from one SVD of the Hankel matrix itself, not
from the Gram eigenproblem, and the order cutoff on the singular values;
like it, it returns the poles and their terms, one column per pole.
central_differences checks the fits' analytic Jacobians.
"""

import math
import warnings

import numpy as np
from scipy.optimize import curve_fit

from wgqed.core import TWO_PI
from wgqed.protocols import BASELINE_TURNS, FIT_TOLERANCE, PENCIL_ORDER, PENCIL_PARAMETER_MAX

# a start that has not converged after this many evaluations is dropped as
# failed: on the 24 traces of the test that compares with this search, the
# most a converging start took was 3,104, and the two that failed would
# have run on to 20,000 (about 20 s)
MAX_EVALUATIONS = 6000


def _model(t, amp, lifetime, f, phi, offset):
    return amp * np.exp(-t / lifetime) * np.cos(TWO_PI * f * t * 1e-3 + phi) + offset


def multistart_sinusoid(t, y):
    """Best (amplitude, lifetime_ns, frequency_mhz, phase_rad, offset) over 10 starts.

    The sign of the amplitude is folded into the phase, which is wrapped
    into (-pi, pi]; returns None when the pencil holds no fringe pair or
    every start fails.
    """
    step = float(t[1] - t[0])
    spectrum = np.fft.rfft(y - np.mean(y))
    freqs_mhz = np.fft.rfftfreq(t.size, d=step * 1e-3)
    magnitude = np.abs(spectrum)
    interior = np.arange(2, magnitude.size - 1)
    local_max = interior[
        (magnitude[interior] >= magnitude[interior - 1])
        & (magnitude[interior] >= magnitude[interior + 1])
    ]
    if local_max.size:
        peak = int(local_max[np.argmax(magnitude[local_max])])
    else:
        peak = int(np.argmax(magnitude[2:])) + 2
    f0 = float(freqs_mhz[peak])
    if 1 <= peak < spectrum.size - 1:
        left, centre, right = magnitude[peak - 1 : peak + 2]
        denom = left - 2 * centre + right
        shift = 0.5 * (left - right) / denom if denom else 0.0
        f0 += shift * (freqs_mhz[1] - freqs_mhz[0])
    phi0 = float(np.angle(spectrum[peak]))

    poles, terms = svd_pencil_poles(y)
    sizes = np.linalg.norm(terms, axis=0)
    turns = np.angle(poles) / TWO_PI * (t.size - 1)
    pairs = np.flatnonzero((poles.imag > 0) & (turns >= BASELINE_TURNS))
    if not pairs.size:
        return None
    fringe = pairs[np.argmax(sizes[pairs])]
    others = np.arange(poles.size) != fringe
    others[np.argmin(np.abs(poles - poles[fringe].conj()))] = False
    y_fit = y - terms[:, others].sum(axis=1).real
    amp0 = float(np.ptp(y_fit)) / 2.0

    span_ns = float(t[-1] - t[0])
    bounds = ([-np.inf, 1e-3, 0.0, -np.inf, -np.inf], [np.inf] * 5)
    best = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for phase_guess in (phi0, 0.0, math.pi / 2.0, math.pi, -math.pi / 2.0):
            for lifetime_guess in (span_ns / 2.0, span_ns * 5.0):
                try:
                    params, _ = curve_fit(
                        _model, t, y_fit, p0=[amp0, lifetime_guess, f0, phase_guess, 0.0],
                        bounds=bounds, maxfev=MAX_EVALUATIONS,
                        xtol=FIT_TOLERANCE, ftol=FIT_TOLERANCE, gtol=FIT_TOLERANCE,
                    )
                except RuntimeError:
                    continue
                residual = float(np.linalg.norm(_model(t, *params) - y_fit))
                if best is None or residual < best[1]:
                    best = (list(params), residual)
    if best is None:
        return None
    params = best[0]
    if params[0] < 0:
        params[0] = -params[0]
        params[3] += math.pi
    params[3] = math.pi - (math.pi - params[3]) % TWO_PI
    return tuple(params)


def svd_pencil_poles(y):
    """Matrix-pencil poles and terms of y from one SVD of its Hankel matrix.

    The same pencil parameter, order limit, shift-invariance solve and
    Vandermonde amplitudes as protocols._pencil_poles; a right singular
    vector is kept while its singular value exceeds s_0 * max(L, W) * eps.
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
    return poles, vandermonde * amplitudes


def central_differences(func, params, rel_step=1e-6):
    """Jacobian of the vector function func at params by central differences."""
    params = np.asarray(params, dtype=float)
    columns = []
    for k in range(params.size):
        step = rel_step * max(abs(params[k]), 1.0)
        up, down = params.copy(), params.copy()
        up[k] += step
        down[k] -= step
        columns.append((func(up) - func(down)) / (2.0 * step))
    return np.column_stack(columns)
