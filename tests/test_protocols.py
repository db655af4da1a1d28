import dataclasses
import math
from importlib.resources import files

import numpy as np
import pytest
import scipy.optimize
from dense_oracle import propagator
from fit_oracle import central_differences, multistart_sinusoid, svd_pencil_poles
from ode_oracle import dop853_states

from wgqed import cli, core, lindblad, protocols as pr, spectroscopy
from wgqed.core import QubitParams, SystemSpec
from wgqed.records import FitError, SpectrumScan, TimeTrace

GLOSS = 0.0065
MIRROR1 = QubitParams("M1", 13.4, GLOSS, 0.210)
PROBE = QubitParams("P", 1.19, GLOSS, 0.191)
MIRROR2 = QubitParams("M2", 96.7, GLOSS, 0.581)
PROBE2 = QubitParams("P2", 0.87, GLOSS, 0.332)
TWO_J1 = core.coupling_rate_2j(2, 13.4, 1.19)


def inverted_dephasing_spec(g1d_m, gphi_m, gphi_c, probe=PROBE, gloss=GLOSS):
    mirror = QubitParams("M", g1d_m, gloss, gphi_m)
    spec = core.cavity_spec(mirror, probe)
    return SystemSpec(
        qubits=spec.qubits,
        probe_index=spec.probe_index,
        detunings=spec.detunings,
        dephasing_correlations=((0, 2, gphi_c),),
    )


def fringe_on_baseline(seed):
    """Noisy damped fringe (121-181 points, 2.5-8 periods) on a decaying baseline."""
    rng = np.random.default_rng(seed)
    points = int(rng.integers(121, 182))
    freq = rng.uniform(2.0, 15.0)
    span = rng.uniform(2.5, 8.0) / freq * 1e3
    t = np.linspace(0.0, span, points)
    lifetime = rng.uniform(0.3, 2.0) * span
    fringe = rng.uniform(0.2, 0.5) * np.exp(-t / lifetime) * np.cos(
        2 * math.pi * freq * t * 1e-3 + rng.uniform(-math.pi, math.pi)
    )
    baseline = rng.uniform(-0.3, 0.3) * np.exp(-t / (rng.uniform(0.5, 3.0) * span))
    baseline += rng.uniform(0.3, 0.6)
    return t, fringe + baseline + rng.normal(0.0, rng.uniform(0.002, 0.01), points)


def pencil_trace(rng):
    """1-4 of a decay, a constant, a damped pair (0.2-12 turns) and a fast baseline, 40-301 points."""
    points = int(rng.integers(40, 302))
    span = rng.uniform(100.0, 5000.0)
    t = np.linspace(0.0, span, points)
    y = np.zeros(points)
    for kind in rng.permutation(4)[: int(rng.integers(1, 5))]:
        if kind == 0:
            y += rng.uniform(0.1, 1.0) * np.exp(-t / (rng.uniform(0.2, 3.0) * span))
        elif kind == 1:
            y += rng.uniform(-1.0, 1.0)
        elif kind == 2:
            turns = rng.uniform(0.2, 12.0)
            y += rng.uniform(0.05, 0.5) * np.exp(-t / (rng.uniform(0.3, 3.0) * span)) * np.cos(
                2 * math.pi * turns * t / span + rng.uniform(-math.pi, math.pi)
            )
        else:
            y += rng.uniform(0.1, 1.0) * np.exp(-t / (rng.uniform(0.01, 0.1) * span))
    return t, y


def noisy(rng, y, noise):
    """y plus Gaussian noise of standard deviation noise * max |y|."""
    return y + noise * np.max(np.abs(y)) * rng.standard_normal(y.size)


@pytest.fixture
def no_leastsq(monkeypatch):
    """Fails the test if any fit reaches scipy.optimize.leastsq."""

    def spy(*args, **kwargs):
        raise AssertionError("leastsq called on an unidentifiable trace")

    monkeypatch.setattr(scipy.optimize, "leastsq", spy)


class TestFits:
    def test_exponential_round_trip(self):
        t = np.linspace(0, 3000, 80)
        fit = pr.fit_exponential(TimeTrace(t, np.exp(-t / 757.0)))
        assert fit.value("lifetime_ns") == pytest.approx(757.0, rel=1e-3)
        assert fit.sigma("lifetime_ns") < 7.57
        assert fit.value("rate_mhz") == pytest.approx(1e3 / (2 * math.pi * 757.0), rel=1e-3)

    def test_exponential_stable_under_roundoff_perturbation(self):
        # with the analytic Jacobian a 2e-13 change of a two-timescale
        # trace moves every value and uncertainty by ~1e-11 relative; a
        # finite-difference Jacobian moved them by ~2e-8
        t = np.linspace(0, 3000, 40)
        y = 0.9 * np.exp(-t / 90.0) + 0.05 * np.exp(-t / 900.0)
        base = pr.fit_exponential(TimeTrace(t, y))
        for seed in range(3):
            noise = 2e-13 * np.random.default_rng(seed).standard_normal(t.size)
            moved = pr.fit_exponential(TimeTrace(t, y + noise))
            for name, (value, sigma) in base.parameters.items():
                assert moved.value(name) == pytest.approx(value, rel=1e-9)
                assert moved.sigma(name) == pytest.approx(sigma, rel=1e-9)

    def test_sinusoid_round_trip(self):
        t = np.linspace(0, 1000, 120)
        y = 0.5 * (1 + np.cos(2 * math.pi * 5.65 * t * 1e-3) * np.exp(-t / 400.0))
        fit = pr.fit_damped_sinusoid(TimeTrace(t, y))
        assert fit.value("frequency_mhz") == pytest.approx(5.65, rel=1e-3)
        assert fit.value("lifetime_ns") == pytest.approx(400.0, rel=1e-3)

    @pytest.mark.parametrize(
        "points, span, freq, lifetime, baseline",
        [(121, 1000.0, 5.65, 400.0, 800.0), (151, 600.0, 8.0, 500.0, 300.0)],
    )
    def test_fringe_on_decaying_baseline(self, points, span, freq, lifetime, baseline):
        # vacuum-Rabi-shaped traces: the baseline is two of the pencil's own
        # terms, so subtracting them leaves the fringe (errors ~1e-15); a
        # moving-average detrend biased the amplitude by -0.4% and -0.6%
        t = np.linspace(0, span, points)
        y = (0.4 * np.exp(-t / lifetime) * np.cos(2 * math.pi * freq * t * 1e-3 + 0.3)
             + 0.4 * np.exp(-t / baseline) + 0.1)
        fit = pr.fit_damped_sinusoid(TimeTrace(t, y))
        assert fit.value("amplitude") == pytest.approx(0.4, rel=1e-2)
        assert fit.value("frequency_mhz") == pytest.approx(freq, rel=1e-4)

    def test_constant_trace_rejected(self):
        t = np.linspace(0, 100, 20)
        with pytest.raises(FitError, match="unidentifiable"):
            pr.fit_exponential(TimeTrace(t, np.full(20, 0.3)))

    def test_too_few_points_rejected(self):
        t = np.linspace(0, 100, 5)
        with pytest.raises(FitError):
            pr.fit_exponential(TimeTrace(t, np.exp(-t / 30)))

    def test_too_few_periods_rejected(self):
        t = np.linspace(0, 100, 40)
        y = np.cos(2 * math.pi * 0.005 * t)  # half a period over the span
        with pytest.raises(FitError, match="periods"):
            pr.fit_damped_sinusoid(TimeTrace(t, y))
        # with 1e-3 noise an unguarded search finds a "fringe" in the noise
        # (195 and 161 MHz for these seeds); the 5 MHz half period is the
        # strongest pole pair, so the trace is rejected for its periods
        for seed in (8, 9):
            noise = 1e-3 * np.random.default_rng(seed).standard_normal(t.size)
            noisy = np.sin(2 * math.pi * 0.005 * t) + noise
            with pytest.raises(FitError, match="periods"):
                pr.fit_damped_sinusoid(TimeTrace(t, noisy))

    def test_rejections_decided_before_any_iteration(self, no_leastsq):
        t = np.linspace(0, 100, 40)
        half = 2 * math.pi * 0.005 * t  # 5 MHz over 0.1 us: half a period
        traces = [np.sin(half), np.cos(half), np.exp(-t / 60.0)]
        for seed in range(10):
            noise = 1e-3 * np.random.default_rng(seed).standard_normal(t.size)
            traces += [np.sin(half) + noise, np.cos(half) + noise]
        for y in traces:
            with pytest.raises(FitError, match="periods"):
                pr.fit_damped_sinusoid(TimeTrace(t, y))

    def test_sub_resolution_noise_rejected_before_any_iteration(self, no_leastsq):
        # noise of 1e-10 lies below the Gram pencil's resolution (s_i / s_0
        # ~ 1.6e-7 at 121 x 61), so a constant or a bare decay keeps one real
        # pole; an SVD pencil resolves the noise into a pole pair and sends
        # these traces into leastsq, to be rejected only after it
        t = np.linspace(0, 1000, 121)
        for y in (np.full(t.size, 0.3), np.exp(-t / 400.0)):
            for seed in range(5):
                trace = TimeTrace(t, noisy(np.random.default_rng(seed), y, 1e-10))
                with pytest.raises(FitError, match="fewer than two visible periods .no oscillating"):
                    pr.fit_damped_sinusoid(trace)

    def test_single_start_matches_multistart_search(self):
        for seed in range(24):
            t, y = fringe_on_baseline(seed)
            fit = pr.fit_damped_sinusoid(TimeTrace(t, y))
            _, ref_lifetime, ref_freq, _, _ = multistart_sinusoid(t, y)
            assert fit.value("frequency_mhz") == pytest.approx(ref_freq, rel=1e-6)
            assert fit.value("lifetime_ns") == pytest.approx(ref_lifetime, rel=1e-6)

    def test_pencil_parameter_is_capped(self, monkeypatch):
        # a long trace keeps a Hankel matrix of at most 101 columns, so its
        # Gram eigenproblem stays 101 x 101; short ones keep n // 3 + 1
        shapes = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(pr.np.linalg, "eigh", recording_eigh)
        for points, shape in ((3001, (101, 101)), (281, (94, 94))):
            shapes.clear()
            t = np.linspace(0, 1000, points)
            y = 0.5 * (1 + np.cos(2 * math.pi * 5.65 * t * 1e-3) * np.exp(-t / 400.0))
            fit = pr.fit_damped_sinusoid(TimeTrace(t, y))
            assert fit.value("frequency_mhz") == pytest.approx(5.65, rel=1e-6)
            assert shapes == [shape]

    def test_gram_pencil_matches_svd_oracle(self):
        # the Gram matrix carries rounding of ~max(L, W) * eps * s_0**2, which
        # moves a pole by about that over the squared gap to the noise floor:
        # the poles must agree within 1e4 * eps / noise**2 (2e-2 at 1e-5,
        # 2e-8 at 1e-2; the worst of 6000 traces was 3.7e-3 and 4.3e-10)
        rng = np.random.default_rng(11)
        for k in range(200):
            noise = (1e-5, 1e-4, 1e-3, 1e-2)[k % 4]
            y = noisy(rng, pencil_trace(rng)[1], noise)
            poles, _ = pr._pencil_poles(y)
            expected, _ = svd_pencil_poles(y)
            assert poles.size == expected.size
            gap = np.abs(poles[:, np.newaxis] - expected)
            tol = 1e4 * np.finfo(float).eps / noise**2
            assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= tol

    def test_exact_low_rank_traces_keep_their_order(self):
        # the Gram matrix's rounding puts the eigenvalues past a trace's rank
        # at up to ~0.05 * max(L, W) * eps * s_0**2 (above eps * s_0**2 in
        # most of these traces), so only a cutoff at max(L, W) * eps keeps a
        # bare decay at one real pole and a decay on a constant at two
        rng = np.random.default_rng(13)
        for rank in (1, 2) * 20:
            t = np.arange(int(rng.integers(40, 400)))
            y = rng.uniform(0.1, 1.0) * np.exp(-t / (rng.uniform(0.05, 3.0) * t.size))
            if rank == 2:
                y += rng.uniform(-1.0, 1.0)
            poles, _ = pr._pencil_poles(y)
            assert poles.size == rank
            assert np.all(poles.imag == 0)

    def test_fit_outcomes_match_svd_oracle(self, monkeypatch):
        # every trace is accepted or rejected as with the SVD pencil, and an
        # accepted fit agrees within 1e-7: the amplitude and frequency
        # relative, the phase in rad, the offset relative to max |y| and the
        # decay over the span, span / T, relative to max(span / T, 1), since
        # a lifetime far beyond the span is not resolved
        rng = np.random.default_rng(12)
        traces = []
        for k in range(56):
            t, y = pencil_trace(rng)
            traces.append((t, noisy(rng, y, (0.0, 1e-10, 1e-7, 1e-5, 1e-4, 1e-3, 1e-2)[k % 7])))
        names = ("amplitude", "lifetime_ns", "frequency_mhz", "phase_rad", "offset")

        def outcomes():
            results = []
            for t, y in traces:
                try:
                    fit = pr.fit_damped_sinusoid(TimeTrace(t, y))
                except FitError:
                    results.append(None)
                else:
                    amp, lifetime, freq, phase, offset = (fit.value(name) for name in names)
                    results.append(np.array([amp, (t[-1] - t[0]) / lifetime, freq, phase, offset]))
            return results

        fits = outcomes()
        monkeypatch.setattr(pr, "_pencil_poles", svd_pencil_poles)
        for (t, y), fit, expected in zip(traces, fits, outcomes()):
            assert (fit is None) == (expected is None)
            if fit is not None:
                scale = np.abs(expected)
                scale[1], scale[3], scale[4] = max(scale[1], 1.0), 1.0, np.max(np.abs(y))
                assert np.all(np.abs(fit - expected) <= 1e-7 * scale)
        assert 0 < sum(fit is None for fit in fits) < len(fits)

    def test_slow_baseline_pair_is_no_fringe(self):
        # in this trace noise merges the constant and the baseline into a
        # pole pair (0.02 turns) that outweighs the 3.2-period fringe
        t, y = fringe_on_baseline(39)
        poles, terms = pr._pencil_poles(y)
        sizes = np.linalg.norm(terms, axis=0)
        pairs = np.flatnonzero(poles.imag > 0)
        turns = np.angle(poles[pairs]) / (2 * math.pi) * (t.size - 1)
        assert sorted(np.round(turns, 2)) == [0.02, 3.24]
        assert sizes[pairs[np.argmin(turns)]] > sizes[pairs[np.argmax(turns)]]
        _, ref_lifetime, ref_freq, _, _ = multistart_sinusoid(t, y)
        fit = pr.fit_damped_sinusoid(TimeTrace(t, y))
        assert fit.value("frequency_mhz") == pytest.approx(ref_freq, rel=1e-6)
        assert fit.value("lifetime_ns") == pytest.approx(ref_lifetime, rel=1e-6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_trace_rejected_by_name(self, bad):
        t = np.linspace(0, 1000, 120)
        y = 0.5 * (1 + np.cos(2 * math.pi * 5.65 * t * 1e-3) * np.exp(-t / 400.0))
        y[17] = bad
        for fit in (pr.fit_exponential, pr.fit_damped_sinusoid):
            with pytest.raises(FitError, match="non-finite"):
                fit(TimeTrace(t, y))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected_by_name(self, bad):
        t = np.linspace(0, 1000, 120)
        t[17] = bad
        with pytest.raises(ValueError, match=rf"^times must be finite: time {bad:g} ns$"):
            TimeTrace(t, np.ones(120))

    @pytest.mark.parametrize("times", [[0.0, 2.0, 2.0, 3.0], [0.0, 2.0, 1.0, 3.0]])
    def test_non_increasing_time_rejected_by_name(self, times):
        with pytest.raises(ValueError, match=rf"^times must be strictly increasing: time {times[2]:g} ns follows 2 ns$"):
            TimeTrace(times, [1.0, 2.0, 3.0, 4.0])

    def test_phase_in_half_open_interval(self):
        # the sign fold and a start near +-pi can land the fit a period away
        t = np.linspace(0, 1000, 120)
        for phase in (-3.0, -1.5, 0.0, 1.5, 3.0):
            for amp in (0.4, -0.4):
                y = 0.5 + amp * np.cos(2 * math.pi * 5.65 * t * 1e-3 + phase) * np.exp(-t / 400.0)
                fitted = pr.fit_damped_sinusoid(TimeTrace(t, y)).value("phase_rad")
                assert -math.pi < fitted <= math.pi
                expected = phase + (math.pi if amp < 0 else 0.0)
                assert abs(math.remainder(fitted - expected, 2 * math.pi)) < 0.1

    def test_growing_exponential_rejected(self):
        # unguarded, this returned lifetime 3.6e10 ns and amplitude
        # -2.2e8 +- 5.9e14: a decay no data point constrains
        t = np.linspace(0, 1000, 50)
        with pytest.raises(FitError, match="amplitude"):
            pr.fit_exponential(TimeTrace(t, np.exp(t / 500.0)))

    def test_fits_are_unbounded_lm_with_exact_jacobians(self, monkeypatch):
        calls = []
        real_leastsq = scipy.optimize.leastsq

        def recording_leastsq(func, x0, **kwargs):
            calls.append((func, x0, kwargs))
            return real_leastsq(func, x0, **kwargs)

        monkeypatch.setattr(scipy.optimize, "leastsq", recording_leastsq)
        t = np.linspace(0, 1000, 120)
        pr.fit_exponential(TimeTrace(t, 0.2 + 0.7 * np.exp(-t / 300.0)))
        y = 0.5 + 0.4 * np.cos(2 * math.pi * 5.65 * t * 1e-3 + 1.0) * np.exp(-t / 400.0)
        pr.fit_damped_sinusoid(TimeTrace(t, y))
        assert len(calls) == 2
        rng = np.random.default_rng(3)
        for func, x0, kwargs in calls:
            assert "bounds" not in kwargs
            assert kwargs["full_output"] and kwargs["col_deriv"]
            cap = pr.EXPONENTIAL_MAX_EVALUATIONS if len(x0) == 3 else pr.SINUSOID_MAX_EVALUATIONS
            assert kwargs["maxfev"] == cap
            assert kwargs["xtol"] == kwargs["ftol"] == kwargs["gtol"] == pr.FIT_TOLERANCE
            for _ in range(5):
                amp, lifetime, offset = rng.uniform(-1, 1), rng.uniform(50, 2000), rng.uniform(-1, 1)
                if len(x0) == 3:
                    params = [amp, lifetime, offset]
                else:
                    params = [amp, lifetime, rng.uniform(1, 20), rng.uniform(-3, 3), offset]
                # col_deriv: the Jacobian comes back as rows, one per parameter
                exact = kwargs["Dfun"](np.array(params)).T
                numeric = central_differences(func, params)
                column_error = np.linalg.norm(exact - numeric, axis=0)
                assert np.all(column_error <= 1e-6 * np.linalg.norm(exact, axis=0))

    def test_runaway_fit_rejected_at_the_cap(self, monkeypatch):
        # a 130-point trace of the rng-12 panel whose refinement runs to the
        # cap: it stops at 600 evaluations, as a named FitError whose best
        # is the solve's last iterate, not its start
        rng = np.random.default_rng(12)
        for k in range(74):
            t, y = pencil_trace(rng)
            y = noisy(rng, y, (0.0, 1e-10, 1e-7, 1e-5, 1e-4, 1e-3, 1e-2)[k % 7])
        assert t.size == 130
        calls = []
        real_leastsq = scipy.optimize.leastsq

        def recording_leastsq(func, x0, **kwargs):
            result = real_leastsq(func, x0, **kwargs)
            calls.append((kwargs["maxfev"], result[2]["nfev"], tuple(x0), tuple(result[0])))
            return result

        monkeypatch.setattr(scipy.optimize, "leastsq", recording_leastsq)
        with pytest.raises(FitError, match=r"^sinusoid fit failed: .* maxfev = 600\.") as failure:
            pr.fit_damped_sinusoid(TimeTrace(t, y))
        assert pr.SINUSOID_MAX_EVALUATIONS == 600
        ((cap, evaluations, start, last),) = calls
        assert (cap, evaluations) == (600, 600)
        assert failure.value.best == last != start

    def test_fits_call_no_scipy_front_end(self, monkeypatch):
        def front_end(*args, **kwargs):
            raise AssertionError("a fit went through a scipy.optimize front-end")

        monkeypatch.setattr(scipy.optimize, "curve_fit", front_end)
        monkeypatch.setattr(scipy.optimize, "least_squares", front_end)
        t = np.linspace(0, 1000, 120)
        fit = pr.fit_exponential(TimeTrace(t, 0.2 + 0.7 * np.exp(-t / 300.0)))
        assert fit.value("lifetime_ns") == pytest.approx(300.0, rel=1e-9)
        y = 0.5 + 0.4 * np.cos(2 * math.pi * 5.65 * t * 1e-3 + 1.0) * np.exp(-t / 400.0)
        fit = pr.fit_damped_sinusoid(TimeTrace(t, y))
        assert fit.value("frequency_mhz") == pytest.approx(5.65, rel=1e-9)
        q = QubitParams.from_gamma_prime("Q", 18.1, 0.185)
        grid = np.linspace(-150, 150, 801)
        t_scan = [spectroscopy.single_qubit_transmission(q, delta=d - 1.3) for d in grid]
        f0, g1d, _, _ = spectroscopy.lorentzian_fit(SpectrumScan(grid, t_scan))
        assert (f0, g1d) == (pytest.approx(1.3, abs=1e-6), pytest.approx(18.1, rel=1e-6))

    def patched_sinusoid_fit(self, monkeypatch, change):
        """fit_damped_sinusoid of a known fringe, with change applied to leastsq's solution."""
        real_leastsq = scipy.optimize.leastsq

        def changed_leastsq(*args, **kwargs):
            params, *rest = real_leastsq(*args, **kwargs)
            return (change(params.copy()), *rest)

        t = np.linspace(0, 1000, 120)
        y = 0.5 + 0.4 * np.cos(2 * math.pi * 5.65 * t * 1e-3 + 1.0) * np.exp(-t / 400.0)
        trace = TimeTrace(t, y)
        reference = pr.fit_damped_sinusoid(trace)
        monkeypatch.setattr(scipy.optimize, "leastsq", changed_leastsq)
        return reference, lambda: pr.fit_damped_sinusoid(trace)

    def test_negative_frequency_folded_into_phase(self, monkeypatch):
        def mirror(params):
            params[2:4] *= -1.0
            return params

        reference, fit = self.patched_sinusoid_fit(monkeypatch, mirror)
        folded = fit()
        assert folded.value("frequency_mhz") == pytest.approx(5.65, rel=1e-6)
        for name, (value, sigma) in reference.parameters.items():
            assert folded.value(name) == pytest.approx(value, rel=1e-12)
            assert folded.sigma(name) == pytest.approx(sigma, rel=1e-12)

    @pytest.mark.parametrize("lifetime", [0.0, -400.0])
    def test_non_positive_lifetime_rejected(self, monkeypatch, lifetime):
        def shorten(params):
            params[1] = lifetime
            return params

        _, fit = self.patched_sinusoid_fit(monkeypatch, shorten)
        with pytest.raises(FitError, match="lifetime"):
            fit()


class TestVacuumRabi:
    def test_oscillation_at_generalized_frequency(self):
        spec = core.cavity_spec(MIRROR1, PROBE, probe_detuning=1.0)
        trace = pr.simulate_vacuum_rabi(spec, np.linspace(0, 900, 181))
        fit = pr.fit_damped_sinusoid(trace)
        assert fit.value("frequency_mhz") == pytest.approx(math.hypot(TWO_J1, 1.0), rel=0.01)

    def test_frequency_law_over_detuning_grid(self):
        # cross-module oracle: coupling rate from the collective-mode layer
        for detuning in (0.0, TWO_J1 / 4, TWO_J1 / 2, TWO_J1, 2 * TWO_J1):
            spec = core.cavity_spec(MIRROR1, PROBE, probe_detuning=detuning)
            trace = pr.simulate_vacuum_rabi(spec, np.linspace(0, 1200, 241))
            fit = pr.fit_damped_sinusoid(trace)
            expected = math.hypot(TWO_J1, detuning)
            assert fit.value("frequency_mhz") == pytest.approx(expected, rel=0.01)

    @pytest.mark.parametrize("name", ["fig3a_type1", "fig3a_type2"])
    def test_bundled_fit_is_the_exact_mode(self, name):
        # the fit of the trace a bundled config runs lands on the Liouvillian
        # mode that carries the fringe; a one-period moving-average detrend
        # left fig3a_type1 off by 3.4e-3 in frequency and 6.6e-3 in lifetime
        config = cli.load_config(files("wgqed").joinpath(f"configs/{name}.cfg"))
        params = config["params"]
        spec = cli.build_system(config["system"])
        detunings = list(spec.detunings)
        detunings[spec.probe_index] = params["probe_detuning_mhz"]
        spec = spec.with_detunings(detunings)
        taus = np.linspace(0.0, params["tau_max_ns"], params["points"])
        fit = pr.fit_damped_sinusoid(pr.simulate_vacuum_rabi(spec, taus))
        model = lindblad.build_model(spec)
        frequency, damping = lindblad.dominant_oscillation(
            model, pr._probe_excited(spec, model.basis), model.basis.number(spec.probe_index)
        )
        assert fit.value("frequency_mhz") == pytest.approx(frequency, rel=1e-6)
        assert fit.value("lifetime_ns") == pytest.approx(1e3 / (2 * math.pi * damping), rel=1e-6)

    def test_far_detuned_probe_decays_freely(self):
        spec = core.cavity_spec(MIRROR1, PROBE)
        trace = pr.simulate_vacuum_rabi(spec, np.linspace(0, 1200, 61), probe_detuning=-50.0)
        fit = pr.fit_exponential(trace)
        assert fit.value("rate_mhz") == pytest.approx(1.19 + GLOSS, rel=0.01)

    def test_lossless_oscillation_full_contrast(self):
        spec = core.cavity_spec(QubitParams("M", 13.4), QubitParams("P", 1.19))
        period = 1e3 / TWO_J1
        trace = pr.simulate_vacuum_rabi(spec, np.linspace(0, 2 * period, 81))
        # minimum reaches zero: perfect fringe visibility
        assert trace.values.min() < 1e-4

    @pytest.mark.parametrize("n_mirrors, n_th, reached", [(4, 0.0, 26), (2, 0.05, 20)])
    def test_hold_matches_full_space(self, monkeypatch, n_mirrors, n_th, reached):
        # the hold exponentiates only the coordinates the excited probe can
        # reach (N_a = N_b, and at n_th = 0 at most one excitation); the
        # reference integrates the full space with DOP853
        spec = core.cavity_spec(MIRROR1, PROBE, n_mirrors=n_mirrors, probe_detuning=0.5, n_th=n_th)
        taus = np.linspace(0, 400, 81)
        blocks, expm = [], lindblad._expm
        monkeypatch.setattr(lindblad, "_expm", lambda a: blocks.append(len(a)) or expm(a))
        trace = pr.simulate_vacuum_rabi(spec, taus)
        assert blocks == [reached]
        full = lindblad.build_model(spec)
        excited = full.basis.basis_vector(1 << spec.probe_index)
        reference = dop853_states(
            full, np.outer(excited, excited.conj()), taus * 1e-3, rtol=1e-11, atol=1e-13
        )
        number = full.basis.number(spec.probe_index)
        expected = [np.real(np.trace(number @ rho)) for rho in reference]
        assert np.max(np.abs(trace.values - expected)) < 1e-9


def count_calls(monkeypatch, *names) -> dict:
    """Count the calls of lindblad functions by name while monkeypatch holds."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(lindblad, name)

        def counting(*args, name=name, real=real, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(lindblad, name, counting)
    return counts


class TestCoordinateReadouts:
    """Traces read off the diagonal coordinates or built with shared swaps, bit for bit as before."""

    @staticmethod
    def evolved_populations(model, number, rho0, taus):
        return pr._populations(number, lindblad.evolve(model, rho0, taus * 1e-3))

    @pytest.mark.parametrize("n_mirrors, n_th", [(2, 0.0), (4, 0.0), (2, 0.05)])
    def test_vacuum_rabi(self, n_mirrors, n_th):
        spec = core.cavity_spec(MIRROR1, PROBE, n_mirrors=n_mirrors, probe_detuning=0.5, n_th=n_th)
        taus = np.linspace(0, 400, 81)
        model = lindblad.build_model(spec)
        expected = self.evolved_populations(
            model, model.basis.number(spec.probe_index), pr._probe_excited(spec, model.basis), taus
        )
        assert pr.simulate_vacuum_rabi(spec, taus).values.tobytes() == expected.tobytes()

    def test_compound_mirrors(self, monkeypatch):
        # both dark holds run on the spec's one model, the probe moved by an
        # offset: bit for bit the same offsets on a fresh model, and within
        # 1e-12 a model built with the probe at the dark frequency
        spec = core.compound_mirror_spec(
            QubitParams("M", 13.4, GLOSS, 0.146), PROBE, direct_g=46.0, pair_detuning=20.0
        )
        taus = np.linspace(0, 400, 81)
        with monkeypatch.context() as patch:
            counts = count_calls(patch, "build_model", "_kron_terms", "_sector_generator")
            result = pr.simulate_compound_mirrors(spec, taus)
        assert counts == {"build_model": 1, "_kron_terms": 1, "_sector_generator": 1}
        probe = spec.probe_index
        for trace, freq in zip(result.traces, result.dark_frequencies):
            offsets = np.zeros(spec.n_qubits)
            offsets[probe] = freq - spec.detunings[probe]
            model = lindblad.build_model(spec)
            number, excited = model.basis.number(probe), pr._probe_excited(spec, model.basis)
            expected = pr._populations(number, lindblad.evolve(model, excited, taus * 1e-3, offsets))
            assert trace.values.tobytes() == expected.tobytes()
            detunings = list(spec.detunings)
            detunings[probe] = freq
            rebuilt = lindblad.build_model(spec.with_detunings(detunings))
            reference = self.evolved_populations(rebuilt, number, excited, taus)
            assert np.max(np.abs(trace.values - reference)) < 1e-12

    @pytest.mark.parametrize("n_th", [0.0, 0.05])
    def test_two_excitation(self, monkeypatch, n_th):
        # the swap and the re-excited hold share the spec model's factors:
        # one _kron_terms for it and one for the linear cavity
        spec = core.cavity_spec(MIRROR1, PROBE, probe_detuning=0.3, n_th=n_th)
        taus = np.linspace(0, 500, 101)
        built, kron_terms = [], lindblad._kron_terms
        with monkeypatch.context() as patch:
            patch.setattr(lindblad, "_kron_terms", lambda m: built.append(m) or kron_terms(m))
            atomic, companion, frequencies = pr.simulate_two_excitation(spec, taus)
        assert len(built) == 2
        model = lindblad.build_model(spec)
        probe = spec.probe_index
        rho = pr.rotate_qubit(pr._iswap(spec, model), model.basis, probe, math.pi)
        expected = self.evolved_populations(model, model.basis.number(probe), rho, taus)
        assert atomic.values.tobytes() == expected.tobytes()
        cavity_model, ops = pr.linear_cavity_model(spec)
        rho_c = np.outer(ops["excited_one_photon"], ops["excited_one_photon"].conj())
        expected = self.evolved_populations(cavity_model, ops["probe_number"], rho_c, taus)
        assert companion.values.tobytes() == expected.tobytes()
        # the companion frequencies are the exact modes of a fresh linear
        # cavity, seen from |e, 0> and from |e, 1>
        fresh, ops = pr.linear_cavity_model(spec)
        starts = [np.outer(ops[k], ops[k].conj()) for k in ("excited_no_photon", "excited_one_photon")]
        (first, _), (second, _) = lindblad.dominant_oscillation(
            fresh, np.array(starts), ops["probe_number"]
        )
        assert frequencies == (first, second)

    @pytest.mark.parametrize("ramsey", [False, True])
    def test_staged_swaps_build_one_block(self, monkeypatch, ramsey):
        # the swap in, the wait (the spec's detunings plus offsets) and the
        # swap back run on one model of the spec and reach one set of
        # coordinates, so its factors and block are built once; the trace
        # is that of the same holds on fresh models, bit for bit, and within
        # 1e-12 that of a wait on a model built at the wait's detunings.  The
        # mirrors are slightly detuned: at zero detunings the exchange graph is
        # bipartite, and the trace would not tell an offset from its negative
        spec = inverted_dephasing_spec(13.4, 0.36275, 0.15925).with_detunings((0.4, 0.0, -0.3))
        delays = np.linspace(0, 1500, 31)

        def trace():
            if ramsey:
                return pr.simulate_ramsey_dark(spec, delays).values
            return pr.simulate_t1_dark(spec, delays).values

        evolve, build_model = lindblad.evolve, lindblad.build_model

        def fresh(model, rho, times, offsets=None):
            return evolve(dataclasses.replace(model), rho, times, offsets)

        def rebuilt(model, rho, times, offsets=None):
            if offsets is not None:
                model = build_model(spec.with_detunings(np.add(spec.detunings, offsets)))
            return evolve(model, rho, times)

        with monkeypatch.context() as patch:
            patch.setattr(lindblad, "evolve", fresh)
            expected = trace()
            patch.setattr(lindblad, "evolve", rebuilt)
            reference = trace()
        counts = count_calls(monkeypatch, "build_model", "_kron_terms", "_sector_generator")
        values = trace()
        assert values.tobytes() == expected.tobytes()
        assert counts == {"build_model": 1, "_kron_terms": 1, "_sector_generator": 1}
        assert np.max(np.abs(values - reference)) < 1e-12


class TestIswap:
    def test_duration_is_half_rabi_period(self):
        spec = core.cavity_spec(MIRROR1, PROBE)
        assert core.iswap_duration_ns(spec) == pytest.approx(1e3 / (2 * TWO_J1), rel=1e-12)

    def test_swap_unitarity_in_coherent_limit(self):
        # two consecutive swaps return the probe population when the
        # dissipative part of the generator is switched off
        spec = core.cavity_spec(QubitParams("M", 13.4), QubitParams("P", 1.19))
        model = lindblad.build_model(spec)
        coherent = lindblad.LindbladModel(model.hamiltonian)
        basis = model.basis
        rho = np.outer(
            basis.basis_vector(1 << spec.probe_index),
            basis.basis_vector(1 << spec.probe_index).conj(),
        )
        swap_us = core.iswap_duration_ns(spec) * 1e-3
        for _ in range(2):
            rho = lindblad.evolve(coherent, rho, np.array([0.0, swap_us]))[-1]
        population = float(np.real(np.trace(basis.number(spec.probe_index) @ rho)))
        assert population == pytest.approx(1.0, abs=1e-6)

    def test_lossless_transfer_limited_by_probe_emission(self):
        # with no parasitics the swap still loses the probe's radiative
        # emission during the transfer, about exp(-pi gamma_p / (2 * 2J))
        spec = core.cavity_spec(QubitParams("M", 13.4), QubitParams("P", 1.19))
        final = pr.iswap(spec)
        basis = lindblad.ProductBasis(3)
        population = pr.dark_population(spec, basis, final)
        estimate = math.exp(-math.pi * 1.19 / (2 * TWO_J1))
        assert population == pytest.approx(estimate, rel=0.05)

    @pytest.mark.parametrize("n_mirrors", [2, 4])
    def test_dark_population_is_whole_dark_subspace(self, n_mirrors):
        # four mirrors have a 3-fold degenerate dark subspace; the probe
        # fills only its state along the exchange row, so the population
        # of that state is the population of the whole subspace
        spec = core.cavity_spec(QubitParams("M", 13.4), QubitParams("P", 1.19), n_mirrors=n_mirrors)
        final = pr.iswap(spec)
        basis = lindblad.ProductBasis(spec.n_qubits)
        mirrors = list(spec.mirror_indices)
        gamma = core.waveguide_decay_matrix(spec)[np.ix_(mirrors, mirrors)]
        values, vectors = np.linalg.eigh(gamma)
        subspace = 0.0
        for k in np.flatnonzero(values < 1e-9 * values.max()):
            dark = sum(vectors[i, k] * basis.basis_vector(1 << m) for i, m in enumerate(mirrors))
            subspace += np.vdot(dark, final @ dark).real
        population = pr.dark_population(spec, basis, final)
        assert population == pytest.approx(subspace, abs=1e-12)
        if n_mirrors == 2:
            assert population == pytest.approx(0.726213, abs=5e-7)

    @pytest.mark.parametrize("n_th, reached", [(0.0, 10), (0.05, 20)])
    def test_hold_matches_full_space(self, monkeypatch, n_th, reached):
        # the hold exponentiates the 10 coordinates of the ground and
        # one-excitation blocks at n_th = 0, the 20 with N_a = N_b when
        # thermal; the reference propagates the whole 64-entry vec
        spec = core.cavity_spec(MIRROR1, PROBE, probe_detuning=0.7, n_th=n_th)
        blocks, expm = [], lindblad._expm
        monkeypatch.setattr(lindblad, "_expm", lambda a: blocks.append(len(a)) or expm(a))
        final = pr.iswap(spec)
        assert blocks == [reached]
        model = lindblad.build_model(spec)
        excited = pr._probe_excited(spec, model.basis).reshape(-1)
        reference = propagator(model, core.iswap_duration_ns(spec) * 1e-3) @ excited
        assert final.shape == (8, 8)
        assert np.max(np.abs(final - reference.reshape(8, 8))) < 1e-12

    def test_uncoupled_probe_has_no_dark_state(self):
        spec = core.cavity_spec(QubitParams("M", 13.4), QubitParams("P", 0.0))
        with pytest.raises(ValueError, match="not coupled"):
            pr.dark_state_vector(spec, lindblad.ProductBasis(3))

    def test_first_peak_population_slow_mirrors(self):
        spec = core.cavity_spec(MIRROR1, PROBE, probe_detuning=1.0)
        final = pr.iswap(spec)
        basis = lindblad.ProductBasis(3)
        assert pr.dark_population(spec, basis, final) == pytest.approx(0.68, rel=0.10)

    def test_fast_mirror_transfer_beats_slow(self):
        # larger 2J/gamma_p ratio transfers more population per swap
        spec2 = core.cavity_spec(MIRROR2, PROBE2, probe_detuning=5.9)
        final2 = pr.iswap(spec2)
        basis = lindblad.ProductBasis(3)
        pop2 = pr.dark_population(spec2, basis, final2)
        spec1 = core.cavity_spec(MIRROR1, PROBE, probe_detuning=1.0)
        final1 = pr.iswap(spec1)
        pop1 = pr.dark_population(spec1, basis, final1)
        assert pop2 > pop1
        loss_ratio = (1 - pop2) / (1 - pop1)
        coupling_ratio = (0.87 / core.coupling_rate_2j(2, 96.7, 0.87)) / (
            1.19 / TWO_J1
        )
        assert loss_ratio < 1.0
        assert coupling_ratio < 1.0


class TestDarkStateLifetimes:
    @staticmethod
    def dark_fits(spec, t1_delays):
        """Exponential fit of a T1 run parked at -100 MHz, damped-sinusoid fit of a 3 MHz Ramsey run."""
        t1 = pr.simulate_t1_dark(spec, t1_delays, park_detuning=-100.0)
        ramsey = pr.simulate_ramsey_dark(spec, np.linspace(20, 1100, 55), artificial_detuning=3.0)
        return pr.fit_exponential(t1), pr.fit_damped_sinusoid(ramsey)

    def test_slow_mirror_pair_t1(self):
        spec = inverted_dephasing_spec(13.4, 0.36275, 0.15925)
        fit = pr.fit_exponential(pr.simulate_t1_dark(spec, np.linspace(250, 2500, 26)))
        assert fit.value("lifetime_ns") == pytest.approx(757.0, rel=0.10)

    def test_fast_mirror_pair_t1(self):
        spec = inverted_dephasing_spec(96.7, 0.83475, 0.26025, probe=PROBE2)
        fit = pr.fit_exponential(pr.simulate_t1_dark(spec, np.linspace(120, 1000, 23)))
        assert fit.value("lifetime_ns") == pytest.approx(274.0, rel=0.10)

    def test_decay_free_pair_stays_flat(self):
        # the dark state itself is decoherence-free (the 1e-8 stationarity
        # check lives with the master-equation tests); through the full
        # protocol only the probe's radiative transient and the finite
        # parking detuning remain, at the percent level
        spec = core.cavity_spec(QubitParams("M", 13.4), QubitParams("P", 1.19))
        trace = pr.simulate_t1_dark(spec, np.linspace(100, 1500, 15))
        assert np.ptp(trace.values) < 0.02
        lossy = core.cavity_spec(QubitParams("M", 13.4, GLOSS, 0.36), QubitParams("P", 1.19))
        reference = pr.simulate_t1_dark(lossy, np.linspace(100, 1500, 15))
        assert np.ptp(reference.values) > 10 * np.ptp(trace.values)

    def test_slow_mirror_pair_ramsey(self):
        spec = inverted_dephasing_spec(13.4, 0.36275, 0.15925)
        trace = pr.simulate_ramsey_dark(spec, np.linspace(20, 1300, 65), artificial_detuning=3.0)
        fit = pr.fit_damped_sinusoid(trace)
        assert fit.value("lifetime_ns") == pytest.approx(435.0, rel=0.10)
        assert fit.value("frequency_mhz") == pytest.approx(3.0, abs=0.3)

    def test_fast_mirror_pair_ramsey(self):
        spec = inverted_dephasing_spec(96.7, 0.83475, 0.26025, probe=PROBE2)
        trace = pr.simulate_ramsey_dark(spec, np.linspace(10, 600, 60), artificial_detuning=6.0)
        fit = pr.fit_damped_sinusoid(trace)
        assert fit.value("lifetime_ns") == pytest.approx(191.0, rel=0.10)

    def test_rate_ordering_follows_correlation(self):
        # uncorrelated dephasing: population decays faster than coherence
        # by gloss/2 (large enough loss here to resolve the ordering)
        spec = inverted_dephasing_spec(13.4, 0.3, 0.0, gloss=0.05)
        fit_t1, fit_t2 = self.dark_fits(spec, np.linspace(400, 2000, 24))
        assert fit_t1.value("rate_mhz") > fit_t2.value("rate_mhz")
        g1_closed, g2_closed = core.dark_state_rates(0.05, 0.3, 0.0)
        assert fit_t1.value("rate_mhz") == pytest.approx(g1_closed, rel=0.05)
        assert fit_t2.value("rate_mhz") == pytest.approx(g2_closed, rel=0.05)
        # common-mode correlation above gloss/2 inverts the ordering
        spec = inverted_dephasing_spec(13.4, 0.3, 0.2, gloss=0.05)
        fit_t1, fit_t2 = self.dark_fits(spec, np.linspace(400, 3000, 24))
        assert fit_t1.value("rate_mhz") < fit_t2.value("rate_mhz")
        g1_closed, g2_closed = core.dark_state_rates(0.05, 0.3, 0.2)
        assert fit_t1.value("rate_mhz") == pytest.approx(g1_closed, rel=0.05)
        assert fit_t2.value("rate_mhz") == pytest.approx(g2_closed, rel=0.05)


class TestTwoExcitation:
    def test_second_manifold_overdamped(self):
        # coherence generating the second-manifold fringe dies much faster
        # than the vacuum Rabi coherence (the strongly damped response)
        spec = core.cavity_spec(MIRROR1, PROBE)
        model = lindblad.build_model(spec)
        basis = model.basis
        probe_bit = 1 << spec.probe_index
        e_ground = basis.basis_vector(probe_bit)
        g_dark = pr.dark_state_vector(spec, basis)
        mirror_bits = [1 << m for m in spec.mirror_indices]
        e_dark = (
            basis.basis_vector(probe_bit | mirror_bits[0])
            + basis.basis_vector(probe_bit | mirror_bits[1])
        ) / math.sqrt(2)
        g_full = basis.basis_vector(mirror_bits[0] | mirror_bits[1])

        def coherence_rate(a, b, window_us):
            psi = (a + b) / np.linalg.norm(a + b)
            times = np.linspace(0.0, window_us, 9)
            states = lindblad.evolve(model, np.outer(psi, psi.conj()), times)
            coherences = [abs(np.vdot(a, s @ b)) for s in states]
            return -np.polyfit(times, np.log(coherences), 1)[0] / (2 * math.pi)

        single = coherence_rate(e_ground, g_dark, 0.25)
        double = coherence_rate(e_dark, g_full, 0.012)
        assert double > 5.0 * single

    def test_trace_contrast_collapses(self):
        spec = core.cavity_spec(MIRROR1, PROBE)
        taus = np.linspace(0, 700, 141)
        atomic, _, _ = pr.simulate_two_excitation(spec, taus)
        single = pr.simulate_vacuum_rabi(spec, taus)
        fit_atomic = pr.fit_damped_sinusoid(atomic)
        fit_single = pr.fit_damped_sinusoid(single)

        def fringe_at(fit, t):
            return fit.value("amplitude") * math.exp(-t / fit.value("lifetime_ns"))

        assert fringe_at(fit_atomic, 300.0) < 0.4 * fringe_at(fit_single, 300.0)
        assert fit_atomic.value("amplitude") < 0.5 * fit_single.value("amplitude")

    def test_companion_ladder_ratio(self):
        spec = core.cavity_spec(MIRROR1, PROBE)
        model, ops = pr.linear_cavity_model(spec)
        ground_one = np.zeros(6, dtype=complex)
        ground_one[3] = 1.0  # |e, 0>
        assert np.array_equal(ops["excited_no_photon"], ground_one)
        first, _ = lindblad.dominant_oscillation(
            model, np.outer(ground_one, ground_one.conj()), ops["probe_number"]
        )
        excited_one = ops["excited_one_photon"]
        second, _ = lindblad.dominant_oscillation(
            model, np.outer(excited_one, excited_one.conj()), ops["probe_number"]
        )
        assert second / first == pytest.approx(math.sqrt(2), rel=0.01)
        assert first == pytest.approx(TWO_J1, rel=0.01)

    def test_companion_stack_shares_one_decomposition(self, monkeypatch):
        model, ops = pr.linear_cavity_model(core.cavity_spec(MIRROR1, PROBE))
        ground_one = np.zeros(6, dtype=complex)
        ground_one[3] = 1.0
        starts = np.array([np.outer(v, v.conj()) for v in (ground_one, ops["excited_one_photon"])])
        singles = [lindblad.dominant_oscillation(model, rho, ops["probe_number"]) for rho in starts]
        calls = []
        eig = lindblad.eig
        monkeypatch.setattr(lindblad, "eig", lambda *a, **k: calls.append(1) or eig(*a, **k))
        # each single decomposes the block of its own reach, the stack that of
        # their union: the same modes, up to rounding
        stacked = lindblad.dominant_oscillation(model, starts, ops["probe_number"])
        assert np.array(stacked) == pytest.approx(np.array(singles), rel=1e-12)
        assert len(calls) == 1

    def test_spec_model_is_built_once(self, monkeypatch):
        spec = core.cavity_spec(MIRROR1, PROBE)
        built = []
        build_model = lindblad.build_model
        monkeypatch.setattr(
            lindblad, "build_model", lambda s, *a, **k: built.append(s) or build_model(s, *a, **k)
        )
        pr.simulate_two_excitation(spec, np.linspace(0, 100, 5))
        assert built == [spec]

    def test_companion_trace_persists(self):
        spec = core.cavity_spec(MIRROR1, PROBE)
        taus = np.linspace(0, 700, 141)
        atomic, companion, _ = pr.simulate_two_excitation(spec, taus)
        late = taus > 250
        assert np.ptp(companion.values[late]) > 3.0 * np.ptp(atomic.values[late])


class TestCompoundMirrors:
    def test_one_rule_for_the_mirrors(self):
        # a lambda/2 pair, and four mirrors with no direct coupling, fail the
        # one public check, and the simulator raises its error unchanged
        uncoupled = dataclasses.replace(
            core.compound_mirror_spec(QubitParams("M", 13.4, GLOSS, 0.146), PROBE, direct_g=46.0),
            direct_couplings=(),
        )
        for spec in (core.cavity_spec(MIRROR1, PROBE), uncoupled):
            message = r"^compound-mirror spec needs four directly coupled mirrors$"
            with pytest.raises(ValueError, match=message):
                core.check_compound_mirrors(spec)
            with pytest.raises(ValueError, match=message):
                pr.simulate_compound_mirrors(spec, np.linspace(0, 400, 41))

    def test_splitting_at_degeneracy(self):
        spec = core.compound_mirror_spec(
            QubitParams("M", 13.4, GLOSS, 0.146), PROBE, direct_g=46.0
        )
        result = pr.simulate_compound_mirrors(spec, np.linspace(0, 400, 41))
        assert result.splitting_mhz == pytest.approx(92.0, rel=0.01)

    def test_splitting_with_pair_detuning(self):
        spec = core.compound_mirror_spec(
            QubitParams("M", 13.4, GLOSS, 0.146), PROBE, direct_g=46.0, pair_detuning=20.0
        )
        result = pr.simulate_compound_mirrors(spec, np.linspace(0, 400, 41))
        assert result.splitting_mhz == pytest.approx(math.sqrt(4 * 46.0**2 + 20.0**2), rel=0.01)

    def test_probe_rabi_against_coupled_dark_state(self):
        spec = core.compound_mirror_spec(
            QubitParams("M", 13.4, GLOSS, 0.146), PROBE, direct_g=46.0
        )
        result = pr.simulate_compound_mirrors(spec, np.linspace(0, 800, 161))
        fitted = [pr.fit_damped_sinusoid(tr).value("frequency_mhz") for tr in result.traces]
        # all four co-located mirrors join the coupled dark state
        expected = core.coupling_rate_2j(4, 13.4, 1.19)
        assert min(fitted, key=lambda f: abs(f - expected)) == pytest.approx(expected, rel=0.02)

    def test_effective_pair_rows(self):
        # compound dark/bright states modeled as effective mirror pairs
        for g1d_eff, gphi_eff, expected in (
            (4.3, 0.146, 3.199),
            (20.2, 0.253, 6.934),
        ):
            mirror = QubitParams("M", g1d_eff, GLOSS, gphi_eff)
            spec = core.cavity_spec(mirror, PROBE)
            trace = pr.simulate_vacuum_rabi(spec, np.linspace(0, 1400, 281))
            fit = pr.fit_damped_sinusoid(trace)
            assert fit.value("frequency_mhz") == pytest.approx(expected, rel=0.02)


class TestSequences:
    def test_split_evolution_matches_direct_evolution(self):
        # a hold split in two (the staged protocols chain evolve calls)
        spec = core.cavity_spec(MIRROR1, PROBE)
        model = lindblad.build_model(spec)
        rho0 = pr._probe_excited(spec, model.basis)
        first = lindblad.evolve(model, rho0, np.array([0.0, 0.04]))[-1]
        split = lindblad.evolve(model, first, np.array([0.0, 0.0472]))[-1]
        direct = lindblad.evolve(model, rho0, np.array([0.0, 0.0872]))[-1]
        assert np.max(np.abs(split - direct)) < 1e-12

    def test_drive_segment_produces_rabi_flop(self):
        # 10 ns resonant pi pulse as a driven hold
        q = QubitParams("Q", 0.001)
        spec = SystemSpec(qubits=((q, core.Placement(0.0)),), probe_index=0)
        model = lindblad.build_model(spec, drives=((0, 50.0),))
        basis = model.basis
        rho0 = np.outer(basis.ground_vector(), basis.ground_vector())
        final = lindblad.evolve(model, rho0, np.array([0.0, 0.01]))[-1]
        assert final[1, 1].real == pytest.approx(1.0, abs=1e-3)
