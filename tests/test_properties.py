"""Property-based checks on the closed-form layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgqed import core, spectroscopy
from wgqed.core import QubitParams
from wgqed.records import FitResult

rates = st.floats(min_value=1e-3, max_value=500.0, allow_nan=False)
small_rates = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@given(rates, rates, rates, rates)
def test_second_excitation_cooperativity_below_unity(g1d_p, g1d_m, gp_p, gp_m):
    value = core.second_excitation_cooperativity(g1d_p, g1d_m, gp_p, gp_m)
    assert 0.0 < value < 1.0


@given(rates, rates)
def test_doubly_excited_transfer_rate_identity(g1d_m, g1d_p):
    # (2J)^2 / (2 g1d) for a pair equals the probe's own waveguide rate
    two_j = core.coupling_rate_2j(2, g1d_m, g1d_p)
    assert two_j**2 / (2.0 * g1d_m) == pytest.approx(g1d_p, rel=1e-9)


@given(small_rates, small_rates, st.floats(min_value=-5.0, max_value=5.0))
def test_dark_state_rate_ordering(gloss, gphi, gphi_c):
    gamma1, gamma2 = core.dark_state_rates(gloss, gphi, gphi_c)
    assert gamma2 == pytest.approx(gloss / 2.0 + gphi)
    if gphi_c == 0.0:
        assert gamma1 >= gamma2
    assert gamma1 - gamma2 == pytest.approx(gloss / 2.0 - gphi_c, abs=1e-12)


@given(
    rates,
    small_rates,
    small_rates,
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
@settings(max_examples=200)
def test_thermal_steady_state_is_physical(g1d, gloss, gphi, n_th, omega, delta):
    rho_ee, rho_eg = core.thermal_qubit_steady(g1d, gloss, gphi, n_th, omega, delta)
    assert 0.0 <= rho_ee <= 0.5 + 1e-12
    # coherence bounded by the Bloch sphere
    assert abs(rho_eg) <= math.sqrt(rho_ee * (1.0 - rho_ee)) + 1e-9


@given(rates, small_rates, small_rates, st.floats(min_value=-500.0, max_value=500.0))
def test_single_qubit_transmission_passive(g1d, gloss, gphi, delta):
    q = QubitParams("Q", g1d, gloss, gphi)
    t = spectroscopy.single_qubit_transmission(q, delta=delta)
    assert abs(t) <= 1.0 + 1e-9


@given(rates, st.floats(min_value=-20.0, max_value=20.0))
def test_phase_mismatch_decay_bounds(g1d, phase):
    value = core.phase_mismatch_decay(g1d, phase)
    assert 0.0 <= value <= g1d


@given(rates, rates)
def test_asymmetric_pair_couplings(g1d_1, g1d_2):
    pair = core.dark_bright_asymmetric(g1d_1, g1d_2)
    assert pair.dark.decay_rate == 0.0
    assert pair.bright.decay_rate == pytest.approx(g1d_1 + g1d_2)
    # couplings partition the total exchange strength
    assert pair.j_dark**2 + pair.j_bright**2 == pytest.approx((g1d_1 + g1d_2) / 4.0, rel=1e-9)


def test_fit_result_rejects_negative_uncertainty():
    with pytest.raises(ValueError):
        FitResult("exponential", {"rate": (1.0, -0.1)}, 0.0)


def test_fit_result_rejects_non_finite_value():
    with pytest.raises(ValueError):
        FitResult("exponential", {"rate": (np.inf, 0.1)}, 0.0)
