import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcs_qkd import (
    DomainError,
    Protocol,
    TruncationError,
    UnsupportedOrderError,
    coeff_closed_form,
    fock_coefficients,
    make_state,
    mcs_state,
    p_multi,
    p_multi_min,
    p_signal,
    p_signal_mcs,
    p_vacuum_lossy,
)
from mcs_qkd import photon_source

BB84 = Protocol.BB84
SARG04 = Protocol.SARG04


def poisson_amplitude(alpha: float, n: int) -> float:
    """Independent coherent-state oracle: C_n = exp(-a^2/2) a^n / sqrt(n!)."""
    return math.exp(-0.5 * alpha * alpha) * alpha**n / math.sqrt(math.factorial(n))


def hermite(n: int, x: float) -> float:
    """Physicists' Hermite polynomial by the bare three-term recurrence."""
    h_prev, h = 1.0, 2.0 * x
    if n == 0:
        return h_prev
    for k in range(1, n):
        h_prev, h = h, 2.0 * x * h - 2.0 * k * h_prev
    return h


def amplitude_direct(alpha: float, nu: float, n: int) -> float:
    """Independent amplitude oracle: explicit Hermite/factorial evaluation.

    Overflow-prone for large n, which is exactly why the library folds the
    prefactor into the recurrence; safe for the n <= 20 checked here.
    """
    mu = math.sqrt(1.0 + nu * nu)
    x = alpha / math.sqrt(2.0 * mu * nu)
    prefactor = (nu / (2.0 * mu)) ** (n / 2.0) / math.sqrt(math.factorial(n) * mu)
    return prefactor * math.exp(nu * alpha * alpha / (2.0 * mu) - 0.5 * alpha * alpha) * hermite(n, x)


class TestMakeState:
    def test_vacuum(self):
        state = make_state(0.0, 0.0)
        assert state.mu == 1.0

    def test_coherent_limit(self):
        assert make_state(0.5, 0.0).mu == 1.0

    def test_hyperbolic_identity_3_4_5(self):
        # 1 + 0.75**2 = 1.5625 has the exact square root 1.25
        assert make_state(1.0, 0.75).mu == 1.25

    @given(nu=st.floats(0.0, 10.0))
    def test_mu_nu_identity(self, nu):
        state = make_state(0.3, nu)
        assert state.mu**2 - state.nu**2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha,nu", [(-0.1, 0.0), (0.0, -0.1), (math.nan, 0.0),
                                          (0.0, math.inf), (math.inf, 0.0)])
    def test_rejects_bad_inputs(self, alpha, nu):
        with pytest.raises(DomainError):
            make_state(alpha, nu)


class TestMcsState:
    def test_zero_squeeze_is_vacuum(self):
        assert mcs_state(0.0, BB84).alpha == 0.0

    def test_bb84_two_photon_condition(self):
        state = mcs_state(0.75, BB84)
        assert state.alpha == pytest.approx(math.sqrt(1.25 * 0.75), abs=1e-15)

    def test_sarg04_three_photon_condition(self):
        state = mcs_state(0.75, SARG04)
        assert state.alpha == pytest.approx(math.sqrt(3.0 * 1.25 * 0.75), abs=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            mcs_state(-1.0, BB84)


class TestFockCoefficients:
    def test_coherent_branch_matches_poisson(self):
        dist = fock_coefficients(make_state(0.5, 0.0))
        for n, amp in enumerate(dist.amplitudes):
            assert amp == pytest.approx(poisson_amplitude(0.5, n), abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.7, 4.0, 9.0])
    def test_zero_squeeze_recurrence_is_poisson_bit_for_bit(self, alpha):
        amplitudes = fock_coefficients(make_state(alpha, 0.0)).amplitudes
        expected = [math.exp(-0.5 * alpha * alpha)]
        for n in range(len(amplitudes) - 1):
            expected.append(alpha / math.sqrt(n + 1.0) * expected[-1])
        assert list(amplitudes) == expected

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0])
    @pytest.mark.parametrize("nu", [0.1, 0.5, 1.0])
    def test_recurrence_matches_direct_hermite_evaluation(self, alpha, nu):
        dist = fock_coefficients(make_state(alpha, nu))
        for n in range(min(21, len(dist.amplitudes))):
            assert dist.amplitudes[n] == pytest.approx(
                amplitude_direct(alpha, nu, n), abs=1e-13
            )

    def test_two_photon_amplitude_cancels_for_bb84_tuning(self):
        dist = fock_coefficients(mcs_state(0.3, BB84))
        assert abs(dist.amplitudes[2]) < 1e-12

    def test_three_photon_amplitude_cancels_for_sarg04_tuning(self):
        dist = fock_coefficients(mcs_state(0.3, SARG04))
        assert abs(dist.amplitudes[3]) < 1e-12

    @settings(deadline=None)
    @given(alpha=st.floats(0.0, 2.0), nu=st.floats(0.0, 1.0))
    def test_normalization(self, alpha, nu):
        mass = fock_coefficients(make_state(alpha, nu)).total_mass()
        assert 1.0 - 1e-8 <= mass <= 1.0 + 1e-9

    def test_tail_bound_within_tolerance_on_success(self):
        dist = fock_coefficients(make_state(1.5, 0.8))
        assert dist.tail_bound <= 1e-14
        assert dist.n_max == len(dist.amplitudes) - 1

    def test_cap_reached_raises_with_partial_mass(self):
        with pytest.raises(TruncationError) as excinfo:
            fock_coefficients(make_state(2.0, 0.5), n_cap=8)
        assert 0.0 < excinfo.value.partial_mass < 1.0
        assert len(excinfo.value.partial.amplitudes) == 9

    def test_small_leading_terms_are_not_a_converged_tail(self):
        # c0**2 ~ 3e-45 and the mean photon number is ~80: the leading orders
        # are below tol, and the tail only falls below it past this cap
        with pytest.raises(TruncationError):
            fock_coefficients(make_state(12.0, 0.3), n_cap=128)
        assert fock_coefficients(make_state(12.0, 0.3)).total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_small_cap(self):
        with pytest.raises(DomainError):
            fock_coefficients(make_state(0.5, 0.1), n_cap=7)


class TestClosedFormCoefficients:
    def test_vacuum(self):
        assert coeff_closed_form(make_state(0.0, 0.0), 0) == 1.0

    def test_coherent_first_order(self):
        assert coeff_closed_form(make_state(0.5, 0.0), 1) == pytest.approx(
            math.exp(-0.125) * 0.5, abs=1e-15
        )

    def test_bb84_tuned_second_order_vanishes(self):
        assert abs(coeff_closed_form(mcs_state(0.3, BB84), 2)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 1.0])
    def test_matches_recurrence_through_fourth_order(self, alpha, nu):
        state = make_state(alpha, nu)
        dist = fock_coefficients(state)
        for n in range(5):
            assert coeff_closed_form(state, n) == pytest.approx(
                dist.amplitudes[n], abs=1e-10
            )

    @pytest.mark.parametrize("alpha, nu", [
        (1e154, 1e154),  # mcs_state(1e154, BB84): nu * alpha**2 overflows, c0 = inf
        (1e155, 0.5),  # alpha**2 overflows, c0 = exp(inf - inf) = nan
        (6.269678730061013e38, 2.989843962493586e38),  # exponent rounds far above 709
    ])
    @pytest.mark.parametrize("n", range(5))
    def test_rejects_an_overflowing_vacuum_amplitude(self, alpha, nu, n):
        with pytest.raises(DomainError, match="vacuum amplitude"):
            coeff_closed_form(make_state(alpha, nu), n)

    @pytest.mark.parametrize("alpha, nu, n", [
        (1e145, 1e10, 2),  # a finite amplitude of about 7e264, whose square overflows
        (1e145, 1e10, 3),  # r**3 raises OverflowError
        (1e120, 0.0, 4),  # r**4 raises OverflowError, though c0 underflows to 0
    ])
    def test_rejects_an_overflowing_amplitude(self, alpha, nu, n):
        with pytest.raises(DomainError, match=f"amplitude {n} at .* overflows"):
            coeff_closed_form(make_state(alpha, nu), n)

    def test_p_multi_rejects_an_amplitude_whose_square_overflows(self):
        # SARG04 sums the squares of amplitudes 0..2; this one once raised OverflowError
        with pytest.raises(DomainError, match="amplitude 2 at .* overflows"):
            p_multi(make_state(1e145, 1e10), SARG04)

    @pytest.mark.parametrize("n", [5, 6, -1])
    def test_rejects_unsupported_orders(self, n):
        with pytest.raises(UnsupportedOrderError):
            coeff_closed_form(make_state(0.5, 0.1), n)


class TestMultiPhotonProbability:
    def test_vacuum_has_none(self):
        assert p_multi(make_state(0.0, 0.0), BB84) == 0.0

    def test_coherent_poisson_tail(self):
        # independent oracle: P(n >= 2) for Poisson(0.1)
        expected = 1.0 - math.exp(-0.1) * (1.0 + 0.1)
        assert p_multi(make_state(math.sqrt(0.1), 0.0), BB84) == pytest.approx(
            expected, abs=1e-15
        )
        assert expected == pytest.approx(4.68e-3, abs=1e-5)

    def test_tuned_bb84_magnitude(self):
        # cross-checked against the truncated expansion below
        value = p_multi(mcs_state(0.1, BB84), BB84)
        assert value == pytest.approx(6.0e-4, abs=5e-5)
        dist = fock_coefficients(mcs_state(0.1, BB84))
        by_sum = 1.0 - dist.amplitudes[0] ** 2 - dist.amplitudes[1] ** 2
        assert value == pytest.approx(by_sum, abs=1e-12)

    @pytest.mark.parametrize("protocol", [BB84, SARG04])
    @pytest.mark.parametrize("nu", [0.0, 0.1, 0.5, 1.0])
    def test_closed_form_minimum_consistency(self, protocol, nu):
        assert p_multi_min(nu, protocol) == pytest.approx(
            p_multi(mcs_state(nu, protocol), protocol), abs=1e-12
        )

    def test_tuned_bb84_raises_where_p_multi_min_is_still_finite(self):
        # p_multi_min gives 1.0 here; the amplitudes' nu * alpha**2 overflows, which
        # once made p_multi clamp 1 - inf to a wrong 0.0
        assert p_multi_min(1e154, BB84) == 1.0
        with pytest.raises(DomainError):
            p_multi(mcs_state(1e154, BB84), BB84)

    def test_minimum_at_zero_squeeze(self):
        assert p_multi_min(0.0, BB84) == 0.0

    @pytest.mark.parametrize("nu", [0.1, 0.4, 0.8])
    def test_bb84_tuning_is_global_alpha_minimum(self, nu):
        mu = math.sqrt(1.0 + nu * nu)
        alphas = [3.0 * i / 600 for i in range(601)]
        values = [p_multi(make_state(a, nu), BB84) for a in alphas]
        best = min(range(len(alphas)), key=values.__getitem__)
        assert abs(alphas[best] - math.sqrt(mu * nu)) <= 3.0 / 600 + 1e-12

    @pytest.mark.parametrize("nu", [0.1, 0.4, 0.8])
    def test_sarg04_tuning_is_the_interior_alpha_minimum(self, nu):
        # over alpha the three-plus-photon probability dips once in the
        # interior, exactly at the tuned displacement; the alpha = 0 boundary
        # (squeezed vacuum, no single-photon amplitude) sits lower still but
        # is useless as a source
        mu = math.sqrt(1.0 + nu * nu)
        step = 3.0 / 600
        alphas = [step * i for i in range(601)]
        values = [p_multi(make_state(a, nu), SARG04) for a in alphas]
        interior_minima = [
            i for i in range(1, 600) if values[i] <= values[i - 1] and values[i] <= values[i + 1]
        ]
        assert len(interior_minima) == 1
        assert abs(alphas[interior_minima[0]] - math.sqrt(3.0 * mu * nu)) <= step + 1e-12


class TestLossyDetection:
    def test_zero_efficiency_sees_vacuum(self):
        assert p_vacuum_lossy(make_state(1.3, 0.7), 0.0) == 1.0
        assert p_signal(make_state(1.3, 0.7), 0.0) == 0.0

    def test_coherent_limit(self):
        assert p_vacuum_lossy(make_state(0.5, 0.0), 0.3) == pytest.approx(
            math.exp(-0.3 * 0.25), abs=1e-15
        )

    def test_unit_efficiency_reduces_to_vacuum_weight(self):
        state = mcs_state(0.4, BB84)
        assert p_vacuum_lossy(state, 1.0) == pytest.approx(
            coeff_closed_form(state, 0) ** 2, abs=1e-12
        )

    @pytest.mark.parametrize("eta", [-0.1, 1.1, math.nan])
    def test_rejects_bad_eta(self, eta):
        with pytest.raises(DomainError):
            p_vacuum_lossy(make_state(0.5, 0.1), eta)

    def test_signal_coherent_limit(self):
        assert p_signal(make_state(math.sqrt(0.1), 0.0), 0.1136) == pytest.approx(
            1.0 - math.exp(-0.01136), abs=1e-15
        )

    @pytest.mark.parametrize("protocol", [BB84, SARG04])
    @pytest.mark.parametrize("nu", [0.1, 0.3, 0.9])
    @pytest.mark.parametrize("eta", [0.05, 0.1136, 0.5, 0.95, 1.0])
    def test_signal_matches_specialized_closed_form(self, protocol, nu, eta):
        generic = p_signal(mcs_state(nu, protocol), eta)
        specialized = p_signal_mcs(nu, eta, protocol)
        assert generic == pytest.approx(specialized, abs=1e-12)

    def test_signal_fock_oracle(self):
        # independent oracle: sum_n p_n * (1 - (1-eta)^n)
        state = mcs_state(0.3, BB84)
        eta = 0.1136
        dist = fock_coefficients(state)
        by_sum = math.fsum(
            c * c * (1.0 - (1.0 - eta) ** n) for n, c in enumerate(dist.amplitudes)
        )
        assert p_signal(state, eta) == pytest.approx(by_sum, abs=1e-10)

    @given(
        alpha=st.floats(0.05, 2.0),
        nu=st.floats(0.0, 1.0),
        eta_lo=st.floats(0.0, 1.0),
        eta_hi=st.floats(0.0, 1.0),
    )
    def test_signal_strictly_increasing_in_eta(self, alpha, nu, eta_lo, eta_hi):
        if eta_hi < eta_lo:
            eta_lo, eta_hi = eta_hi, eta_lo
        if eta_hi - eta_lo < 1e-6:
            return
        state = make_state(alpha, nu)
        assert p_signal(state, eta_lo) < p_signal(state, eta_hi)


class TestCoherentLimits:
    """At nu = 0 every operation must collapse to the Poissonian formulas."""

    @pytest.mark.parametrize("alpha2", [0.05, 0.1, 0.5, 1.0, 4.0])
    @pytest.mark.parametrize("eta", [0.0, 0.1136, 0.5, 1.0])
    def test_vacuum_probability(self, alpha2, eta):
        state = make_state(math.sqrt(alpha2), 0.0)
        assert p_vacuum_lossy(state, eta) == pytest.approx(
            math.exp(-eta * alpha2), abs=1e-12
        )

    @pytest.mark.parametrize("alpha2", [0.05, 0.1, 0.5, 1.0, 4.0])
    def test_multi_photon_probability(self, alpha2):
        state = make_state(math.sqrt(alpha2), 0.0)
        assert p_multi(state, BB84) == pytest.approx(
            1.0 - math.exp(-alpha2) * (1.0 + alpha2), abs=1e-12
        )


class TestOverflowingNu:
    """The tuned scalar functions where ``nu * nu`` or ``alpha**2`` overflow, warning-free.

    Float arithmetic overflows to inf quietly, where numpy scalars would warn.  A nu
    whose alpha**2 = k * mu * nu is finite gives values; every other nu raises.
    """

    @staticmethod
    def calls(nu, protocol):
        """mcs_state's alpha, p_multi_min and p_signal_mcs at eta = 0.5."""
        return (lambda: mcs_state(nu, protocol).alpha, lambda: p_multi_min(nu, protocol),
                lambda: p_signal_mcs(nu, 0.5, protocol))

    def test_bb84_values_where_alpha_squared_is_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [call() for call in self.calls(1e154, BB84)] == [1e154, 1.0, 1.0]

    @pytest.mark.parametrize("nu, protocol", [
        (1e154, SARG04), (1.4e154, BB84), (1e200, BB84), (1e200, SARG04), (math.inf, BB84),
        (math.inf, SARG04),
    ], ids=["1e154 sarg04", "1.4e154 bb84", "1e200 bb84", "1e200 sarg04", "inf bb84",
            "inf sarg04"])
    def test_every_function_raises_where_alpha_squared_overflows(self, nu, protocol):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in self.calls(nu, protocol):
                with pytest.raises(DomainError):
                    call()


class TestClamp:
    """The [0, 1] clamp of the probabilities lets NaN through and never returns -0.0."""

    HUGE = make_state(1e200, 0.3)  # alpha**2 overflows, so the closed forms are NaN

    @pytest.mark.parametrize("value, raises", [
        (lambda: p_multi(TestClamp.HUGE, BB84), True),
        (lambda: p_multi(TestClamp.HUGE, SARG04), True),
        (lambda: p_vacuum_lossy(TestClamp.HUGE, 0.0), False),
        (lambda: p_signal(TestClamp.HUGE, 0.0), False),
    ], ids=["p_multi bb84", "p_multi sarg04", "p_vacuum_lossy", "p_signal"])
    def test_nan_is_not_clamped_into_a_probability(self, value, raises):
        # p_multi's amplitudes check their common factor, which is nan here, and raise
        if raises:
            with pytest.raises(DomainError, match="vacuum amplitude .* is not finite"):
                value()
        else:
            assert math.isnan(value())

    @pytest.mark.parametrize("p, clamped", [(-0.0, 0.0), (0.0, 0.0), (-1e-17, 0.0), (0.25, 0.25),
                                            (1.0, 1.0), (1.5, 1.0), (math.inf, 1.0),
                                            (-math.inf, 0.0)])
    def test_clamp_values_and_the_sign_of_zero(self, p, clamped):
        result = photon_source._clamp01(p)
        assert result == clamped and math.copysign(1.0, result) == 1.0

    @pytest.mark.parametrize("value", [
        lambda: p_multi(make_state(0.0, -0.0), BB84),
        lambda: p_multi_min(-0.0, SARG04),
        lambda: p_signal(make_state(0.3, 0.2), -0.0),
        lambda: p_signal_mcs(-0.0, 0.5, BB84),
        lambda: 1.0 - p_vacuum_lossy(make_state(-0.0, 0.0), 0.7),
    ], ids=["p_multi", "p_multi_min", "p_signal", "p_signal_mcs", "p_vacuum_lossy"])
    def test_zero_probabilities_are_positive_zeros(self, value):
        # a CSV cell formatted with %.17g would read -0 for a negative zero
        assert value() == 0.0 and math.copysign(1.0, value()) == 1.0
