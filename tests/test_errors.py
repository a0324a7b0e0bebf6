"""The shared input checks (finite and non-negative, and [0, 1]) at each place an input enters,
each bounded field's own interval, and the package's own errors for values of the right type
that the model cannot take."""

import dataclasses
import inspect
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcs_qkd
from mcs_qkd import errors
from mcs_qkd import (
    KTH15_DETECTOR, ChannelModel, ConfigurationError, DetectorModel, DomainError, Protocol,
    SourceFamily, SqueezedCoherentState, TableF, cutoff_distance, f_ec, make_state, mcs_state,
    optimize_param, p0_via_fock, p0_via_quadrature, p_signal, p_signal_mcs, p_vacuum_lossy,
    rate_at, secure_rate, sweep_distance, verify_closed_forms,
)

#: Call site -> (the name its message uses, a call that passes ``value`` there).
CALL_SITES = {
    "make_state": ("alpha", lambda scenario, value: make_state(value, 0.3)),
    "make_state_nu": ("nu", lambda scenario, value: make_state(0.5, value)),
    "mcs_state": ("nu", lambda scenario, value: mcs_state(value, Protocol.BB84)),
    "ChannelModel": ("loss_coeff_a", lambda scenario, value: dataclasses.replace(
        scenario.channel, loss_coeff_a=value)),
    "ChannelModel_distance_l": ("distance_l", lambda scenario, value: dataclasses.replace(
        scenario.channel, distance_l=value)),
    "ChannelModel_receiver_loss_L": ("receiver_loss_L", lambda scenario, value: dataclasses.replace(
        scenario.channel, receiver_loss_L=value)),
    "sweep_distance": ("distance_l", lambda scenario, value: sweep_distance([scenario], [value])),
    "rate_at": ("param", lambda scenario, value: rate_at(scenario, np.array([0.1, value]))),
}


@pytest.mark.parametrize("value, shown", [(math.nan, "nan"), (-1.0, "-1.0"), (math.inf, "inf")],
                         ids=["nan", "minus-one", "inf"])
@pytest.mark.parametrize("site", list(CALL_SITES))
def test_every_call_site_gives_the_same_message(site, value, shown, kth15_scenario):
    name, call = CALL_SITES[site]
    with pytest.raises(DomainError) as err:
        call(kth15_scenario(SourceFamily.MCS_BB84), value)
    assert str(err.value) == f"{name} must be finite and >= 0, got {shown}"


#: Call site -> (the name its message uses, a call that passes ``value`` there).
UNIT_INTERVAL_SITES = {
    "p_vacuum_lossy": ("eta", lambda value: p_vacuum_lossy(make_state(0.5, 0.3), value)),
    "p_signal": ("eta", lambda value: p_signal(make_state(0.5, 0.3), value)),
    "p_signal_mcs": ("eta", lambda value: p_signal_mcs(0.3, value, Protocol.BB84)),
    "p0_via_fock": ("eta", lambda value: p0_via_fock(make_state(0.5, 0.3), value)),
    "secure_rate": ("p_s", lambda value: secure_rate(value, 0.01, KTH15_DETECTOR)),
    "secure_rate_p_m": ("p_m", lambda value: secure_rate(0.01, value, KTH15_DETECTOR)),
}


@pytest.mark.parametrize("value, shown",
                         [(-0.1, "-0.1"), (1.5, "1.5"), (math.nan, "nan"), (math.inf, "inf")],
                         ids=["minus-a-tenth", "one-and-a-half", "nan", "inf"])
@pytest.mark.parametrize("site", list(UNIT_INTERVAL_SITES))
def test_every_probability_site_gives_the_same_message(site, value, shown):
    name, call = UNIT_INTERVAL_SITES[site]
    with pytest.raises(DomainError) as err:
        call(value)
    assert str(err.value) == f"{name} must lie in [0, 1], got {shown}"


#: A field whose interval is not [0, 1] -> (the interval its message shows, the record it checks).
BOUNDED_FIELDS = {
    "detector_eff": ("(0, 1]", lambda value: ChannelModel(0.2, 5.0, 1.0, value)),
    "dark_prob_Pd": ("[0, 1)", lambda value: DetectorModel(value, 0.01)),
    "baseline_error_c": ("[0, 0.02]", lambda value: DetectorModel(2e-4, value)),
}


@pytest.mark.parametrize("field, value, shown", [
    ("detector_eff", 0.0, "0.0"), ("detector_eff", math.nan, "nan"),
    ("dark_prob_Pd", 1.0, "1.0"), ("dark_prob_Pd", -math.inf, "-inf"),
    ("baseline_error_c", 0.03, "0.03"), ("baseline_error_c", -0.001, "-0.001"),
], ids=["detector_eff-zero", "detector_eff-nan", "dark_prob_Pd-one", "dark_prob_Pd-minus-inf",
        "baseline_error_c-above-two-percent", "baseline_error_c-negative"])
def test_a_bounded_field_names_its_interval(field, value, shown):
    interval, build = BOUNDED_FIELDS[field]
    with pytest.raises(DomainError) as err:
        build(value)
    assert str(err.value) == f"{field} must lie in {interval}, got {shown}"


@pytest.mark.parametrize("knots, shown", [([(0.0,)], "(0.0,)"), ([(0.0, 1.1, 2.0)], "(0.0, 1.1, 2.0)"),
                                          ([(0.0, 1.1), 1.0], "1.0")])
def test_a_table_knot_that_is_not_a_pair(knots, shown):
    with pytest.raises(ConfigurationError) as err:
        TableF(knots)
    assert str(err.value) == f"f(e) table knot {shown} is not an (e, f) pair"


#: Search entry point -> a call that passes it the keywords given.
SEARCHES = {
    "optimize_param": lambda scenario, **search: optimize_param(scenario, **search),
    "sweep_distance": lambda scenario, **search: sweep_distance([scenario], [5.0], **search),
    "cutoff_distance": lambda scenario, **search: cutoff_distance(scenario, 100.0, **search),
}


@pytest.mark.parametrize("search", list(SEARCHES))
def test_an_unknown_search_keyword_names_the_public_function(search, kth15_scenario):
    with pytest.raises(TypeError) as err:
        SEARCHES[search](kth15_scenario(SourceFamily.MCS_BB84), grid_points=60, bogus=1)
    assert str(err.value) == f"{search}() got an unexpected keyword argument 'bogus'"


def test_a_verify_grid_point_that_is_not_a_triple():
    with pytest.raises(DomainError) as err:
        verify_closed_forms([(1.0, 0.5, 0.5), (1.0, 0.5)])
    assert str(err.value) == "grid point (1.0, 0.5) is not an (alpha, nu, eta) triple"


def test_a_ragged_parameter_array(kth15_scenario):
    with pytest.raises(DomainError) as err:
        rate_at(kth15_scenario(SourceFamily.MCS_BB84), [[0.1], [0.2, 0.3]])
    assert str(err.value) == "param must be a number or a rectangular array of numbers"


@pytest.mark.parametrize("eta", [[0.5, [0.2]], [[0.5]], [[]]],
                         ids=["ragged", "nested", "empty-row"])
def test_quadrature_efficiencies_that_are_not_a_flat_sequence(eta):
    with pytest.raises(DomainError) as err:
        p0_via_quadrature(make_state(0.5, 0.3), eta)
    assert str(err.value) == f"eta must be a number or a flat sequence, got {eta!r}"


@pytest.mark.parametrize("alpha, nu, eta", [(0.0, 1e8, 1e-17), (0.0, 1e10, 1e-300),
                                            (1e100, 1e50, 0.3)])
def test_an_infinite_quadrature(alpha, nu, eta):
    # 1/(1 - eta) - nu/mu rounds to 0 at the first two; the integrand's exp overflows at the third
    state = make_state(alpha, nu)
    with pytest.raises(DomainError) as err:
        p0_via_quadrature(state, eta)
    assert str(err.value) == (f"quadrature of {state} at eta={eta!r} is infinite; "
                              "use the Fock-sum oracle")


def test_an_overflowing_quadrature_gives_nan():
    # 2 * alpha * Re(beta) overflows: NaN, as where alpha**2 overflows
    assert math.isnan(p0_via_quadrature(make_state(8e307, 0.0), 0.5, 33))


@pytest.mark.parametrize("nu", [1.35e154, 1e200, 7e306])
@pytest.mark.parametrize("build", [make_state, SqueezedCoherentState])
def test_a_squeeze_whose_mu_overflows(build, nu):
    # 1 + nu**2 overflows above about 1.34e154; such a state made p_signal nan and p_multi 1.0
    with pytest.raises(DomainError) as err:
        build(0.3, nu)
    assert str(err.value) == f"mu = sqrt(1 + nu**2) overflows at nu={nu!r}"


def test_the_largest_squeezes_keep_a_finite_mu():
    assert make_state(0.3, 1.34e154).mu == 1.34e154


def test_a_ragged_error_rate_array():
    with pytest.raises(DomainError) as err:
        f_ec([0.01, [0.02]])
    assert str(err.value) == "e must be a number or a rectangular array of numbers"


def test_an_unknown_f_policy(kth15_scenario):
    scenario = dataclasses.replace(kth15_scenario(SourceFamily.MCS_BB84), f_policy=1.16)
    with pytest.raises(ConfigurationError) as err:
        rate_at(scenario, 0.1)
    assert str(err.value) == "unknown f policy 1.16"


# Every public function, called with values of the right type (malformed shapes and non-finite
# numbers included), returns or raises one of the package's errors: never a bare ValueError,
# IndexError or TypeError, and never a numpy warning.

#: Any float: nan, the infinities, -0.0, subnormals and the largest finite ones included.
ANY = st.floats()


def near(lo, hi):
    """Floats in [lo, hi] or anywhere at all."""
    return st.floats(lo, hi) | ANY


def ragged(values):
    """A value, a flat list or a nested list, rectangular or not, of ``values``."""
    return st.recursive(values, lambda inner: st.lists(inner, max_size=3), max_leaves=6)


#: A valid value: finite and non-negative, up to the largest float.
FINITE = st.floats(0.0, allow_infinity=False)
#: A valid squeeze: one whose 1 + nu**2 is finite, up to sqrt of the largest float.
SQUEEZES = st.floats(0.0, 2.0) | st.floats(0.0, math.sqrt(sys.float_info.max))
STATES = st.builds(mcs_qkd.SqueezedCoherentState, st.floats(0.0, 3.0) | FINITE, SQUEEZES)
PROTOCOLS = st.sampled_from(mcs_qkd.Protocol)
DETECTORS = st.builds(mcs_qkd.DetectorModel, st.floats(0.0, 1.0, exclude_max=True),
                      st.floats(0.0, 0.02))
CHANNELS = st.builds(mcs_qkd.ChannelModel, st.floats(0.0, 1.0) | FINITE,
                     st.floats(0.0, 200.0) | FINITE, st.floats(0.0, 10.0) | FINITE,
                     st.floats(0.0, 1.0, exclude_min=True))
POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)
POLICIES = st.builds(mcs_qkd.ConstantF, POSITIVE) | st.builds(
    mcs_qkd.TableF, st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), POSITIVE),
                             min_size=1, max_size=4, unique_by=lambda knot: knot[0]).map(sorted))
SCENARIOS = st.builds(mcs_qkd.Scenario, st.sampled_from(mcs_qkd.SourceFamily), CHANNELS,
                      DETECTORS, POLICIES, st.booleans())
SEARCH = {"param_min": near(1e-6, 1.0), "param_max": near(0.1, 100.0),
          "grid_points": st.integers(-2, 300), "rtol": near(1e-9, 1.0)}
DISTANCES = st.lists(near(0.0, 200.0), max_size=6).map(sorted) | st.lists(ANY, max_size=6)
REPORTS = st.builds(mcs_qkd.OracleReport, st.text(max_size=3), ANY, ANY, ANY,
                    st.sampled_from([mcs_qkd.FOCK_SUM, mcs_qkd.QUADRATURE]), st.integers(),
                    ANY, ANY)


def call(*args, **keywords):
    """Positional arguments drawn from ``args``, and any subset of ``keywords``."""
    return st.tuples(st.tuples(*args), st.fixed_dictionaries({}, optional=keywords))


#: Public function (or value type whose constructor checks its fields) -> its arguments.
CALLS = {
    "ChannelModel": call(ANY, ANY, ANY, ANY),
    "DetectorModel": call(ANY, ANY),
    "ConstantF": call(ANY),
    "TableF": call(st.lists(st.lists(ANY, max_size=3).map(tuple) | ANY, max_size=4)),
    "make_state": call(ANY, ANY),
    "mcs_state": call(ANY, PROTOCOLS),
    "coeff_closed_form": call(STATES, st.integers(-2, 6)),
    "fock_coefficients": call(STATES, st.integers(-2, 600)),
    "p_multi": call(STATES, PROTOCOLS),
    "p_multi_min": call(ANY, PROTOCOLS),
    "p_signal": call(STATES, ANY),
    "p_signal_mcs": call(ANY, ANY, PROTOCOLS),
    "p_vacuum_lossy": call(STATES, ANY),
    "p0_via_fock": call(STATES, near(0.0, 1.0), st.integers(-2, 400)),
    "p0_via_quadrature": call(STATES, ragged(near(0.0, 1.0)), st.integers(0, 300)),
    "verify_closed_forms": call(
        st.none() | st.lists(st.lists(near(0.0, 1.0), max_size=4).map(tuple), max_size=3),
        fock_n_max=st.integers(-2, 400), quad_nodes=st.integers(0, 300)),
    "max_abs_diff_by_formula": call(st.lists(REPORTS, max_size=4)),
    "f_ec": call(ragged(ANY), POLICIES),
    "secure_rate": call(near(0.0, 1.0), near(0.0, 1.0), DETECTORS, POLICIES,
                        paper_literal_sign=st.booleans()),
    "rate_at": call(SCENARIOS, ragged(near(0.0, 4.0))),
    "optimize_param": call(SCENARIOS, **SEARCH),
    "cutoff_distance": call(SCENARIOS, near(0.0, 200.0), resolution_km=near(1e-3, 10.0), **SEARCH),
    "sweep_distance": call(st.lists(SCENARIOS, max_size=3), DISTANCES,
                           cutoff_resolution_km=near(1e-3, 10.0), **SEARCH),
}


#: The exception types of ``mcs_qkd.errors``, and not their bases (``ValueError``, ...).
PACKAGE_ERRORS = {getattr(errors, name) for name in errors.__all__}


def test_the_property_calls_every_public_function():
    # besides the functions, CALLS holds the value types whose constructors check their fields
    public = {name for name in mcs_qkd.__all__ if inspect.isfunction(getattr(mcs_qkd, name))}
    assert public <= set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_public_function_returns_or_raises_a_package_error(name, data):
    args, kwargs = data.draw(CALLS[name], label="arguments")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            getattr(mcs_qkd, name)(*args, **kwargs)
        except Exception as err:
            assert type(err) in PACKAGE_ERRORS, f"{type(err).__name__}: {err}"
