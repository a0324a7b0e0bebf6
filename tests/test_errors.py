"""The shared input checks (finite and non-negative, and [0, 1]) at each place an input enters,
and the package's own errors for values of the right type that the model cannot take."""

import math

import numpy as np
import pytest

from mcs_qkd import (
    KTH15_DETECTOR, ChannelModel, ConfigurationError, DomainError, Protocol, SourceFamily, TableF,
    adjusted_signal, cutoff_distance, make_state, optimize_param, p0_via_fock, p_signal_mcs,
    p_vacuum_lossy, rate_at, secure_rate, shannon_h, sweep_distance, verify_closed_forms,
)

#: Call site -> (the name its message uses, a call that passes ``value`` there).
CALL_SITES = {
    "make_state": ("alpha", lambda scenario, value: make_state(value, 0.3)),
    "ChannelModel": ("loss_coeff_a", lambda scenario, value: ChannelModel(value, 5.0, 1.0, 0.18)),
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
    "p_signal_mcs": ("eta", lambda value: p_signal_mcs(0.3, value, Protocol.BB84)),
    "p0_via_fock": ("eta", lambda value: p0_via_fock(make_state(0.5, 0.3), value)),
    "secure_rate": ("p_s", lambda value: secure_rate(value, 0.01, KTH15_DETECTOR)),
    "adjusted_signal": ("p_s", lambda value: adjusted_signal(value, KTH15_DETECTOR)),
    "shannon_h": ("e", shannon_h),
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
