"""The shared input checks (finite and non-negative, and [0, 1]) at each place an input enters."""

import math

import numpy as np
import pytest

from mcs_qkd import (
    KTH15_DETECTOR, ChannelModel, DomainError, Protocol, SourceFamily, adjusted_signal, make_state,
    p0_via_fock, p_signal_mcs, p_vacuum_lossy, rate_at, secure_rate, shannon_h, sweep_distance,
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
