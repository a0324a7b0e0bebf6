"""The one finite-and-non-negative check, at each place an input enters a layer."""

import math

import numpy as np
import pytest

from mcs_qkd import ChannelModel, DomainError, SourceFamily, make_state, rate_at, sweep_distance

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
