"""The optimal rate's physics as properties, over the channel box of the benchmark's sweep.

Each draw runs ``sweep_distance`` over 0-100 km in 2 km steps and ``optimize_param`` at
0 km, both with their defaults, so every optimum comes from the seeded Newton polish.
The properties hold for the subtractive sign only.  Under ``paper_literal_sign`` the
module fails: there the optimal rate of a family can rise with the baseline error c.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mcs_qkd import ConstantF, SourceFamily, optimize_param, sweep_distance
from reference import BOX, scenario

DISTANCES = [2.0 * k for k in range(51)]
F0 = 1.16


def _rates(f0=F0, **channel):
    """Per family (rows, in ``SourceFamily`` order), the optimal ``R`` at each distance, 0
    where the sweep finds it insecure."""
    sweeps = sweep_distance([scenario(family, 0.0, ConstantF(f0), **channel)
                             for family in SourceFamily], DISTANCES)
    rates = np.zeros((len(sweeps), len(DISTANCES)))
    for row, sweep in zip(rates, sweeps):
        row[sweep.index] = sweep.breakdown.R
    return rates


@settings(max_examples=60, deadline=None)
@given(channel=st.fixed_dictionaries({key: st.floats(*bounds) for key, bounds in BOX.items()}))
def test_optimal_rates_follow_the_channel(channel):
    rates = _rates(**channel)
    # more loss never raises the rate: each family's rate falls along the sweep
    assert np.all(np.diff(rates, axis=1) <= 0.0), channel
    # nor do more dark counts, more baseline error or a less efficient error correction
    for key in ("dark_prob_Pd", "baseline_error_c"):
        assert np.all(_rates(**{**channel, key: 1.3 * channel[key]}) <= rates), (key, channel)
    assert np.all(_rates(1.3 * F0, **channel) <= rates), channel
    # at 0 km each family beats the one before it
    at_zero = [optimize_param(scenario(family, 0.0, ConstantF(F0), **channel)).breakdown.R
               for family in SourceFamily]
    assert at_zero[0] < at_zero[1] < at_zero[2], channel
