"""The cutoff's physics as properties, over the channel box of the benchmark's sweep.

Each draw runs ``sweep_distance`` with its defaults over 0-150 km in 1 km steps, past
every cutoff of the box, so each cutoff comes from the sweep's own cutoff search.  The
properties hold for the subtractive sign only.  Under ``paper_literal_sign`` the module
fails: every family stays secure out to 150 km (on KTH15 out to 400 km at least).
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from mcs_qkd import SourceFamily, sweep_distance
from mcs_qkd.optimizer import DEFAULT_CUTOFF_RESOLUTION_KM
from reference import BOX, scenario

DISTANCES = [float(l) for l in range(151)]


def _cutoffs(**channel):
    """The sweep's cutoff of each family, in ``SourceFamily`` order (-1 if insecure at 0 km).
    Every family must be insecure at the last distance."""
    sweeps = sweep_distance([scenario(family, **channel) for family in SourceFamily], DISTANCES)
    assert all(len(DISTANCES) - 1 not in sweep.index for sweep in sweeps), channel
    return [-1.0 if sweep.cutoff_l is None else sweep.cutoff_l for sweep in sweeps]


def _split(share, over_km, **channel):
    """The loss coefficient, receiver loss and cutoffs when ``share`` of the fiber's loss over
    ``over_km`` moves into ``receiver_loss_L``: the total loss at ``over_km`` stays."""
    base = [scenario(family, **channel) for family in SourceFamily]
    a, loss_l = base[0].channel.loss_coeff_a, base[0].channel.receiver_loss_L
    a, loss_l = a * (1.0 - share), loss_l + share * a * over_km
    moved = [dataclasses.replace(s, channel=dataclasses.replace(
        s.channel, loss_coeff_a=a, receiver_loss_L=loss_l)) for s in base]
    return a, loss_l, [sweep.cutoff_l for sweep in sweep_distance(moved, DISTANCES)]


@settings(max_examples=40, deadline=None)
@given(channel=st.fixed_dictionaries({key: st.floats(*bounds) for key, bounds in BOX.items()}),
       share=st.floats(0.0, 0.25))
def test_cutoffs_follow_the_channel(channel, share):
    cutoffs = _cutoffs(**channel)
    # the families in order: each reaches further than the one before it
    assert 0.0 <= cutoffs[0] < cutoffs[1] < cutoffs[2], channel
    # more dark counts or more baseline error never lengthen the link
    for key in ("dark_prob_Pd", "baseline_error_c"):
        worse = _cutoffs(**{**channel, key: 1.3 * channel[key]})
        assert all(w <= c for w, c in zip(worse, cutoffs)), (key, channel)
    # a distance enters only through the total loss a * l + L, so the loss at the cutoff
    # is the same for any split of one budget, up to one multiple of the resolution.  The
    # budget at half the first cutoff keeps every family secure at 0 km
    base = scenario(SourceFamily.COHERENT_BB84, **channel).channel
    a, loss_l, split = _split(share, 0.5 * cutoffs[0], **channel)
    for cutoff, moved in zip(cutoffs, split):
        budget = base.loss_coeff_a * cutoff + base.receiver_loss_L
        assert abs(budget - (a * moved + loss_l)) <= (
            base.loss_coeff_a * DEFAULT_CUTOFF_RESOLUTION_KM), (share, channel)
