"""A sweep of several source families at once equals their one-family sweeps.

``sweep_distance`` stacks the rows of all its scenarios into the same kernel
calls, so a stacked sweep must give every family exactly, by the ``repr`` of
each column as a list, what a sweep of that family alone gives, cutoffs
included.  The library promises thread safety, so stacked sweeps and verify
runs on several threads must match the serial run too.
"""

import dataclasses
import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcs_qkd import (
    ConstantF,
    DomainError,
    SourceFamily,
    TableF,
    sweep_distance,
    verify_closed_forms,
)
from reference import BOX, KTH15, TABLE, scenario

DISTANCES = [float(l) for l in range(101)]


def exact(sweep):
    """The ``repr`` of every column of ``sweep`` as a list, and of its cutoff.

    A list's ``repr`` spells every float out in full, where numpy's ``repr`` of an
    array rounds to 8 digits and elides long arrays.
    """
    columns = [sweep.index, sweep.eta, sweep.param_value, sweep.bracket,
               *(getattr(sweep.breakdown, f.name) for f in dataclasses.fields(sweep.breakdown))]
    return repr(([column.tolist() for column in columns], sweep.cutoff_l))


def differing(got, expected, key=exact):
    """Indices at which two equally long lists differ by ``key``: a short failure message."""
    assert len(got) == len(expected)
    return [k for k, (a, b) in enumerate(zip(got, expected)) if key(a) != key(b)]


@settings(max_examples=25, deadline=None)
@given(
    channel=st.fixed_dictionaries({key: st.floats(*bounds) for key, bounds in BOX.items()}),
    table=st.booleans(),
    literal=st.booleans(),
    grid_points=st.integers(2, 400),
    first_km=st.sampled_from([0.0, 2.5]),
    step_km=st.sampled_from([1.0, 2.5, 5.0]),
)
def test_stacked_sweep_equals_the_one_family_sweeps(channel, table, literal, grid_points,
                                                     first_km, step_km):
    policy = TABLE if table else ConstantF(1.16)
    stack = [scenario(family, 0.0, policy, literal, **channel) for family in SourceFamily]
    distances = [first_km + step_km * k for k in range(int((100.0 - first_km) / step_km) + 1)]
    together = sweep_distance(stack, distances, grid_points=grid_points)
    alone = [sweep_distance([s], distances, grid_points=grid_points)[0] for s in stack]
    assert differing(together, alone) == []


def test_order_and_repeats_of_the_families_are_kept():
    families = [SourceFamily.MCS_SARG04, SourceFamily.COHERENT_BB84, SourceFamily.MCS_SARG04]
    stack = [scenario(family) for family in families]
    together = sweep_distance(stack, DISTANCES, grid_points=60)
    assert differing(together, [sweep_distance([s], DISTANCES, grid_points=60)[0]
                                for s in stack]) == []
    assert sweep_distance([], DISTANCES) == []


def test_distance_of_the_channel_is_ignored():
    coherent, tuned = scenario(SourceFamily.COHERENT_BB84), scenario(SourceFamily.MCS_BB84)
    moved = tuned.at_distance(30.0)
    assert differing(sweep_distance([coherent, moved], DISTANCES, grid_points=60),
                     sweep_distance([coherent, tuned], DISTANCES, grid_points=60)) == []


@pytest.mark.parametrize("change", [
    {"channel": scenario(SourceFamily.MCS_BB84, loss_coeff_a=0.21).channel},
    {"detector": scenario(SourceFamily.MCS_BB84, dark_prob_Pd=3e-4).detector},
    {"f_policy": ConstantF(1.2)},
    {"paper_literal_sign": True},
], ids=["channel", "detector", "f_policy", "sign"])
def test_scenarios_that_differ_beyond_the_family_are_rejected(change):
    coherent, tuned = scenario(SourceFamily.COHERENT_BB84), scenario(SourceFamily.MCS_BB84)
    with pytest.raises(DomainError, match="may differ only in source_family"):
        sweep_distance([coherent, dataclasses.replace(tuned, **change)], DISTANCES)


def test_a_table_built_from_lists_or_a_generator_is_the_tuple_table():
    knots = [list(knot) for knot in TABLE.knots]
    listed, generated = TableF(knots), TableF(tuple(knot) for knot in TABLE.knots)
    assert listed == generated == TABLE
    assert hash(listed) == hash(generated) == hash(TABLE)
    assert repr(listed) == repr(TABLE)
    sweeps = [sweep_distance([scenario(family, 0.0, policy) for family in SourceFamily],
                             DISTANCES, grid_points=60)
              for policy in (listed, TABLE)]
    assert differing(*sweeps) == []
    knots.append([0.9, 3.0])
    knots[0][1] = 9.0
    assert listed == TABLE


def _job(channel):
    stack = [scenario(family, **channel) for family in SourceFamily]
    return ([exact(sweep) for sweep in sweep_distance(stack, DISTANCES)],
            repr(verify_closed_forms()))


def test_threads_give_the_serial_results():
    rng = random.Random(5)
    channels = [KTH15, *({key: rng.uniform(*bounds) for key, bounds in BOX.items()}
                         for _ in range(11))]
    serial = [_job(channel) for channel in channels]
    with ThreadPoolExecutor(max_workers=4) as pool:
        assert differing(list(pool.map(_job, channels)), serial, key=repr) == []
