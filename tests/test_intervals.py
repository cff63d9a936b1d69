import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexspec.intervals import BandList

pairs = st.lists(
    st.tuples(st.floats(-10, 10), st.floats(0, 3)).map(lambda t: (t[0], t[0] + t[1])),
    max_size=8,
)


@settings(max_examples=100)
@given(pairs)
def test_measure_nonnegative_and_merge_idempotent(ps):
    b = BandList.from_pairs(ps)
    assert b.measure >= 0.0
    m = b.merged()
    assert m.merged().intervals == m.intervals
    assert m.measure == pytest.approx(b.measure)


@settings(max_examples=100)
@given(pairs, st.floats(-12, 12))
def test_distance_zero_iff_contained(ps, x):
    b = BandList.from_pairs(ps)
    if b.contains(x):
        assert b.distance(x) == 0.0
    else:
        assert b.distance(x) > 0.0 or not b.intervals


@settings(max_examples=100)
@given(pairs, st.lists(st.floats(-12, 12), max_size=6))
def test_distance_of_an_array_is_the_distance_to_the_nearest_interval(ps, xs):
    # intervals may overlap here, so the reach of an earlier one can matter
    b = BandList.from_pairs(ps)
    want = [min((0.0 if lo <= x <= hi else min(abs(x - lo), abs(x - hi))
                 for lo, hi in b), default=math.inf) for x in xs]
    assert b.distance(np.array(xs)).tolist() == want
    assert [b.distance(x) for x in xs] == want


@settings(max_examples=50)
@given(pairs, st.floats(0, 1))
def test_inflated_covers_original(ps, r):
    b = BandList.from_pairs(ps).merged()
    assert b.inflated(r).covers(b)


def test_sorting_and_merging():
    b = BandList.from_pairs([(3.0, 4.0), (0.0, 1.0), (1.0, 2.0)])
    assert b.intervals == ((0.0, 1.0), (1.0, 2.0), (3.0, 4.0))
    assert b.merged().intervals == ((0.0, 2.0), (3.0, 4.0))
    assert b.measure == pytest.approx(3.0)
    assert BandList.from_pairs([]).measure == 0.0
