import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hexspec.intervals import MERGE_TOL, BandList

pairs = st.lists(
    st.tuples(st.floats(-10, 10), st.floats(0, 3)).map(lambda t: (t[0], t[0] + t[1])),
    max_size=8,
)


def sorted_bands(pairs):
    """The band set of (lo, hi) pairs in any order, sorted by (lo, hi)."""
    lo, hi = np.array(sorted(pairs), dtype=float).reshape(-1, 2).T
    return BandList(lo, hi)


@settings(max_examples=100)
@given(pairs)
def test_measure_nonnegative_and_merge_idempotent(ps):
    b = sorted_bands(ps)
    assert b.measure >= 0.0
    m = b.merged()
    assert m.merged().intervals == m.intervals
    assert m.measure == pytest.approx(b.measure)


@settings(max_examples=100)
@given(pairs, st.floats(-12, 12))
def test_distance_zero_iff_contained(ps, x):
    b = sorted_bands(ps)
    if b.contains(x):
        assert b.distance(x) == 0.0
    else:
        assert b.distance(x) > 0.0 or not b.intervals


@settings(max_examples=100)
@given(pairs, st.lists(st.floats(-12, 12), max_size=6))
def test_distance_of_an_array_is_the_distance_to_the_nearest_interval(ps, xs):
    # intervals may overlap here, so the reach of an earlier one can matter
    b = sorted_bands(ps)
    want = [min((0.0 if lo <= x <= hi else min(abs(x - lo), abs(x - hi))
                 for lo, hi in b.intervals), default=math.inf) for x in xs]
    assert b.distance(np.array(xs)).tolist() == want
    assert [b.distance(x) for x in xs] == want


@settings(max_examples=50)
@given(pairs, st.floats(0, 1))
def test_inflated_covers_original(ps, r):
    b = sorted_bands(ps).merged()
    assert b.inflated(r).covers(b)


def test_sorting_and_merging():
    b = sorted_bands([(3.0, 4.0), (0.0, 1.0), (1.0, 2.0)])
    assert b.intervals == ((0.0, 1.0), (1.0, 2.0), (3.0, 4.0))
    assert b.merged().intervals == ((0.0, 2.0), (3.0, 4.0))
    assert b.measure == pytest.approx(3.0)
    assert sorted_bands([]).measure == 0.0


@pytest.mark.parametrize("lo, hi", [([0.0, 2.0], [1.0, 1.5]), ([0.0], [-1e-300]),
                                    ([np.nan], [1.0]), ([0.0], [np.nan])])
def test_a_band_with_hi_below_lo_or_a_nan_end_is_rejected(lo, hi):
    with pytest.raises(ValueError, match="inverted or NaN interval"):
        BandList(lo, hi)


# Per-interval loop versions of the operations, the oracles of the array
# code; they read the sorted (lo, hi) pairs of `.intervals`.

def merged_loop(ivs):
    out = [list(iv) for iv in ivs[:1]]
    for lo, hi in ivs[1:]:
        if lo <= out[-1][1] + MERGE_TOL:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out)


def measure_loop(ivs):
    total = 0.0
    for lo, hi in merged_loop(ivs):
        total += hi - lo
    return total


def contains_loop(ivs, x, tol):
    return any(lo - tol <= x <= hi + tol for lo, hi in ivs)


def covers_loop(mine, theirs):
    mine = merged_loop(mine)
    return all(any(mlo - MERGE_TOL <= lo and hi <= mhi + MERGE_TOL for mlo, mhi in mine)
               for lo, hi in merged_loop(theirs))


TOLS = (0.0, MERGE_TOL, 1e-3)
# offsets from an existing end: the same end (touching, nested), gaps exactly
# at MERGE_TOL (the merged and covers tolerance) and just past it,
# and overlaps
OFFSETS = (0.0, MERGE_TOL, -MERGE_TOL, 2 * MERGE_TOL, 1e-3, -0.5)


@st.composite
def band_sets(draw, near=(), max_size=8):
    """Up to max_size intervals, each starting at a fresh point or at an end
    of an earlier interval (or of `near`) plus one of OFFSETS; a length of 0
    gives point intervals."""
    pairs = []
    for _ in range(draw(st.integers(0, max_size))):
        ends = [e for iv in [*near, *pairs] for e in iv]
        if ends and draw(st.booleans()):
            lo = draw(st.sampled_from(ends)) + draw(st.sampled_from(OFFSETS))
        else:
            lo = draw(st.floats(-10, 10))
        pairs.append((lo, lo + draw(st.just(0.0) | st.floats(0, 3))))
    return sorted_bands(pairs)


@st.composite
def set_pairs(draw):
    mine = draw(band_sets())
    return mine, draw(band_sets(near=mine.intervals, max_size=3))


@settings(max_examples=300)
@given(band_sets())
def test_merged_and_measure_match_the_loops(b):
    assert b.merged().intervals == merged_loop(b.intervals)
    assert b.measure == measure_loop(b.intervals)


@settings(max_examples=300)
@given(set_pairs(), st.sampled_from(OFFSETS), st.sampled_from(TOLS))
def test_contains_matches_the_loop(pair, offset, tol):
    b, probe = pair
    for x in [e + offset for e in probe.endpoints()] + [0.0]:
        assert b.contains(x, tol) == contains_loop(b.intervals, x, tol)


@settings(max_examples=300)
@given(set_pairs())
@example((BandList(), BandList()))
@example((BandList(), BandList([1.0], [2.0])))
@example((BandList([1.0], [2.0]), BandList()))
@example((BandList([1.0], [2.0]), BandList([1.0 - MERGE_TOL], [2.0 + MERGE_TOL])))
@example((BandList([1.0], [2.0]), BandList([2.0 + 2 * MERGE_TOL], [2.0 + 2 * MERGE_TOL])))
def test_covers_matches_the_loop(pair):
    mine, theirs = pair
    assert mine.covers(theirs) == covers_loop(mine.intervals, theirs.intervals)
    assert theirs.covers(mine) == covers_loop(theirs.intervals, mine.intervals)


def test_ends_are_read_only_arrays_of_one_length():
    b = BandList([0.0, 2.0], [1.0, 3.0])
    assert b.lo.dtype == b.hi.dtype == np.float64
    with pytest.raises(ValueError):
        b.lo[0] = 5.0
    with pytest.raises(ValueError):
        BandList(((0.0, 1.0), (2.0, 3.0)))  # pairs are not a lo array
    assert b.endpoints().tolist() == [0.0, 1.0, 2.0, 3.0]
