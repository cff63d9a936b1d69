import math

import numpy as np
import pytest

from hexspec.errors import DomainError
from hexspec.flux import reduced_fractions
from hexspec.intervals import BandList
from hexspec.jacobi import rational_spectrum
from hexspec.qlambda import q_norm_bound, q_spectrum


def test_q_spectrum_half_flux_touching_bands():
    qs = q_spectrum(rational_spectrum(1, 2))
    assert len(qs.bands.intervals) == 4
    r13, r23 = math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0)
    expected = [(-r23, -r13), (-r13, 0.0), (0.0, r13), (r13, r23)]
    for (lo, hi), (elo, ehi) in zip(qs.bands.intervals, expected):
        assert lo == pytest.approx(elo, abs=1e-10)
        assert hi == pytest.approx(ehi, abs=1e-10)


def test_q_spectrum_zero_flux_full_interval():
    qs = q_spectrum(BandList([-3.0], [6.0]))
    assert qs.bands.merged().intervals == ((-1.0, 1.0),)


def test_q_spectrum_degenerate_point():
    qs = q_spectrum(BandList([-3.0], [-3.0]))
    assert qs.bands.contains(0.0)
    assert qs.bands.measure == 0.0


def test_q_spectrum_rejects_bands_below_minus_three():
    with pytest.raises(DomainError, match=r"^band \[-4.0,0.0\] below -3: negative radicand$"):
        q_spectrum(BandList([-4.0], [0.0]))


def q_spectrum_loop(sigma):
    """sigma(Q) band by band, sorted by (lo, hi): the oracle of
    q_spectrum's array code, as (lo, hi) pairs."""
    pos = [tuple(math.sqrt(max(e / 9.0 + 1.0 / 3.0, 0.0)) for e in iv)
           for iv in sigma.intervals]
    intervals = [(-hi, -lo) for lo, hi in reversed(pos)] + pos
    if not any(lo <= 0.0 <= hi for lo, hi in intervals):
        intervals.append((0.0, 0.0))
    return tuple(sorted(intervals))


def test_q_spectrum_matches_the_loop_bit_for_bit():
    sigmas = [rational_spectrum(p, q) for p, q in reduced_fractions(30)] + [
        BandList([-3.0], [-3.0]),
        BandList([-2.5, 0.5], [-1.0, 2.0]),  # {0} goes between the halves
        BandList(),
    ]
    for sigma in sigmas:
        # repr tells -0.0 from 0.0 and shows every bit of a float
        assert repr(q_spectrum(sigma).bands.intervals) == repr(q_spectrum_loop(sigma)), sigma


def test_q_spectrum_symmetry_and_zero():
    for p, q in ((0, 1), (1, 3), (2, 5), (3, 8), (5, 13)):
        qs = q_spectrum(rational_spectrum(p, q))
        iv = np.array(qs.bands.merged().intervals)
        neg = np.array(sorted([(-hi, -lo) for lo, hi in iv]))
        assert np.max(np.abs(iv - neg)) <= 1e-12
        assert qs.bands.contains(0.0)


def test_q_spectrum_band_count_per_sign():
    for p, q in ((1, 3), (2, 5), (3, 7)):
        sigma = rational_spectrum(p, q)
        qs = q_spectrum(sigma)
        pos = [iv for iv in qs.bands.intervals if iv[1] > 1e-14]
        assert len(pos) == len(sigma.intervals)


def test_q_measure_bound():
    for q in range(1, 21):
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            m = q_spectrum(rational_spectrum(p, q)).bands.measure
            assert m <= 8.0 * math.sqrt(6.0 * math.pi) / (9.0 * math.sqrt(q)) + 1e-12


def test_q_norm_bound_zero_flux_is_one():
    assert q_norm_bound(0.0) == pytest.approx(1.0, abs=1e-9)


def test_q_norm_bound_strictly_below_one_off_lattice():
    for k in (1, 7, 20, 33, 39):
        assert q_norm_bound(2.0 * math.pi * k / 40.0) < 1.0


def test_q_norm_bound_is_the_maximum():
    # the sup over theta taken on a dense grid: the closed form may exceed it
    # only by the grid's miss of the peak, and never fall below it
    theta = np.arange(2 ** 17) / 2 ** 17
    for phi in np.linspace(0.0, 2.0 * math.pi, 241):
        a = phi / (2.0 * math.pi)
        f = (np.sin(np.pi * (theta - a)) ** 2 + np.sin(np.pi * theta) ** 2
             + np.cos(2.0 * np.pi * theta) ** 2)
        grid = math.sqrt(1.0 / 3.0 + math.sqrt(12.0 * np.max(f)) / 9.0)
        assert grid - 1e-15 <= q_norm_bound(phi) <= grid + 1e-9, phi


def test_q_spectrum_within_norm_bound():
    for p, q in ((1, 2), (1, 3), (2, 5), (3, 8)):
        phi = 2.0 * math.pi * p / q
        bound = q_norm_bound(phi)
        bands = q_spectrum(rational_spectrum(p, q)).bands
        assert all(-bound - 1e-9 <= lo and hi <= bound + 1e-9
                   for lo, hi in bands.intervals)


def test_dirac_edge_is_exact_for_every_flux():
    # Sigma_{p/q} reaches down to exactly -3, so the two middle Q-bands touch
    # at the Dirac energy 0; an edge a few ulp above -3 would open a ~1e-8
    # gap there and q_spectrum would add the point band {0}
    for p, q in reduced_fractions(50):
        sigma = rational_spectrum(p, q)
        assert sigma.intervals[0][0] == -3.0, (p, q)
        qb = q_spectrum(sigma).bands.intervals
        assert len(qb) == 2 * q, (p, q)
        assert qb[q - 1][1] == 0.0 == qb[q][0], (p, q)
