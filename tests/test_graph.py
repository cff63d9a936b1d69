import collections
import math
import tracemalloc

import numpy as np
import pytest

from hexspec import graph, hill
from hexspec.errors import DomainError
from hexspec.flux import Flux, mirror_numerator, reduced_fractions
from hexspec.graph import butterfly, dirac_points, graph_spectrum
from hexspec.hill import discriminant_batch
from hexspec.intervals import BandList
from hexspec.jacobi import rational_spectrum
from hexspec.potentials import parse_potential
from hexspec.qlambda import QSpectrum, q_spectrum

V0 = parse_potential("zero")
VM = parse_potential("mathieu:20")


def test_graph_spectrum_half_flux_band1():
    gs = graph_spectrum(V0, Flux.rational(1, 2), 1)[0]
    iv = gs.continuous_bands.intervals
    assert len(iv) == 4
    lo = math.acos(math.sqrt(2.0 / 3.0)) ** 2
    hi = (math.pi - math.acos(math.sqrt(2.0 / 3.0))) ** 2
    assert iv[0][0] == pytest.approx(lo, abs=1e-9)
    assert iv[-1][1] == pytest.approx(hi, abs=1e-9)
    # internal touchpoints at the preimages of +-sqrt(1/3) and 0
    assert iv[1][1] == pytest.approx((math.pi / 2) ** 2, abs=1e-9)
    assert iv[0][1] == pytest.approx(
        math.acos(math.sqrt(1.0 / 3.0)) ** 2, abs=1e-9
    )


def test_graph_spectrum_zero_flux_fills_bands():
    for g in graph_spectrum(V0, Flux.rational(0, 1), 2):
        k = g.hill_band_index
        merged = g.continuous_bands.merged()
        assert merged.intervals[0][0] == pytest.approx(
            math.pi ** 2 * (k - 1) ** 2, abs=1e-8
        )
        assert merged.intervals[-1][1] == pytest.approx(
            math.pi ** 2 * k ** 2, abs=1e-8
        )


def test_graph_spectrum_gap_openness():
    for g in graph_spectrum(V0, Flux.rational(1, 3), 2):
        iv = g.continuous_bands.intervals
        assert iv[0][0] > g.hill_band.alpha + 1e-6
        assert iv[-1][1] < g.hill_band.beta - 1e-6


def test_graph_spectrum_rejects_irrational_flux():
    with pytest.raises(DomainError):
        graph_spectrum(V0, Flux.real(0.5 * (math.sqrt(5) - 1)), 1)


def test_graph_bands_nonoverlapping_within_hill_band():
    for g in graph_spectrum(VM, Flux.rational(2, 5), 2):
        iv = g.continuous_bands.intervals
        for (a1, b1), (a2, b2) in zip(iv, iv[1:]):
            assert b1 <= a2 + 1e-10


def test_dirac_points_zero_potential():
    pts = dirac_points(V0, 3)
    for k, lam in enumerate(pts, start=1):
        assert lam == pytest.approx(((2 * k - 1) * math.pi / 2) ** 2, abs=1e-7)
        assert abs(discriminant_batch(V0, lam)) <= 1e-10


def test_dirac_points_mathieu_residual():
    for lam in dirac_points(VM, 2):
        assert abs(discriminant_batch(VM, lam)) <= 1e-10


def test_dirichlet_points_are_the_dirichlet_edges():
    # bands 1 and 2 of mathieu:1000 are 2.0e-9 and 2.1e-7 wide, so both of
    # their edges lie within 1e-6 of a Dirichlet eigenvalue; only one is one.
    # At the closed gaps of V = 0 both neighbouring bands keep the point
    V = parse_potential("mathieu:1000")
    dirs = hill.dirichlet_eigenvalues(V, hill.bands_window(V, 2))
    for g in graph_spectrum(V, Flux.rational(1, 3), 2):
        assert len(g.dirichlet_points) == 1 and g.dirichlet_points[0] in dirs
    band2 = graph_spectrum(V0, Flux.rational(1, 3), 2)[1]
    assert band2.dirichlet_points == (band2.hill_band.alpha, band2.hill_band.beta)


def test_dirac_point_in_spectrum_for_sampled_fluxes():
    pts = dirac_points(V0, 2)
    for p, q in ((0, 1), (1, 2), (1, 3), (2, 5), (3, 7)):
        for g in graph_spectrum(V0, Flux.rational(p, q), 2):
            d = pts[g.hill_band_index - 1]
            assert g.continuous_bands.distance(d) <= 1e-9


def test_local_symmetry_check():
    # sigma(Q) is symmetric under negation, so the Delta-image of the graph
    # bands in one Hill band is too, up to the inverter's residual
    for V, (p, q), k in ((V0, (1, 2), 1), (V0, (0, 1), 1), (VM, (2, 5), 2)):
        spec = graph_spectrum(V, Flux.rational(p, q), k)[k - 1]
        ws = np.sort(discriminant_batch(V, spec.continuous_bands.endpoints()))
        assert ws.size == 2 * len(spec.continuous_bands) > 0
        assert np.max(np.abs(ws + ws[::-1])) <= 1e-10, (p, q, k)


def test_butterfly_small():
    ds = butterfly(V0, 2, 1)
    assert ds.rows.dtype.names == ("p", "q", "hill_band", "lo", "hi")
    assert not ds.rows.flags.writeable
    cols = collections.defaultdict(list)
    for p, q, k, lo, hi in ds.rows:
        cols[(p, q)].append((lo, hi))
    assert len(cols[(0, 1)]) == 2  # zero flux: [-1,0] and [0,1] pull back
    assert len(cols[(1, 2)]) == 4
    assert ds.dirichlet_lines[0] == pytest.approx(math.pi ** 2, abs=1e-8)


def test_butterfly_ordering_and_measure():
    ds = butterfly(V0, 5, 1)
    keys = [(q, p, k, lo) for p, q, k, lo, hi in ds.rows]
    assert keys == sorted(keys)
    per_col = collections.defaultdict(float)
    for p, q, k, lo, hi in ds.rows:
        per_col[(p, q)] += hi - lo
    hill_measure = math.pi ** 2
    for total in per_col.values():
        assert total <= hill_measure + 1e-9


def test_butterfly_band_measure_shrinks_with_q():
    ds = butterfly(V0, 50, 1)
    per_col = collections.defaultdict(float)
    for p, q, k, lo, hi in ds.rows:
        assert lo <= hi  # also for the point bands near the Hill edge
        per_col[(p, q)] += hi - lo
    wide = per_col[(1, 2)]
    for p in range(1, 50):
        if math.gcd(p, 50) == 1:
            assert per_col[(p, 50)] < wide


def test_butterfly_rows_in_one_order():
    # (q, p, band, lo) ties, such as two band-1 rows at 47/49, go by hi
    rows = butterfly(V0, 49, 1).rows
    assert np.array_equal(rows, np.sort(rows, order=["q", "p", "hill_band", "lo", "hi"]))


def test_butterfly_columns_equal_graph_spectrum():
    # at 47/49 with V = 0 and one Hill band, two band-1 rows tie in lo
    for V, q_max, n_bands in ((V0, 6, 2), (VM, 6, 2), (V0, 49, 1)):
        rows = butterfly(V, q_max, n_bands).rows
        pqs = zip(rows.p.tolist(), rows.q.tolist())
        for p, q in {(p, q) for p, q in pqs if q <= 6 or (p, q) == (47, 49)}:
            col = rows[(rows.p == p) & (rows.q == q)]
            for g in graph_spectrum(V, Flux.rational(p, q), n_bands):
                band = col[col.hill_band == g.hill_band_index]
                assert tuple(zip(band.lo.tolist(), band.hi.tolist())) == (
                    g.continuous_bands.intervals
                )


def test_pullback_rejects_q_band_outside_delta_range(monkeypatch):
    # a Q-band reaching 1.5 has no preimage under Delta; it is not clipped
    monkeypatch.setattr(graph, "q_spectrum", lambda sigma: QSpectrum(BandList([0.5], [1.5])))
    with pytest.raises(DomainError):
        graph_spectrum(V0, Flux.rational(1, 3), 1)
    with pytest.raises(DomainError):
        butterfly(V0, 3, 1)


def test_butterfly_holds_one_copy_of_the_rows():
    # measured peaks: 1.91 x rows.nbytes with one array filled in place,
    # 3.29 x when per-band columns were concatenated and sorted into a copy
    butterfly(V0, 20, 10)
    tracemalloc.start()
    try:
        rows = butterfly(V0, 20, 10).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * rows.nbytes


def test_hill_side_makes_one_counting_pass():
    # the bands and the Dirichlet lines come from one cached pass
    hill._eigenvalues.cache_clear()
    bands, _, dirs, _, _ = graph._hill_side.__wrapped__(VM, 2)
    info = hill._eigenvalues.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert len(bands) == 2 and dirs[0] in (bands[0].beta, bands[1].alpha)


def test_band_rows_do_not_depend_on_the_band_count():
    rows = butterfly(V0, 20, 5).rows
    assert np.array_equal(butterfly(V0, 20, 1).rows, rows[rows.hill_band == 1])


def test_graph_spectrum_inverts_once_per_flux_and_band(monkeypatch):
    # the Dirac points are inverted once per potential and band count
    calls = []
    invert = hill.BandInverter.__call__

    def counted(self, w):
        calls.append(self)
        return invert(self, w)

    monkeypatch.setattr(hill.BandInverter, "__call__", counted)
    graph._hill_side.cache_clear()
    for q in range(11, 31):
        graph_spectrum(VM, Flux.rational(1, q), 3)
    assert len(calls) == 20 + 1


@pytest.mark.parametrize("V", [V0, VM], ids=["zero", "mathieu:20"])
def test_mirror_columns_are_equal_bit_for_bit(V):
    rows = butterfly(V, 30, 2).rows
    cols = {}
    for p, q in set(zip(rows.p.tolist(), rows.q.tolist())):
        cols[p, q] = rows[(rows.p == p) & (rows.q == q)][["hill_band", "lo", "hi"]]
    for p, q in cols:
        assert np.array_equal(cols[p, q], cols[(q - p) % q, q]), (p, q)


def test_pullback_inverts_the_q_band_ends_of_each_mirror_pair_once(monkeypatch):
    # one inverter call per block of whole mirror pairs, in the order they
    # first appear; a block is as many pairs as fit in an eighth of all the
    # ends, clipped to between a quarter pass and a pass of chunk // 2 ends
    # (2 bands), so that the next pair would not.  The chunks give the
    # quarter pass (2^15, 2^13), the eighth (2000) and the pass (1000)
    calls = []
    invert = hill.BandInverter.__call__

    def counted(self, w):
        calls.append(w)
        return invert(self, w)

    butterfly(V0, 30, 2)  # the Hill side, its Dirac inversions included, is cached
    monkeypatch.setattr(hill.BandInverter, "__call__", counted)
    pairs = dict.fromkeys((mirror_numerator(p, q), q) for p, q in reduced_fractions(30))
    ends = [q_spectrum(rational_spectrum(p, q)).bands.endpoints() for p, q in pairs]
    sizes = np.array([e.size for e in ends])
    assert len(pairs) == 140
    for chunk in (hill._INVERT_CHUNK, 2**13, 2000, 1000):
        calls.clear()
        monkeypatch.setattr(hill, "_INVERT_CHUNK", chunk)
        butterfly(V0, 30, 2)
        assert np.concatenate(calls).ravel().tolist() == np.concatenate(ends).tolist()
        # each call ends where a pair does, and the next pair would not fit
        last = np.searchsorted(np.cumsum(sizes), np.cumsum([c.size for c in calls]))
        assert np.cumsum(sizes)[last].tolist() == np.cumsum([c.size for c in calls]).tolist()
        size = np.clip(sizes.sum() // 8, chunk // 8, chunk // 2)
        assert max(c.size for c in calls) <= size
        for call, nxt in zip(calls, sizes[last[:-1] + 1]):
            assert size < call.size + nxt


@pytest.mark.parametrize("V", [V0, VM], ids=["zero", "mathieu:20"])
@pytest.mark.parametrize("chunk", [3 * 5, 3 * 40])
def test_pullback_blocks_leave_every_bit(monkeypatch, V, chunk):
    # blocks of whole mirror pairs of a few ends each (one pair a block at
    # 5 ends, several small pairs at 40) give the rows and the residuals of
    # one block, bit for bit
    whole = butterfly(V, 12, 3)
    monkeypatch.setattr(hill, "_INVERT_CHUNK", chunk)
    blocked = butterfly(V, 12, 3)
    assert blocked.rows.tolist() == whole.rows.tolist()
    assert blocked.inverter_residual == whole.inverter_residual


def test_butterfly_threaded_is_deterministic():
    assert np.array_equal(butterfly(V0, 4, 1, threads=4).rows, butterfly(V0, 4, 1).rows)
