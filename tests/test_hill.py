import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hexspec import graph, hill, loops, verify
from hexspec.errors import DomainError
from hexspec.flux import Flux, reduced_fractions
from hexspec.hill import (
    DEFAULT_STEPS,
    BandInverter,
    _bisect_many,
    dirichlet_eigenvalues,
    discriminant_batch,
    hill_bands,
    hill_bands_first_n,
    integrate_monodromy,
    invert_discriminant_on_band,
)
from hexspec.jacobi import rational_spectrum
from hexspec.potentials import PotentialSpec, parse_potential
from hexspec.qlambda import q_spectrum
from hexspec.verify import _full_interval, _rk4_steps

V0 = parse_potential("zero")
VM = parse_potential("mathieu:20")


@pytest.fixture
def rk4_calls(monkeypatch):
    """Records the number of energies in each call of the integrator kernel;
    a call costs about 1.3 ms plus 0.1 ms per energy at the default steps,
    so the calls and their energies guard the cost of root finding where
    wall time is too noisy to."""
    calls = []
    kernel = hill._rk4_loop
    hill._eigenvalues.cache_clear()  # a cached counting pass makes no call

    def counted(Vn, lams, steps):
        calls.append(lams.size)
        return kernel(Vn, lams, steps)

    monkeypatch.setattr(hill, "_rk4_loop", counted)
    return calls


def _cost_ms(calls):
    """The kernel time of the recorded calls on the rk4_calls cost model."""
    return 1.3 * len(calls) + 0.1 * sum(calls)


def test_monodromy_zero_potential_pi_squared():
    sol = integrate_monodromy(V0, math.pi ** 2)
    assert sol.c1 == pytest.approx(-1.0, abs=1e-9)
    assert sol.s1 == pytest.approx(0.0, abs=1e-9)
    assert sol.s1p == pytest.approx(-1.0, abs=1e-9)
    assert sol.delta == pytest.approx(-1.0, abs=1e-9)


def test_monodromy_zero_potential_at_zero_energy():
    sol = integrate_monodromy(V0, 0.0)
    assert sol.c1 == pytest.approx(1.0, abs=1e-12)
    assert sol.s1 == pytest.approx(1.0, abs=1e-12)
    assert sol.delta == pytest.approx(1.0, abs=1e-12)


def test_monodromy_mathieu_wronskian_and_symmetry():
    sol = integrate_monodromy(VM, 10.0)
    assert sol.wronskian == pytest.approx(1.0, abs=1e-9)
    assert sol.step_error <= 1e-9


@settings(max_examples=5, deadline=None)
@given(lams=st.lists(st.floats(-5.0, 120.0), min_size=1, max_size=30))
def test_wronskian_property(lams):
    for V in (V0, VM):
        sol = integrate_monodromy(V, lams)
        assert np.max(np.abs(sol.wronskian - 1.0)) <= 1e-9


def test_monodromy_batch_matches_scalar():
    lams = [-3.0, 10.0, 57.5]
    rows = zip(*astuple(integrate_monodromy(VM, lams)))
    for lam, row in zip(lams, rows):
        one = integrate_monodromy(VM, lam)
        assert isinstance(one.delta, float) and astuple(one) == row


def test_monodromy_fields_come_from_one_run():
    # mixing the c1, c1p, s1 of one step count with the s1p of another makes
    # the Wronskian read the step error (~1.5e-12)
    lams = np.linspace(-5.0, 100.0, 100)
    sol = integrate_monodromy(VM, lams)
    c1, c1p, s1, s1p = hill._rk4_fundamental(VM, lams, DEFAULT_STEPS)[:4]
    pairs = ((sol.c1, c1), (sol.c1p, c1p), (sol.s1, s1), (sol.s1p, s1p), (sol.delta, s1p))
    assert all(np.array_equal(got, want) for got, want in pairs)
    fine = discriminant_batch(VM, lams, 2 * DEFAULT_STEPS)
    assert np.array_equal(sol.step_error, np.abs(sol.delta - fine))
    assert np.max(np.abs(sol.wronskian - 1.0)) <= 1e-13


def test_discriminant_is_one_integration(rk4_calls):
    # the Delta every Hill answer uses is integrate_monodromy's, bit for bit
    assert discriminant_batch(VM, 10.0) == integrate_monodromy(VM, 10.0).delta
    lams = np.array([1.0, 10.0])
    assert np.array_equal(discriminant_batch(VM, lams), integrate_monodromy(VM, lams).delta)
    rk4_calls.clear()
    discriminant_batch(VM, 10.0)
    discriminant_batch(VM, lams)
    assert rk4_calls == [1, 2]


@pytest.mark.parametrize("steps", [0, 1, 4095])
def test_steps_must_split_at_half(steps):
    # the run stops at t = 1/2, so steps must be even; 0 divided by zero
    with pytest.raises(DomainError):
        discriminant_batch(V0, 10.0, steps)


def test_every_hill_answer_runs_at_default_steps(monkeypatch):
    # one discretisation: the bands, the inverters, the Dirac points, the
    # loop states and verify's band check all integrate at DEFAULT_STEPS;
    # only integrate_monodromy's step_error runs at twice that
    steps = []
    kernel = hill._rk4_loop

    def recorded(Vn, lams, n):
        steps.append(n)
        return kernel(Vn, lams, n)

    monkeypatch.setattr(hill, "_rk4_loop", recorded)
    hill._eigenvalues.cache_clear()
    graph._hill_side.cache_clear()
    hill_bands_first_n(VM, 2)
    graph.graph_spectrum(VM, Flux.rational(1, 3), 2)
    graph.butterfly(V0, 3, 2)
    state = loops.double_hexagon_state(1.0, dirichlet_eigenvalues(VM, 100.0)[0], V=VM)
    loops.verify_vertex_conditions(state, 1.0)
    assert verify._check_band_dirichlet()[0]
    assert len(steps) > 10 and set(steps) == {DEFAULT_STEPS}
    steps.clear()
    integrate_monodromy(VM, [1.0, 10.0])
    assert sorted(steps) == [DEFAULT_STEPS, 2 * DEFAULT_STEPS]


def test_kernel_integrates_half_the_interval(rk4_calls, monkeypatch):
    nodes = []
    counted = hill._rk4_loop

    def recorded(Vn, lams, steps):
        nodes.append(Vn.size)
        return counted(Vn, lams, steps)

    monkeypatch.setattr(hill, "_rk4_loop", recorded)
    discriminant_batch(VM, [1.0, 10.0])
    integrate_monodromy(VM, 10.0)
    assert rk4_calls == [2, 1, 1]
    # V at the starts and midpoints of the steps on [0, 1/2]
    assert nodes == [DEFAULT_STEPS + 1, DEFAULT_STEPS + 1, 2 * DEFAULT_STEPS + 1]


def test_discriminant_batch_keeps_the_shape_of_a_scalar():
    assert discriminant_batch(V0, 10.0).shape == ()
    assert discriminant_batch(V0, [10.0]).shape == (1,)


def test_discriminant_zero_potential_values():
    assert discriminant_batch(V0, 4 * math.pi ** 2) == pytest.approx(1.0, abs=1e-9)
    assert discriminant_batch(V0, (math.pi / 2) ** 2) == pytest.approx(0.0, abs=1e-10)


def test_hill_bands_zero_potential(rk4_calls):
    bands = hill_bands(V0, 25 * math.pi ** 2 + 1.0)
    assert _cost_ms(rk4_calls) <= 150
    # 529 energies, of which 276 distinct: each is integrated once
    assert sum(rk4_calls) <= 300
    assert len(bands) >= 5
    for k, b in enumerate(bands[:5], start=1):
        assert b.alpha == pytest.approx(math.pi ** 2 * (k - 1) ** 2, abs=1e-8)
        assert b.beta == pytest.approx(math.pi ** 2 * k ** 2, abs=1e-8)


def test_hill_band_edges_have_unit_discriminant():
    for V, lmax in ((V0, 100.0), (VM, 200.0)):
        bands = hill_bands(V, lmax)
        delta = discriminant_batch(V, [(b.alpha, b.beta) for b in bands], 2 * DEFAULT_STEPS)
        # Delta falls from +1 to -1 on odd bands and rises on even ones
        want = [(1.0, -1.0) if b.index % 2 else (-1.0, 1.0) for b in bands]
        assert len(bands) >= 3 and np.max(np.abs(delta - want)) < 1e-8


def test_mathieu_bands_have_open_gaps():
    bands = hill_bands(VM, 200.0)
    assert len(bands) >= 3
    for b1, b2 in zip(bands, bands[1:]):
        assert b2.alpha - b1.beta > 1e-3  # all low gaps of mathieu:20 are open


def test_hill_bands_empty_below_first_band():
    assert hill_bands(VM, -20.0) == []


def test_dirichlet_eigenvalues_zero_potential(rk4_calls):
    dirs = dirichlet_eigenvalues(V0, 100.0)
    assert _cost_ms(rk4_calls) <= 120
    expected = [k ** 2 * math.pi ** 2 for k in (1, 2, 3)]
    assert len(dirs) == 3
    assert np.allclose(dirs, expected, atol=1e-8)


def test_dirichlet_eigenvalues_at_band_edges():
    for V, lmax in ((V0, 150.0), (VM, 200.0)):
        edges = [e for b in hill_bands(V, lmax) for e in (b.alpha, b.beta)]
        dirs = dirichlet_eigenvalues(V, lmax)
        for d in dirs:
            assert min(abs(d - e) for e in edges) < 1e-6
        delta = discriminant_batch(V, dirs, 2 * DEFAULT_STEPS)
        assert np.max(np.abs(np.abs(delta) - 1.0)) < 1e-8


def _double_well():
    t = np.linspace(0.0, 1.0, 401)
    return PotentialSpec.tabulated(3000.0 * np.exp(-(((t - 0.5) / 0.06) ** 2)))


@pytest.mark.parametrize("V", [V0, VM, parse_potential("mathieu:-20"),
                               parse_potential("mathieu:-50"), _double_well()])
def test_half_run_matches_full_interval_oracle(V):
    # Delta, s(1) and c'(1) come from the values at 1/2 through the
    # reflection, and the counts from the zeros of c and s on (0, 1/2] and
    # the signs there; below the spectrum, where the values reach 1e6, the
    # 1e-9 is relative
    lams = np.linspace(-60.0, 3000.0, 1201)
    _, c1p, s1, delta, n_neu, n_dir = hill._rk4_fundamental(V, lams, DEFAULT_STEPS)
    full = _full_interval(V, lams)
    for half, want in zip((delta, s1, c1p), full):
        assert np.all(np.abs(half - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))
    assert np.array_equal(n_neu, full[3]) and np.array_equal(n_dir, full[4])


def _stepwise(V, lams, steps, monkeypatch):
    """_rk4_fundamental with the kernel swapped for the stepwise oracle."""
    with monkeypatch.context() as m:
        m.setattr(hill, "_rk4_loop", _rk4_steps)
        return hill._rk4_fundamental(V, lams, steps)


def _assert_matches_stepwise(V, lams, steps, monkeypatch):
    # Delta within 1e-12, relative where |Delta| > 1; the counts equal
    _, _, _, delta, n_neu, n_dir = hill._rk4_fundamental(V, lams, steps)
    want = _stepwise(V, lams, steps, monkeypatch)
    assert np.all(np.abs(delta - want[3]) <= 1e-12 * np.maximum(1.0, np.abs(want[3])))
    assert np.array_equal(n_neu, want[4]) and np.array_equal(n_dir, want[5])


@pytest.mark.parametrize("V", [V0, VM, parse_potential("mathieu:-20"),
                               parse_potential("mathieu:-50"), _double_well()])
def test_block_product_matches_stepwise_rk4(V, monkeypatch):
    # the counts come from sign changes at the nodes of 16-step blocks, which
    # have the least margin at the top of the counting range
    lams = np.linspace(V.min_value - 10.0, hill.COUNT_LAMBDA_MAX, 2001)
    _assert_matches_stepwise(V, lams, DEFAULT_STEPS, monkeypatch)


@pytest.mark.parametrize("steps", [66, 4100])
def test_block_product_pads_a_partial_block(steps, monkeypatch):
    # 33 and 2050 half-run steps: the last block is padded with identities
    lmax = hill.COUNT_LAMBDA_MAX * (steps / DEFAULT_STEPS) ** 2
    for V in (VM, _double_well()):
        lams = np.linspace(V.min_value - 10.0, lmax, 501)
        _assert_matches_stepwise(V, lams, steps, monkeypatch)


def test_kernel_is_independent_of_batch():
    # one energy fills a single chunk; in a batch of 2049 each chunk holds
    # one block
    lams = np.linspace(-30.0, hill.COUNT_LAMBDA_MAX, 2049)
    batch = hill._rk4_fundamental(VM, lams, DEFAULT_STEPS)
    for i in (0, 700, 2048):
        one = hill._rk4_fundamental(VM, lams[i], DEFAULT_STEPS)
        assert all(np.array_equal(a, b[i]) for a, b in zip(one, batch))


def test_dirichlet_eigenvalues_at_top_of_counting_range(rk4_calls):
    # there ulp(lambda) > EDGE_TOL, so only the cap on halvings ends them
    dirs = dirichlet_eigenvalues(V0, hill.COUNT_LAMBDA_MAX)
    assert len(dirs) == 100
    expected = (np.arange(1, 101) * math.pi) ** 2
    assert np.max(np.abs(np.array(dirs) / expected - 1.0)) <= 1e-6
    assert _cost_ms(rk4_calls) <= 2000


def test_double_well_close_pairs():
    # pairs 0.004 and 0.018 apart, which a 0.25 grid of sign changes misses;
    # reference: 4000-point finite differences give Neumann 13.045 and
    # 13.049, Dirichlet 52.0462 and 52.0642
    V = _double_well()
    dirs = dirichlet_eigenvalues(V, 200.0)
    assert len(dirs) == 2
    assert dirs == pytest.approx([52.046, 52.064], abs=2e-3)
    band1 = hill_bands(V, 200.0)[0]  # its edges are the two lowest Neumann ones
    assert [band1.alpha, band1.beta] == pytest.approx([13.045, 13.049], abs=2e-3)


def test_counting_range_is_enforced():
    # above 1e5 the 4096-step kernel no longer resolves the oscillation
    with pytest.raises(DomainError):
        hill_bands(V0, 1.5e5)
    with pytest.raises(DomainError):
        dirichlet_eigenvalues(V0, 1.5e5)


@pytest.mark.parametrize("V,n", [(V0, 5), (VM, 3), (_double_well(), 3)])
def test_hill_bands_first_n_is_one_pass(monkeypatch, V, n):
    windows = []
    bands_upto = hill.hill_bands

    def recorded(V, lambda_max, *args):
        windows.append(lambda_max)
        return bands_upto(V, lambda_max, *args)

    monkeypatch.setattr(hill, "hill_bands", recorded)
    bands = hill_bands_first_n(V, n)
    assert windows == [n ** 2 * math.pi ** 2 + V.max_value + 1.0]
    assert [b.index for b in bands] == list(range(1, n + 1))


@pytest.mark.parametrize("V", [V0, VM, parse_potential("mathieu:-50"), _double_well()])
def test_eigenvalues_do_not_depend_on_the_window(V):
    # every window bisects on one dyadic grid and each bracket stops in its
    # 2^-40 cell, so a smaller window gives a bitwise prefix; the 1e4 window
    # has brackets above 2^13, where that cell is below one ulp
    firsts = [hill_bands_first_n(V, n) for n in range(1, 6)]
    assert all(bands == firsts[-1][:n] for n, bands in enumerate(firsts, start=1))
    windows = (60.0, 250.0, 1000.0, 3000.0, 1e4)
    dirs = [dirichlet_eigenvalues(V, w) for w in windows]
    bands = [hill_bands(V, w) for w in windows]
    for d, b in zip(dirs, bands):
        assert d == dirs[-1][:len(d)] and b == bands[-1][:len(b)]


def test_bisect_many_stops_each_bracket_within_xtol():
    # above 2^13 a bracket cannot get within 1e-12 and halves to the cap;
    # the bracket below must stop where it stops alone
    roots = np.array([1.0 / 3.0, 1e4 + 1.0 / 3.0])
    alone = _bisect_many(lambda x: x - roots[:1], [0.0], [1.0], True, 1e-12)
    both = _bisect_many(lambda x: x - roots, [0.0, 8192.0], [1.0, 16384.0], True, 1e-12)
    assert both[0] == alone[0]


@st.composite
def _brackets(draw):
    """Brackets with a monotone cubic on each, some one ulp wide."""
    n = draw(st.integers(1, 6))
    x = st.floats(-100.0, 100.0)
    lo = np.array(draw(st.lists(x, min_size=n, max_size=n)))
    width = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 50.0)),
                                   min_size=n, max_size=n)))
    hi = np.where(width == 0.0, np.nextafter(lo, np.inf), lo + width)
    root = lo + np.array(draw(st.lists(st.floats(-0.2, 1.2), min_size=n,
                                       max_size=n))) * (hi - lo)
    slope = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)))
    increasing = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return lo, hi, root, slope, increasing


_CASE = tuple(np.array([x]) for x in (-96.02824536814833, -81.59053148003935,
                                       -84.75637296343996, 1.0, True))


@settings(max_examples=200, deadline=None)
@given(case=_brackets(), xtol=st.sampled_from([0.0, 1e-13]))
@example(case=_CASE, xtol=1e-13)
def test_bisect_many_finds_clamped_root(case, xtol):
    lo, hi, root, slope, increasing = case
    sign = np.where(increasing, 1.0, -1.0)
    calls = []

    def f(lams):
        calls.append(lams.shape)
        d = lams - root
        return sign * (slope * d + d ** 3)

    got = _bisect_many(f, lo, hi, increasing, xtol)
    # a root outside its bracket leaves f of one sign: the nearer end
    want = np.clip(root, lo, hi)
    tol = np.maximum(xtol, np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
    assert np.all(np.abs(got - want) <= tol)
    # one midpoint per bracket and call
    assert set(calls) <= {lo.shape} and len(calls) <= hill._MAX_HALVINGS


def test_invert_discriminant_basics():
    band1, band2 = hill_bands_first_n(V0, 2)
    assert invert_discriminant_on_band(V0, band1, 0.0) == pytest.approx(
        (math.pi / 2) ** 2, abs=1e-8
    )
    assert invert_discriminant_on_band(V0, band2, 0.0) == pytest.approx(
        (3 * math.pi / 2) ** 2, abs=1e-7
    )
    lam = invert_discriminant_on_band(V0, band1, math.sqrt(2.0 / 3.0))
    assert lam == pytest.approx(math.acos(math.sqrt(2.0 / 3.0)) ** 2, abs=1e-9)


def test_invert_discriminant_is_right_inverse():
    for V in (V0, VM):
        band = hill_bands_first_n(V, 2)[1]
        ws = np.array([-0.9, -0.3, 0.2, 0.8])
        lams = invert_discriminant_on_band(V, band, ws)
        assert np.max(np.abs(discriminant_batch(V, lams, 2 * DEFAULT_STEPS) - ws)) <= 1e-10
    assert invert_discriminant_on_band(V, band, ws[1]) == lams[1]  # batch = scalar


def test_invert_discriminant_rejects_outside_range():
    band = hill_bands_first_n(V0, 1)[0]
    with pytest.raises(DomainError):
        invert_discriminant_on_band(V0, band, 1.5)


def test_band_inverter_matches_bisection():
    band = hill_bands_first_n(VM, 1)[0]
    inv = BandInverter(VM, band)
    ws = np.linspace(-1.0, 1.0, 21)
    fast = inv(ws)
    slow = invert_discriminant_on_band(VM, band, ws)
    assert np.max(np.abs(fast - slow)) < 1e-8


def test_band_inverter_maps_edge_values_to_edges():
    # the model's edge values are off by ~1e-15 with either sign, so the
    # bracket's direction must come from the band's index; the
    # tolerance covers the ill-conditioned closed-gap edges of V=0
    for V, n in ((V0, 5), (VM, 3)):
        for band in hill_bands_first_n(V, n):
            w = discriminant_batch(V, [band.alpha, band.beta])
            got = BandInverter(V, band)(w)
            assert np.max(np.abs(got - [band.alpha, band.beta])) < 1e-5


def test_band_inverter_maps_unit_targets_to_edges_exactly():
    # at the closed gaps of V=0, Delta' = 0 at the edges, so a 1e-15 error
    # of the model there would move the crossing of +-1 by ~1e-7
    for V, n in ((V0, 5), (VM, 3)):
        for band in hill_bands_first_n(V, n):
            got = BandInverter(V, band)([1.0, -1.0])
            ends = [band.alpha, band.beta]
            assert got.tolist() == (ends if band.index % 2 else ends[::-1])


def test_band_inverter_builds_from_one_kernel_call(rk4_calls):
    band = hill_bands_first_n(VM, 2)[1]
    rk4_calls.clear()
    inv = BandInverter(VM, band)
    assert rk4_calls == [32]
    inv(np.linspace(-1.0, 1.0, 101))
    assert rk4_calls == [32]


@pytest.mark.parametrize("V,n", [(V0, 5), (VM, 3), (_double_well(), 3)])
def test_band_inverter_is_right_inverse(V, n):
    ws = np.linspace(-0.999, 0.999, 201)
    for band in hill_bands_first_n(V, n):
        lams = BandInverter(V, band)(ws)
        assert np.max(np.abs(discriminant_batch(V, lams) - ws)) <= 1e-10


def test_band_inverter_is_independent_of_batch():
    for band in hill_bands_first_n(VM, 2):
        inv = BandInverter(VM, band)
        ws = np.concatenate([[-1.0, 1.0, 0.0], np.linspace(-0.99999, 0.99999, 97)])
        lams = inv(ws)
        assert [inv(w)[0] for w in ws] == lams.tolist()
        assert inv(ws[::-1]).tolist() == lams[::-1].tolist()


@pytest.mark.parametrize("A", [1400, 1500, 1600, 1700])
def test_band_inverter_seeds_from_flat_cells(A):
    # band 1 is 16 to 1 bisection cells wide, so neighbouring nodes of the
    # seed table are the same float and many of its cells are flat
    V = parse_potential(f"mathieu:{A}")
    band = hill_bands_first_n(V, 1)[0]
    with warnings.catch_warnings():  # the model's fit is ill-conditioned here
        warnings.simplefilter("ignore", np.exceptions.RankWarning)
        inv = BandInverter(V, band)
    ws = np.concatenate([q_spectrum(rational_spectrum(p, q)).bands.endpoints()
                         for p, q in reduced_fractions(20)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lams = inv(ws)
    assert np.all((band.alpha <= lams) & (lams <= band.beta))


def test_band_inverter_chunks_leave_every_bit(monkeypatch):
    # a call inverts its targets in chunks of _INVERT_CHUNK; chunks of 7
    # split this (50, 2) batch across rows and must give the same bits
    band = hill_bands_first_n(VM, 1)[0]
    inv = BandInverter(VM, band)
    ws = np.linspace(-1.0, 1.0, 100).reshape(50, 2)
    whole = inv(ws)
    monkeypatch.setattr(hill, "_INVERT_CHUNK", 7)
    chunked = inv(ws)
    assert chunked.shape == (50, 2)
    assert chunked.tolist() == whole.tolist()
