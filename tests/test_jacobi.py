import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexspec import jacobi
from hexspec.errors import ConsistencyError, DomainError
from hexspec.flux import Flux, golden_flux, reduced_fractions
from hexspec.jacobi import (
    _theta_stars,
    build_Mq,
    chambers_Gq,
    coeff_c,
    coeff_v,
    rational_spectrum,
    theta_spectrum,
    transfer_D_product,
)


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Records the argument of every np.linalg.eigvalsh call."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def _bloch_block(theta, nu, p, q):
    """The periodic block with Floquet corner phase e^{2 pi i nu}, complex."""
    return jacobi._bloch_blocks(p, q, [theta], [cmath.exp(2j * math.pi * nu)])[0]


def _per_entry_block(theta, nu, p, q):
    """The periodic block built entry by entry as a complex matrix: the
    reference for the stacked real construction."""
    alpha = p / q
    if q == 1:
        val = coeff_v(theta) + 2.0 * math.cos(2.0 * math.pi * nu) * abs(coeff_c(theta))
        return np.array([[val]], dtype=complex)
    M = np.zeros((q, q), dtype=complex)
    for j in range(q):
        M[j, j] = coeff_v(theta - j * alpha)
    for j in range(q - 1):
        b = abs(coeff_c(theta - (j + 1) * alpha))
        M[j + 1, j] = b
        M[j, j + 1] = b
    corner = np.exp(2j * math.pi * nu) * abs(coeff_c(theta))
    M[0, q - 1] += corner
    M[q - 1, 0] += np.conj(corner)
    return M


def _per_entry_endpoints(p, q, theta):
    e_half = np.linalg.eigvalsh(_per_entry_block(theta, 0.5, p, q))
    e_zero = np.linalg.eigvalsh(_per_entry_block(theta, 0.0, p, q))
    return np.minimum(e_half, e_zero), np.maximum(e_half, e_zero)


def _random_reduced(rng, qmax):
    q = int(rng.integers(1, qmax + 1))
    p = int(rng.integers(0, q))
    while math.gcd(p, q) != 1:
        p = int(rng.integers(0, q))
    return p, q


def test_transfer_D_entries():
    # D(theta) = [[lam - v(theta), -conj(c(theta - alpha))], [c(theta), 0]],
    # the product of one factor
    flux = Flux.rational(0, 1)
    lam, theta = 1.7, 0.23
    D = transfer_D_product(lam, theta, flux, 1)
    assert np.trace(D) == pytest.approx(lam - 2 * math.cos(2 * math.pi * theta))
    det = np.linalg.det(D)
    expected = coeff_c(theta) * np.conj(coeff_c(theta - flux.alpha))
    assert det == pytest.approx(expected)


def test_trace_D2_symbolic():
    # at p/q = 1/2: tr(D_2) = lam^2 - 6 - 2 cos(4 pi theta)
    lam, theta = 1.9, 0.31
    tr = np.trace(transfer_D_product(lam, theta, Flux.rational(1, 2), 2))
    assert tr.real == pytest.approx(
        lam ** 2 - 6.0 - 2.0 * math.cos(4 * math.pi * theta), abs=1e-12
    )
    assert abs(tr.imag) < 1e-12


def test_chambers_low_q_closed_forms():
    assert chambers_Gq(0.7, 0, 1) == pytest.approx(0.7, abs=1e-12)
    for lam in (-2.0, 0.4, 3.1):
        assert chambers_Gq(lam, 1, 2) == pytest.approx(lam ** 2 - 6.0, abs=1e-10)


def test_chambers_theta_independence():
    for q in range(1, 51):
        p = 1 if q > 1 else 0
        base = chambers_Gq(2.2, p, q)
        other = chambers_Gq(2.2, p, q, theta0=1.0 / (4 * q) + 0.137)
        assert abs(base - other) <= 1e-10 * (1.0 + abs(base))


def test_build_Mq_q1():
    assert build_Mq(0, 1)[0, 0] == pytest.approx(-2.0)


def test_build_Mq_hermitian_real_eigenvalues():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p, q = _random_reduced(rng, 12)
        M = build_Mq(p, q)
        assert np.max(np.abs(M - M.conj().T)) < 1e-14
        assert np.max(np.abs(np.linalg.eigvals(M).imag)) < 1e-10


def test_det_equals_trace():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p, q = _random_reduced(rng, 30)
        theta = 0.5 + int(rng.integers(0, q)) / q
        lam = float(rng.uniform(-8, 8))
        det = np.linalg.det(lam * np.eye(q) - build_Mq(p, q))
        tr = np.trace(transfer_D_product(lam, theta, Flux.rational(p, q), q))
        assert abs(det - tr) <= 1e-8 * (1.0 + abs(tr))


def test_bloch_block_corners():
    M0 = _bloch_block(0.2, 0.0, 1, 3)
    Mh = _bloch_block(0.2, 0.5, 1, 3)
    assert M0[0, 2] == pytest.approx(abs(coeff_c(0.2)))
    assert Mh[0, 2] == pytest.approx(-abs(coeff_c(0.2)))


def test_Mq_nu_eigenvalues_hit_chambers_level_sets():
    # eig(M_{q,0}) solves G_q = L_q and eig(M_{q,1/2}) solves G_q = l_q
    p, q, theta = 1, 2, 0.1
    env = 4.0 * abs(math.sin(math.pi * q * (theta + 0.5)))
    osc = 2.0 * math.cos(2 * math.pi * q * theta)
    for nu, level in ((0.0, env + osc), (0.5, -env + osc)):
        for lam in np.linalg.eigvalsh(_bloch_block(theta, nu, p, q)):
            assert chambers_Gq(lam, p, q) == pytest.approx(level, abs=1e-10)


def test_theta_spectrum_scalar_case():
    bands = theta_spectrum(0, 1, 0.0)
    assert bands.intervals == ((-2.0, 6.0),)


def test_theta_spectrum_degenerates_on_lattice():
    # at theta = 1/2 the coupling c vanishes and all bands collapse to points
    assert theta_spectrum(1, 2, 0.5).measure == pytest.approx(0.0, abs=1e-12)


def test_theta_spectrum_against_nu_sweep():
    p, q, theta = 1, 3, 0.2
    bands = theta_spectrum(p, q, theta)
    nus = np.linspace(0.0, 1.0, 801)
    eigs = np.array([np.linalg.eigvalsh(_bloch_block(theta, nu, p, q)) for nu in nus])
    for k, (lo, hi) in enumerate(bands.intervals):
        assert lo == pytest.approx(eigs[:, k].min(), abs=1e-6)
        assert hi == pytest.approx(eigs[:, k].max(), abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lidskii_bound_property(data):
    q = data.draw(st.integers(1, 20))
    p = data.draw(st.integers(0, q - 1).filter(lambda p: math.gcd(p, q) == 1))
    theta = data.draw(st.floats(0.0, 1.0, exclude_max=True))
    m = theta_spectrum(p, q, theta).measure
    assert m <= 4.0 * abs(coeff_c(theta)) + 1e-9


def test_rational_spectrum_q1():
    assert rational_spectrum(0, 1).intervals == ((-3.0, 6.0),)
    assert rational_spectrum(1, 1).intervals == ((-3.0, 6.0),)


def test_rational_spectrum_half_flux():
    merged = rational_spectrum(1, 2).merged()
    assert merged.intervals[0][0] == pytest.approx(-3.0, abs=1e-10)
    assert merged.intervals[-1][1] == pytest.approx(3.0, abs=1e-10)
    assert merged.measure == pytest.approx(6.0, abs=1e-9)


def test_rational_spectrum_rejects_unreduced():
    with pytest.raises(DomainError):
        rational_spectrum(2, 4)


def test_rational_spectrum_band_count():
    for p, q in ((1, 3), (2, 5), (3, 7), (5, 8)):
        assert len(rational_spectrum(p, q).intervals) == q


def test_rational_spectrum_matches_theta_grid_oracle():
    for p, q in ((1, 3), (1, 4), (2, 5)):
        grid = np.linspace(0, 1, 4001, endpoint=False) + 0.0000734
        los = np.full(q, np.inf)
        his = np.full(q, -np.inf)
        for th in grid:
            b = theta_spectrum(p, q, th)
            arr = np.array(b.intervals)
            los = np.minimum(los, arr[:, 0])
            his = np.maximum(his, arr[:, 1])
        got = np.array(rational_spectrum(p, q).intervals)
        assert np.max(np.abs(got[:, 0] - los)) < 1e-6
        assert np.max(np.abs(got[:, 1] - his)) < 1e-6


def test_rational_spectrum_edges_sit_on_the_chambers_window():
    # Sigma_{p/q} = G_q^{-1}(I_q): each band has one edge where G_q = min I_q
    # and one where G_q = max I_q; chambers_Gq loses digits at the edges
    # above q ~ 12
    for p, q in reduced_fractions(10):
        window = [-3.0, 6.0] if q % 2 else [-6.0, 3.0]
        edges = np.array(rational_spectrum(p, q).intervals)
        g = np.sort(chambers_Gq(edges.ravel(), p, q).reshape(q, 2), axis=1)
        assert np.max(np.abs(g - window)) <= 1e-7, (p, q)


def test_measure_bound_examples():
    assert rational_spectrum(1, 5).measure < 16 * math.pi / 15
    assert rational_spectrum(13, 21).measure <= 16 * math.pi / 63


def test_normalized_trace_identity():
    # |prod c| = 2|sin(pi q (theta+1/2))| off the singular lattice, and
    # det D_q = |prod c|^2 up to the digits the product loses
    rng = np.random.default_rng(11)
    for _ in range(10):
        p, q = _random_reduced(rng, 12)
        theta = float(rng.uniform(0.02, 0.45))
        lam = float(rng.uniform(-6, 6))
        D = transfer_D_product(lam, theta, Flux.rational(p, q), q)
        prod = np.prod([coeff_c(theta + j * p / q) for j in range(q)])
        assert abs(prod) == pytest.approx(
            2.0 * abs(math.sin(math.pi * q * (theta + 0.5))), abs=1e-9
        )
        assert abs(np.linalg.det(D) - abs(prod) ** 2) <= 1e-12 * (
            1.0 + np.linalg.norm(D) ** 2
        )


def test_transfer_D_product_is_ordered_product_of_transfer_D():
    rng = np.random.default_rng(13)
    for flux in (Flux.rational(2, 7), Flux.real(0.5 * (math.sqrt(5) - 1))):
        for _ in range(5):
            lam, theta = float(rng.uniform(-6, 6)), float(rng.uniform(0, 1))
            expected = np.eye(2, dtype=complex)
            for j in range(9):
                expected = transfer_D_product(lam, theta + j * flux.alpha, flux, 1) @ expected
            got = transfer_D_product(lam, theta, flux, 9)
            assert np.max(np.abs(got - expected)) <= 1e-12 * (
                1.0 + np.max(np.abs(expected))
            )


def _sequential_d_product(lam, theta, alpha, n):
    """Oracle: the product with one factor per step, each applied to the
    running product, and its condition max_k ||D_n..D_{k+1}|| ||D_k..D_1||
    (Frobenius), the first-order effect of a relative error in one factor."""
    shape = np.broadcast_shapes(np.shape(lam), np.shape(theta))
    eye = [np.full(shape, v, dtype=complex) for v in (1.0, 0.0, 0.0, 1.0)]
    factors = []
    for j in range(n):
        th = theta + j * alpha
        factors.append((lam - 2.0 * np.cos(2.0 * np.pi * th),
                        -(1.0 + np.exp(2j * np.pi * (th - alpha))),
                        1.0 + np.exp(-2j * np.pi * th)))
    prefix, suffix = [eye], [eye]
    for t, u, w in factors:
        a, b, c, d = prefix[-1]
        prefix.append((t * a + u * c, t * b + u * d, w * a, w * b))
    for t, u, w in reversed(factors):
        a, b, c, d = suffix[-1]
        suffix.append((a * t + b * w, a * u, c * t + d * w, c * u))
    norms = [np.sqrt(sum(np.abs(e) ** 2 for e in m)) for m in prefix + suffix]
    kappa = np.max([norms[k] * norms[2 * n + 1 - k] for k in range(n + 1)], axis=0)
    return prefix[-1], kappa


@pytest.mark.parametrize("lam, theta", [
    (0.7, 0.13),                                         # one energy, one angle
    (-3.0, np.arange(64) / 13 + 0.05j),                  # complex angles x/q + i eps
    (np.linspace(-6.5, 6.5, 64), 1.0 / 52.0),            # an energy batch
], ids=["scalar", "complex-theta-batch", "lambda-batch"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 9, 17, 100])
def test_d_product_tree_matches_the_sequential_product(lam, theta, n):
    alpha = 5 / 13
    shape = np.broadcast_shapes(np.shape(lam), np.shape(theta))
    want, kappa = _sequential_d_product(lam, theta, alpha, n)
    size = np.sqrt(sum(np.abs(e) ** 2 for e in want))  # Frobenius norm
    for renorm in (False, True):
        *got, log_scale = jacobi._d_product(lam, theta, alpha, n, renorm=renorm)
        assert np.shape(log_scale) == shape
        if not renorm or n == 0:
            assert np.all(log_scale == 0.0)
        for g, w in zip(got, want):
            assert np.shape(g) == shape and np.iscomplexobj(g)
            err = np.abs(g * np.exp(log_scale) - w)
            # mantissa * e^{log scale} is the product, to 1e-12 of its
            # condition kappa (seen: <= 5.7e-14).  kappa is the norm of the
            # product unless partial products outgrow it: at n = 100 near
            # the Dirac edge lam = -2.79 it is 4.3e3 times the norm, and the
            # sequential product itself is 2.0e-11 of the norm from a
            # 50-digit one
            assert np.all(err <= 1e-12 * (1.0 + kappa))
            if n == 0:
                # the empty product is the identity, exactly
                assert np.all(g == w)


def test_stacked_blocks_match_per_entry_construction():
    # q = 1 and q = 2 included, where the corners share the diagonal and the
    # off-diagonal entry
    rng = np.random.default_rng(17)
    for p, q in reduced_fractions(30):
        stars = _theta_stars(q)
        thetas = list(stars) + list(rng.uniform(0.0, 1.0, 3))
        for theta in thetas:
            lo, hi = _per_entry_endpoints(p, q, theta)
            got = np.array(theta_spectrum(p, q, theta).intervals)
            assert np.max(np.abs(got - np.stack((lo, hi), axis=1))) <= 1e-12
            for nu in (0.0, 0.5, 0.3):
                M = _bloch_block(theta, nu, p, q)
                assert M.dtype == complex
                assert np.max(np.abs(M - _per_entry_block(theta, nu, p, q))) <= 1e-14
        # build_Mq is the block at theta = 1/2, whose corner c(1/2) = 0
        # vanishes whatever nu; at every lattice angle the block has its
        # eigenvalues, one coupling vanishing there
        got = np.linalg.eigvalsh(build_Mq(p, q))
        for k in range(q):
            want = np.linalg.eigvalsh(_per_entry_block(0.5 + k / q, 0.3, p, q))
            assert np.max(np.abs(got - want)) <= 1e-12
        ends = [_per_entry_endpoints(p, q, th) for th in stars]
        lo = np.minimum(ends[0][0], ends[1][0])
        hi = np.maximum(ends[0][1], ends[1][1])
        got = np.array(rational_spectrum(p, q).intervals)
        assert np.max(np.abs(got - np.stack((lo, hi), axis=1))) <= 1e-12


def test_rational_spectrum_solves_two_banded_blocks(eigvalsh_calls, monkeypatch):
    # neither Sigma nor a per-theta spectrum calls a dense eigvalsh: each block
    # goes to LAPACK dsbev as a float64 band array of the ring order,
    # bandwidth 2
    import scipy.linalg.lapack as lapack

    band_calls = []
    dsbev = lapack.dsbev

    def recorded(ab, *args, **kwargs):
        band_calls.append(ab)
        return dsbev(ab, *args, **kwargs)

    monkeypatch.setattr(lapack, "dsbev", recorded)
    jacobi._sigma.cache_clear()  # earlier tests may have solved these fluxes
    for p, q in ((0, 1), (1, 2), (2, 7), (13, 21), (55, 89)):
        for solve in (lambda: rational_spectrum(p, q), lambda: theta_spectrum(p, q, 0.3)):
            band_calls.clear()
            solve()
            assert eigvalsh_calls == []
            assert len(band_calls) == 2
            for ab in band_calls:
                assert ab.dtype == np.float64 and ab.shape == (min(q, 3), q)


def test_banded_blocks_are_the_lower_band_of_the_dense_ring():
    # the dense blocks permuted to the ring order 0, q-1, 1, q-2, ... and read
    # as LAPACK lower band storage, entry for entry; q = 1 and 2 included,
    # where the corners are added onto the diagonal and the middle edge
    rng = np.random.default_rng(23)
    for p, q in reduced_fractions(30):
        ring = [k for pair in zip(range(q), range(q - 1, -1, -1)) for k in pair][:q]
        thetas = list(_theta_stars(q)) + list(rng.uniform(0.0, 1.0, 2))
        phases = [-1.0, 1.0, -1.0, 1.0]
        dense = jacobi._bloch_blocks(p, q, thetas, phases)[:, ring][:, :, ring]
        want = np.zeros((len(thetas), min(q, 3), q))
        for d in range(min(q, 3)):
            want[:, d, :q - d] = np.diagonal(dense, -d, axis1=1, axis2=2)
        assert np.array_equal(jacobi._banded_blocks(p, q, thetas, phases), want), (p, q)


def test_banded_sigma_matches_dense_hull():
    # the hull of the dense eigvalsh of the same two blocks, q = 1 and 2
    # (shared entries) included
    for p, q in reduced_fractions(100):
        eigs = np.linalg.eigvalsh(jacobi._bloch_blocks(p, q, _theta_stars(q), [-1.0, 1.0]))
        want = np.stack((eigs.min(axis=0), eigs.max(axis=0)), axis=1)
        got = np.array(rational_spectrum(p, q).intervals)
        assert got.shape == (q, 2)
        assert np.max(np.abs(got - want)) <= 1e-12, (p, q)


def test_bottom_edge_passes_the_pin_guard_at_golden_convergents():
    # rational_spectrum raises ConsistencyError if the solve's bottom edge is
    # more than 1e-10 from -3
    for p, q in golden_flux().convergents:
        if q > 4181:
            break
        sigma = rational_spectrum(p, q)
        assert len(sigma) == q and sigma.intervals[0][0] == -3.0


def test_rational_spectrum_rejects_a_bottom_edge_far_from_minus_three(monkeypatch):
    # at angles other than the extremizing ones the hull misses -3 by far more
    # than rounding, and the pin must not hide that
    monkeypatch.setattr(jacobi, "_theta_stars", lambda q: (0.3, 0.3))
    jacobi._sigma.cache_clear()  # a cached Sigma_{2/5} would skip the solve
    with pytest.raises(ConsistencyError):
        rational_spectrum(2, 5)


@pytest.mark.parametrize("p, q", [(1, 0), (1, -3), (0, 0)])
def test_rational_spectrum_rejects_a_denominator_below_one(p, q):
    with pytest.raises(DomainError):
        rational_spectrum(p, q)


@pytest.mark.parametrize("solve", [
    lambda: theta_spectrum(1, 0, 0.3),
    lambda: theta_spectrum(1, -3, 0.3),
    lambda: theta_spectrum(2, 4, 0.3),  # the flux 1/2, whose spectrum has 2 bands
    lambda: chambers_Gq(0.7, 1, 0),
], ids=["theta_spectrum 1/0", "theta_spectrum 1/-3", "theta_spectrum 2/4", "chambers_Gq 1/0"])
def test_a_flux_that_is_not_reduced_is_a_domain_error(solve):
    with pytest.raises(DomainError):
        solve()


def test_no_sigma_band_is_inverted():
    # the eigensolve puts hi of the bottom band an ulp below -3 at 18 of
    # these fluxes, 1/73 among them; Sigma >= -3 exactly (M + 3 = B B^T)
    for p, q in reduced_fractions(100):
        sigma = rational_spectrum(p, q)
        assert np.all(sigma.lo <= sigma.hi) and sigma.hi[0] >= -3.0, (p, q)


def test_rational_spectrum_solves_each_flux_once_whatever_its_representative():
    # 5/3, -1/3 and 2/3 are one flux, and 1/3 its mirror
    sigma = rational_spectrum(1, 3)
    for p in (5, -1, 2, 4, -2):
        assert rational_spectrum(p, 3) is sigma
    assert not sigma.lo.flags.writeable and not sigma.hi.flags.writeable


def test_mirror_fluxes_share_sigma_bit_for_bit():
    # flux p/q and (q - p)/q give complex-conjugate operators
    for p, q in reduced_fractions(100):
        a, b = rational_spectrum(p, q), rational_spectrum(q - p, q)
        assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi), (p, q)


def test_sigma_below_half_flux_is_the_unmirrored_solve():
    # for p <= q/2 rational_spectrum is the banded solve at p itself, its
    # bottom band pinned to [-3, max(hi, -3)]
    for p, q in reduced_fractions(100):
        if 2 * p <= q:
            los, his = jacobi._banded_spectrum(p, q, _theta_stars(q))
            los[0], his[0] = -3.0, max(his[0], -3.0)
            got = rational_spectrum(p, q)
            assert np.array_equal(got.lo, los) and np.array_equal(got.hi, his), (p, q)


def test_a_sweep_solves_one_flux_of_each_mirror_pair(monkeypatch):
    # 3044 fluxes with q <= 100: 0/1, 1/2 and 1521 pairs, two dsbev calls each
    import scipy.linalg.lapack as lapack

    calls = []
    dsbev = lapack.dsbev

    def counted(ab, *args, **kwargs):
        calls.append(ab)
        return dsbev(ab, *args, **kwargs)

    monkeypatch.setattr(lapack, "dsbev", counted)
    jacobi._sigma.cache_clear()
    fracs = reduced_fractions(100)
    for p, q in fracs:
        rational_spectrum(p, q)
    assert len(fracs) == 3044 and len(calls) == 3046
