import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexspec import dynamics
from hexspec.dynamics import (
    THETA_SAMPLES_MAX,
    CocycleConfig,
    acceleration,
    complexified_le,
    fitted_holder_constant,
    holder_probe,
    irrational_cover,
    lyapunov,
)
from hexspec.errors import DomainError
from hexspec.flux import (GOLDEN_MEAN, Flux, continued_fraction, golden_flux, parse_flux,
                          reduced_fractions)
from hexspec.jacobi import _d_product, coeff_c, rational_spectrum

GOLD = golden_flux()


def test_continued_fraction_golden_is_fibonacci():
    conv = continued_fraction(GOLDEN_MEAN)[:8]
    assert conv == [(1, 1), (1, 2), (2, 3), (3, 5), (5, 8), (8, 13), (13, 21), (21, 34)]


def test_continued_fraction_sqrt2():
    conv = continued_fraction(math.sqrt(2.0) - 1.0)[:5]
    assert conv == [(1, 2), (2, 5), (5, 12), (12, 29), (29, 70)]


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(1e-4, 1.0 - 1e-4))
def test_continued_fraction_approximation_bound(alpha):
    conv = continued_fraction(alpha)[:12]
    for (p1, q1), (p2, q2) in zip(conv, conv[1:]):
        assert abs(alpha - p1 / q1) <= 1.0 / (q1 * q2) + 1e-15
        assert math.gcd(p1, q1) == 1


def test_convergents_end_at_the_float():
    assert continued_fraction(0.3) == [(1, 3), (2, 7), (3, 10)]
    conv = continued_fraction(GOLDEN_MEAN)
    # 63245986/102334155 rounds to GOLDEN_MEAN itself
    assert len(conv) == 38 and conv[-1] == (63245986, 102334155)
    assert Flux.real(GOLDEN_MEAN).convergents == tuple(conv)
    # 0.3 ends at 3/10, so it has no convergent of index 3
    with pytest.raises(DomainError, match="index 3"):
        irrational_cover(0.3, 3, 2.0)


def test_last_convergent_is_the_first_within_an_ulp():
    rng = np.random.default_rng(30)
    sample = [*rng.random(300), *10.0 ** rng.uniform(-300, -1, 100),
              *(1.0 - 10.0 ** rng.uniform(-16, -1, 100)),
              GOLDEN_MEAN, 2 ** -0.5, 0.3, 1.0 - 2.0 ** -53, 1e-300, 2.0 ** -1022]
    for alpha in map(float, sample):
        conv = continued_fraction(alpha)
        # Fraction arithmetic is exact, so these are the errors |alpha - p/q| themselves
        err = [abs(Fraction(alpha) - Fraction(p, q)) for p, q in conv]
        assert err[-1] <= math.ulp(alpha) < min(err[:-1], default=math.inf), alpha
        assert all(math.gcd(p, q) == 1 for p, q in conv), alpha


def test_cocycle_config_validation():
    for m in (10, THETA_SAMPLES_MAX + 1):
        with pytest.raises(DomainError, match="theta_samples"):
            CocycleConfig(flux=GOLD, theta_samples=m)
    with pytest.raises(DomainError):
        CocycleConfig(flux=GOLD, max_n=0)
    # a Cauchy test |cur - prev| < tolerance that no pair can pass
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="tolerance"):
            CocycleConfig(flux=GOLD, tolerance=tol)


def test_correction_integral_is_zero():
    # midpoint-rule error for this log singularity is ln(2)/N
    n = 1_000_000
    th = (np.arange(n) + 0.5) / n
    assert np.mean(np.log(np.abs(coeff_c(th)))) == pytest.approx(0.0, abs=1e-6)


def test_lyapunov_nonnegative_and_off_spectrum_positive():
    cfg = CocycleConfig(flux=GOLD)
    est = lyapunov(10.0, cfg)
    assert est.converged
    assert est.value > 0.2
    # on-spectrum energy: -3 is in every convergent spectrum
    low = lyapunov(-3.0, cfg)
    assert -cfg.tolerance <= low.value < 0.02


def test_lyapunov_rational_flux_on_spectrum():
    # At rational flux the theta-average is the mean of fiber exponents,
    # so the probe energy must lie in the fiber spectrum for every theta.
    # At half flux the fibers are {lambda: lambda^2 in
    # [4 + 4cos^2(2 pi theta) -+ 4|sin(2 pi theta)|]}, which all contain
    # lambda = 2 sqrt(2); lambda = 0 is in almost no fiber.
    cfg = CocycleConfig(flux=Flux.rational(1, 2))
    est = lyapunov(2.0 * np.sqrt(2.0), cfg)
    assert abs(est.value) < 0.05
    assert lyapunov(0.0, cfg).value > 0.2


def test_rational_le_matches_eigenvalues_of_product():
    # Chambers' trace and the closed-form determinant against the spectral
    # radius of the unrenormalised product, on the same midpoint nodes x
    m = 256
    x = (np.arange(m) + 0.5) / m
    cfg = CocycleConfig(flux=GOLD, theta_samples=m)
    for p, q in reduced_fractions(12):
        for lam in (-3.0, 0.7, 4.5):
            for eps in (0.0, 0.3, -1.0):
                a, b, c, d, _ = _d_product(lam, x / q + 1j * eps, p / q, q)
                mats = np.stack([np.stack([a, b], -1), np.stack([c, d], -1)], -2)
                rho = np.max(np.abs(np.linalg.eigvals(mats)), axis=-1)
                est = complexified_le(lam, Flux.rational(p, q), eps, cfg)
                assert est.converged and est.n_used == q
                assert est.value == pytest.approx(np.mean(np.log(rho)) / q, rel=1e-10)


def test_le_in_log_scale_at_large_q():
    # q L(10) ~ 15000 and 2 pi q eps ~ 85000 would overflow a plain G_q
    big, small = Flux.rational(4181, 6765), Flux.rational(1597, 2584)
    l_big = complexified_le(10.0, big, 0.0).value
    assert math.isfinite(l_big)
    assert l_big == pytest.approx(complexified_le(10.0, small, 0.0).value, abs=1e-6)
    assert complexified_le(0.0, big, 2.0).value == pytest.approx(4.0 * math.pi, abs=1e-9)
    # L vanishes at the Dirac energy, like 0.65/q along the convergents
    assert lyapunov(-3.0, CocycleConfig(flux=GOLD)).value < 1e-3


def test_le_energy_bound():
    # L = ln|lambda| far above the spectrum, up to where the renormalised
    # product overflows (lambda^4 > 1.8e308); beyond, an error and not NaN
    cfg = CocycleConfig(flux=GOLD)
    assert lyapunov(1e77, cfg).value == pytest.approx(math.log(1e77), rel=1e-9)
    with pytest.raises(DomainError, match="lambda"):
        lyapunov(1.2e77, cfg)


@pytest.mark.parametrize("value,p,q", [(0.5, 1, 2), (0.0, 0, 1)])
def test_terminating_real_flux_is_exact(value, p, q):
    for lam in (-3.0, 1.0):
        est = lyapunov(lam, CocycleConfig(flux=Flux.real(value)))
        exact = lyapunov(lam, CocycleConfig(flux=Flux.rational(p, q)))
        assert est == exact and est.converged and est.n_used == q


def test_decimal_flux_is_reduced_exactly():
    # as floats 2.3 - 2 = 0.2999999999999998, whose next convergent after
    # 3/10 has q ~ 6e14
    est = lyapunov(1.0, CocycleConfig(flux=parse_flux("2.3")))
    assert est == lyapunov(1.0, CocycleConfig(flux=parse_flux("0.3")))
    assert est.converged and est.n_used == 10


@pytest.mark.parametrize("text,p,q", [("-1/-2", 1, 2), ("1/-3", -1, 3), ("2/-4", -1, 2)])
def test_parse_flux_gives_a_positive_denominator(text, p, q):
    flux = parse_flux(text)
    assert (flux.p, flux.q) == (p, q)


def test_parse_flux_names_a_zero_denominator():
    # the DomainError of the reduced-flux check reaches the user as it is
    with pytest.raises(DomainError, match="3/0 needs a positive denominator"):
        parse_flux("3/0")


def test_complexified_le_matches_at_zero():
    cfg = CocycleConfig(flux=GOLD)
    assert complexified_le(1.0, GOLD, 0.0, cfg).value == pytest.approx(
        lyapunov(1.0, cfg).value, abs=1e-12
    )


def test_complexified_le_convexity():
    eps = np.linspace(-1.0, 1.0, 9)
    vals = [complexified_le(0.0, GOLD, float(e)).value for e in eps]
    for i in range(1, len(vals) - 1):
        assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-3


def test_complexified_le_asymptotic_slope():
    l2 = complexified_le(0.0, GOLD, 2.0).value
    l25 = complexified_le(0.0, GOLD, 2.5).value
    assert (l25 - l2) / 0.5 == pytest.approx(2.0 * math.pi, rel=0.02)


def test_acceleration_quantization():
    for eps in (0.5, 1.0, 2.0, -0.5, -1.0, -2.0):
        om = acceleration(0.0, GOLD, eps)
        assert abs(om - round(om)) <= 0.05
        if abs(eps) == 2.0:
            assert om == pytest.approx(math.copysign(1.0, eps), abs=0.02)


def test_acceleration_rejects_zero_epsilon():
    with pytest.raises(DomainError):
        acceleration(0.0, GOLD, 0.0)


ACCELERATION_EPSILONS = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0)


def test_accelerations_at_one_energy_make_one_product_per_convergent(d_product_calls):
    # every exponent of the six accelerations (two each) stops at the
    # convergents 987/1597 and 1597/2584, whose G_q does not depend on epsilon
    for eps in ACCELERATION_EPSILONS:
        acceleration(0.0, GOLD, eps)
    assert d_product_calls == [1597, 2584]


def test_the_g_q_cache_leaves_every_bit(d_product_calls):
    cases = [(lam, eps) for lam in (0.0, -3.0, 1.7) for eps in (0.0, 0.5, -1.0)]
    cold = []
    for lam, eps in cases:
        dynamics._gq_scaled.cache_clear()
        cold.append(complexified_le(lam, GOLD, eps).value)
    for lam, eps in cases:
        complexified_le(lam, GOLD, eps)
    made = len(d_product_calls)
    warm = [complexified_le(lam, GOLD, eps).value for lam, eps in cases]
    assert warm == cold
    assert len(d_product_calls) == made  # the warm pass made no product


def test_irrational_cover_contains_inflated_spectrum():
    est = irrational_cover(GOLDEN_MEAN, 8, 0.5)
    assert est.q_n == 55
    assert est.intervals.measure <= est.bound + 1e-12
    assert len(est.intervals.intervals) <= 55


def test_irrational_cover_zero_constant_degenerates():
    est = irrational_cover(GOLDEN_MEAN, 5, 0.0)
    assert est.intervals.intervals == rational_spectrum(8, 13).merged().intervals


def test_cover_measures_shrink():
    m = [irrational_cover(GOLDEN_MEAN, n, 0.5).intervals.measure for n in (4, 6, 8)]
    assert m[0] > m[1] > m[2]


def test_holder_probe_identical_fluxes():
    assert holder_probe((1, 2), (1, 2)) == 0.0


def test_holder_probe_rejects_an_unreduced_pair():
    with pytest.raises(DomainError, match="not reduced"):
        holder_probe((2, 4), (1, 2))


def test_holder_probe_crude_bound():
    assert holder_probe((0, 1), (1, 2)) * math.sqrt(0.5) <= 3.0


def test_holder_ratio_bounded_along_fibonacci():
    conv = GOLD.convergents
    ratios = [holder_probe(a, b) for a, b in zip(conv[2:9], conv[3:10])]
    # single constant across the scale sweep, in alpha units
    assert max(ratios) < 2.0 * math.sqrt(2 * math.pi)


def test_holder_probe_measures_gaps_inside_bands():
    # a gap of Sigma_{13/21} inside a band of Sigma_{8/13}: its midpoint is
    # 0.04236 from Sigma_{13/21}, every edge of Sigma_{8/13} at most 0.0388
    a, b = (8, 13), (13, 21)
    sup = holder_probe(a, b) * math.sqrt(abs(8 / 13 - 13 / 21))
    assert sup == pytest.approx(0.0423589, abs=1e-7)
    # the distance is 1-Lipschitz: a grid of Sigma_a bounds the sup within a half step
    s1, s2 = rational_spectrum(*a), rational_spectrum(*b)
    grid = [np.linspace(lo, hi, 4097) for lo, hi in zip(s1.lo, s1.hi)]
    step = max(g[1] - g[0] for g in grid)
    sampled = float(np.max(s2.distance(np.concatenate(grid))))
    assert sampled <= sup <= sampled + 0.5 * step


def test_fitted_holder_constant_is_the_cover_radius_constant():
    # the fit and irrational_cover share the alpha unit: for every pair the fit
    # saw, Sigma_a lies within C2 |p1/q1 - p2/q2|^(1/2) of Sigma_b
    conv = GOLD.convergents[:9]
    c2 = fitted_holder_constant(conv)
    assert c2 == 4.917902546068291
    for a, b in zip(conv[2:], conv[3:]):
        radius = c2 * math.sqrt(abs(a[0] / a[1] - b[0] / b[1]))
        assert rational_spectrum(*b).inflated(radius).covers(rational_spectrum(*a)), (a, b)


def test_fitted_holder_constant_is_the_criterion_8_fit():
    # criterion 8 fits the forward ratios; at golden flux the largest ratio
    # either way is the forward one at 2/3 -> 3/5
    conv = GOLD.convergents[:10]
    ratios = [holder_probe(a, b) for a, b in zip(conv[2:], conv[3:])]
    reverse = [holder_probe(b, a) for a, b in zip(conv[2:], conv[3:])]
    assert fitted_holder_constant(conv) == 1.5 * max(ratios + reverse) == 1.5 * max(ratios)
    with pytest.raises(DomainError, match="4 convergents"):
        fitted_holder_constant(conv[:3])


@pytest.mark.parametrize("alpha, fit", [(GOLDEN_MEAN, 4.917902546068291),
                                        (math.e - 2, 4.347322539383656),
                                        (1 / math.sqrt(3), 2.1694195297164676)],
                         ids=["golden", "e-2", "1/sqrt3"])
def test_fitted_holder_constant_bounds_the_direction_the_cover_needs(alpha, fit):
    # Sigma_alpha in S_n needs the finer Sigma near the coarser one, the
    # probe's (finer, coarser) ratio; at e - 2 the largest is that of
    # 3/4 -> 5/7, 2.898 against 2.208 the other way
    conv = [c for c in continued_fraction(alpha) if c[1] <= 3000]
    c2 = fitted_holder_constant(conv)
    assert c2 == pytest.approx(fit, rel=1e-9)
    for a, b in zip(conv[2:], conv[3:]):
        assert c2 >= 1.5 * holder_probe(b, a), (a, b)
