import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexspec.dynamics import (
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
    conv = continued_fraction(GOLDEN_MEAN, 8)
    assert conv == [(1, 1), (1, 2), (2, 3), (3, 5), (5, 8), (8, 13), (13, 21), (21, 34)]


def test_continued_fraction_sqrt2():
    conv = continued_fraction(math.sqrt(2.0) - 1.0, 5)
    assert conv == [(1, 2), (2, 5), (5, 12), (12, 29), (29, 70)]


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(1e-4, 1.0 - 1e-4))
def test_continued_fraction_approximation_bound(alpha):
    conv = continued_fraction(alpha, 12)
    for (p1, q1), (p2, q2) in zip(conv, conv[1:]):
        assert abs(alpha - p1 / q1) <= 1.0 / (q1 * q2) + 1e-15
        assert math.gcd(p1, q1) == 1


def test_cocycle_config_validation():
    with pytest.raises(DomainError):
        CocycleConfig(flux=GOLD, theta_samples=10)
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
    rep = holder_probe(Flux.rational(1, 2), Flux.rational(1, 2))
    assert rep["sup_onesided_distance"] == 0.0


def test_holder_probe_crude_bound():
    rep = holder_probe(Flux.rational(0, 1), Flux.rational(1, 2))
    assert rep["sup_onesided_distance"] <= 3.0


def test_holder_ratio_bounded_along_fibonacci():
    conv = GOLD.convergents
    ratios = []
    for (p1, q1), (p2, q2) in zip(conv[2:9], conv[3:10]):
        rep = holder_probe(Flux.rational(p1, q1), Flux.rational(p2, q2))
        ratios.append(rep["ratio"])
    assert max(ratios) < 2.0  # single constant across the scale sweep


def test_fitted_holder_constant_is_the_criterion_8_fit():
    conv = GOLD.convergents[:10]
    ratios = [holder_probe(Flux.rational(*a), Flux.rational(*b))["ratio"]
              for a, b in zip(conv[2:], conv[3:])]
    assert fitted_holder_constant(conv) == 1.5 * max(ratios)
    with pytest.raises(DomainError, match="4 convergents"):
        fitted_holder_constant(conv[:3])
